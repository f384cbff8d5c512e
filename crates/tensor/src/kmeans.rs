//! Lloyd's k-means over embedding rows.
//!
//! Backs the paper's future-work item "infer clusters and attributes of
//! users and items based on the learned MARS model, and utilize them to
//! support other related downstream tasks like user/item segmentation"
//! (`mars-core::analysis::segment_items`) and the IVF retrieval index
//! (`mars-serve::index`). Deterministic given the seed: the k-means++
//! seeding draws from a [`CounterRng`] keyed on `(seed, 0)` — a pure
//! function of the seed, pinned by a golden-value test, independent of any
//! caller-side generator state — then Lloyd iterations run until an
//! assignment fixpoint or the iteration cap. After each update, every
//! non-empty centroid is scaled to its mean first; then each empty cluster,
//! in index order, is re-seeded from the point farthest from its own
//! centroid among those not yet taken that round.
//!
//! Distances are computed one-vs-rows: the assign step scores a row
//! against all k centroids in one [`simd::dist_sq_one_rows`] call
//! ([`nearest`]), and the seeding update scores the last pick against all
//! n rows in one call. The kernel is bitwise `dist_sq` per row and
//! `dist_sq` is symmetric, so the output is bit-identical to per-pair
//! calls — a golden hash of a full run pins it. A run is serial; the IVF
//! build runs one per facet in parallel.

use crate::matrix::Matrix;
use crate::ops;
use crate::simd;
use mars_runtime::rng::CounterRng;

/// Result of a clustering run.
#[derive(Clone, Debug)]
pub struct KMeans {
    /// `k × dim` centroid matrix.
    pub centroids: Matrix,
    /// Cluster index per input row.
    pub assignment: Vec<usize>,
    /// Final within-cluster sum of squared distances.
    pub inertia: f64,
    /// Lloyd iterations executed.
    pub iterations: usize,
}

/// Uniform `f64` in `[0, 1)` with 53 bits of precision — the distribution
/// the distance-weighted k-means++ pick samples its threshold from.
#[inline]
fn unit_f64(rng: &mut CounterRng) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The k-means++ seeding pass: the `k` chosen row indices, in pick order.
///
/// Exactly one counter tick per pick (the first pick is uniform, each later
/// pick samples a squared-distance-weighted threshold — or falls back to a
/// uniform pick when every remaining distance is zero), so the stream is a
/// pure function of `(seed, pick index)` and the golden test can pin it.
///
/// # Panics
/// If `k == 0`, `k > data.rows()`, or `data` has no rows.
pub fn kmeans_pp_seed(data: &Matrix, k: usize, seed: u64) -> Vec<usize> {
    let (n, _) = data.shape();
    assert!(n > 0, "k-means needs at least one sample");
    assert!(k > 0 && k <= n, "invalid cluster count {k} for {n} rows");

    let mut rng = CounterRng::keyed(seed, 0);
    let mut picks = Vec::with_capacity(k);
    picks.push(rng.gen_below(n as u64) as usize);
    let mut dist2 = vec![f32::INFINITY; n];
    let mut fresh = vec![0.0f32; n];
    for c in 1..k {
        // Update distance-to-nearest-chosen for every point: one
        // one-vs-rows call (bitwise `dist_sq` per row, which is symmetric).
        simd::dist_sq_one_rows(data.row(picks[c - 1]), data.as_slice(), &mut fresh);
        for (d, &x) in dist2.iter_mut().zip(&fresh) {
            if x < *d {
                *d = x;
            }
        }
        let total: f64 = dist2.iter().map(|&d| d as f64).sum();
        let chosen = if total <= 0.0 {
            rng.gen_below(n as u64) as usize
        } else {
            // Sample proportional to squared distance.
            let mut target = unit_f64(&mut rng) * total;
            let mut pick = n - 1;
            for (i, &d) in dist2.iter().enumerate() {
                target -= d as f64;
                if target <= 0.0 {
                    pick = i;
                    break;
                }
            }
            pick
        };
        picks.push(chosen);
    }
    picks
}

/// Index of the row of `centroids` (flat, `dists.len() × x.len()`) nearest
/// to `x` under squared Euclidean distance, all distances computed by one
/// one-vs-rows kernel call into the scratch `dists`. Keep-first argmin:
/// ties go to the lower index, NaN distances never win, and an all-NaN row
/// lands in cluster 0 — degraded placement, no panic.
pub fn nearest(x: &[f32], centroids: &[f32], dists: &mut [f32]) -> usize {
    simd::dist_sq_one_rows(x, centroids, dists);
    let mut best = 0;
    let mut best_d = f32::INFINITY;
    for (c, &d) in dists.iter().enumerate() {
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    best
}

/// Runs k-means++ / Lloyd on the rows of `data`.
///
/// # Panics
/// If `k == 0`, `k > data.rows()`, or `data` has no rows.
pub fn kmeans(data: &Matrix, k: usize, max_iters: usize, seed: u64) -> KMeans {
    let picks = kmeans_pp_seed(data, k, seed);
    let mut centroids = Matrix::zeros(k, data.cols());
    for (c, &row) in picks.iter().enumerate() {
        centroids.row_mut(c).copy_from_slice(data.row(row));
    }
    lloyd(data, centroids, max_iters)
}

/// Lloyd iterations from the given initial `centroids` until an assignment
/// fixpoint or `max_iters` (min 1) rounds.
fn lloyd(data: &Matrix, mut centroids: Matrix, max_iters: usize) -> KMeans {
    let n = data.rows();
    let k = centroids.rows();
    let mut assignment = vec![0usize; n];
    let mut counts = vec![0usize; k];
    let mut dists = vec![0.0f32; k];
    let mut far = Vec::new();
    let mut iterations = 0;
    for iter in 0..max_iters.max(1) {
        iterations = iter + 1;
        // Assign.
        let mut changed = false;
        for (i, a) in assignment.iter_mut().enumerate() {
            let best = nearest(data.row(i), centroids.as_slice(), &mut dists);
            if *a != best {
                *a = best;
                changed = true;
            }
        }
        if !changed && iter > 0 {
            break;
        }
        // Update: sum, then scale every non-empty centroid…
        centroids.as_mut_slice().fill(0.0);
        counts.fill(0);
        for (i, &a) in assignment.iter().enumerate() {
            counts[a] += 1;
            ops::axpy(1.0, data.row(i), centroids.row_mut(a));
        }
        for (c, &count) in counts.iter().enumerate() {
            if count > 0 {
                ops::scale(centroids.row_mut(c), 1.0 / count as f32);
            }
        }
        // …then re-seed the empty ones, in index order, each from the point
        // farthest from its (now final) centroid among those not yet taken
        // this round.
        if counts.contains(&0) {
            far.clear();
            far.extend(
                (0..n).map(|i| Some(ops::dist_sq(data.row(i), centroids.row(assignment[i])))),
            );
            for c in (0..k).filter(|&c| counts[c] == 0) {
                // total_cmp keeps the argmax deterministic even if a
                // distance degenerates to NaN (it ranks last, i.e.
                // "farthest", and ties go to the higher index). There are at
                // least as many points as clusters, so one is always left.
                let (pick, _) = far
                    .iter()
                    .enumerate()
                    .filter_map(|(i, d)| d.map(|d| (i, d)))
                    .max_by(|a, b| a.1.total_cmp(&b.1))
                    .expect("k ≤ n leaves a point for every empty cluster");
                far[pick] = None;
                centroids.row_mut(c).copy_from_slice(data.row(pick));
            }
        }
    }

    let inertia: f64 = (0..n)
        .map(|i| ops::dist_sq(data.row(i), centroids.row(assignment[i])) as f64)
        .sum();
    KMeans {
        centroids,
        assignment,
        inertia,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three well-separated 2-D blobs must be recovered exactly.
    fn blobs() -> (Matrix, Vec<usize>) {
        let centers = [(0.0f32, 0.0f32), (10.0, 0.0), (0.0, 10.0)];
        let mut rows = Vec::new();
        let mut truth = Vec::new();
        for (ci, &(cx, cy)) in centers.iter().enumerate() {
            for j in 0..20 {
                let dx = ((j * 7) % 5) as f32 * 0.05;
                let dy = ((j * 3) % 5) as f32 * 0.05;
                rows.extend_from_slice(&[cx + dx, cy + dy]);
                truth.push(ci);
            }
        }
        (Matrix::from_vec(60, 2, rows), truth)
    }

    #[test]
    fn recovers_separated_blobs() {
        let (data, truth) = blobs();
        let result = kmeans(&data, 3, 50, 5);
        // Same-truth points share a cluster; different-truth points don't.
        for i in 0..60 {
            for j in 0..60 {
                let same_truth = truth[i] == truth[j];
                let same_cluster = result.assignment[i] == result.assignment[j];
                assert_eq!(same_truth, same_cluster, "points {i},{j}");
            }
        }
        assert!(result.inertia < 1.0, "inertia {}", result.inertia);
    }

    #[test]
    fn inertia_decreases_with_more_clusters() {
        let (data, _) = blobs();
        let k1 = kmeans(&data, 1, 50, 6).inertia;
        let k3 = kmeans(&data, 3, 50, 6).inertia;
        assert!(k3 < k1, "k=3 {k3} should beat k=1 {k1}");
    }

    #[test]
    fn k_equals_n_gives_zero_inertia() {
        let data = Matrix::from_vec(4, 2, vec![0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 5.0, 5.0]);
        let result = kmeans(&data, 4, 20, 7);
        assert!(result.inertia < 1e-9);
    }

    #[test]
    fn deterministic_given_seed() {
        let (data, _) = blobs();
        let a = kmeans(&data, 3, 50, 8);
        let b = kmeans(&data, 3, 50, 8);
        assert_eq!(a.assignment, b.assignment);
        for (x, y) in a.centroids.as_slice().iter().zip(b.centroids.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// The seeding stream is `CounterRng::keyed(seed, 0)` — a contract, not
    /// an implementation detail: `analysis::segment_items` results and every
    /// serialized IVF cell layout depend on it. These literals pin the
    /// chosen row indices; bump them only with a deliberate protocol break.
    #[test]
    fn golden_values_pin_the_seeding_stream() {
        let (data, _) = blobs();
        assert_eq!(kmeans_pp_seed(&data, 3, 8), [12, 44, 32]);
        assert_eq!(kmeans_pp_seed(&data, 3, 2021), [29, 55, 13]);
        assert_eq!(kmeans_pp_seed(&data, 5, 0), [52, 22, 0, 58, 4]);
        // First pick is `gen_below(n)` on the keyed stream directly.
        let mut rng = mars_runtime::rng::CounterRng::keyed(8, 0);
        assert_eq!(kmeans_pp_seed(&data, 1, 8), [rng.gen_below(60) as usize]);
    }

    /// Regression for the NaN-unsound empty-cluster reseed: a NaN
    /// coordinate must neither panic nor make the run
    /// permutation/run-dependent (the old `partial_cmp(..).unwrap_or(Equal)`
    /// argmax comparator was inconsistent under NaN).
    #[test]
    fn kmeans_survives_nan_rows_deterministically() {
        let (data, _) = blobs();
        let mut rows = data.as_slice().to_vec();
        rows[7] = f32::NAN; // poison one coordinate of one point
        let data = Matrix::from_vec(60, 2, rows);
        let a = kmeans(&data, 3, 50, 8);
        let b = kmeans(&data, 3, 50, 8);
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.assignment.len(), 60);
        for (x, y) in a.centroids.as_slice().iter().zip(b.centroids.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// All-identical points: every distance is zero, so every pick after the
    /// first falls back to the uniform branch — still one tick per pick.
    #[test]
    fn degenerate_seeding_stays_uniform_and_deterministic() {
        let data = Matrix::from_vec(5, 2, vec![1.0; 10]);
        let a = kmeans_pp_seed(&data, 3, 4);
        let b = kmeans_pp_seed(&data, 3, 4);
        assert_eq!(a, b);
        assert!(a.iter().all(|&i| i < 5));
    }

    /// FNV-1a over a run's full output: assignment, centroid bits,
    /// iteration count and inertia bits.
    fn output_hash(km: &KMeans) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |x: u64| {
            for b in x.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
        };
        km.assignment.iter().for_each(|&a| eat(a as u64));
        km.centroids
            .as_slice()
            .iter()
            .for_each(|x| eat(x.to_bits() as u64));
        eat(km.iterations as u64);
        eat(km.inertia.to_bits());
        h
    }

    /// `n × 32` rows drawn around 24 centres, a pure function of `seed`.
    fn seeded_rows(n: usize, seed: u64) -> Matrix {
        const DIM: usize = 32;
        let mut rng = CounterRng::keyed(seed, 1);
        let mut unit = || (rng.next_u64() >> 40) as f32 / (1u64 << 24) as f32 - 0.5;
        let centres: Vec<f32> = (0..24 * DIM).map(|_| 4.0 * unit()).collect();
        let mut rows = Vec::with_capacity(n * DIM);
        for i in 0..n {
            let c = &centres[(i * 7 % 24) * DIM..(i * 7 % 24 + 1) * DIM];
            rows.extend(c.iter().map(|&x| x + unit()));
        }
        Matrix::from_vec(n, DIM, rows)
    }

    /// Pins every bit of a mid-sized run (3 000 rows × 32, k = 55 ≈ √n,
    /// no cluster ever empties): a change to the distance kernels' use,
    /// the argmin's tie rule or the update's summation order shows here.
    #[test]
    fn golden_hash_pins_a_full_run() {
        let data = seeded_rows(3000, 37);
        let km = kmeans(&data, 55, 25, 11);
        assert_eq!(km.iterations, 18);
        assert_eq!(output_hash(&km), 0xA9DD_25E1_CD28_F7B3);
    }

    /// Group A around `(0, 1.5)` — its members sit 2.25, 0.25, 6.25 and
    /// 20.25 from that mean — and group B, three points near `(10, 0)`.
    fn two_groups() -> Matrix {
        #[rustfmt::skip]
        let rows = vec![
            0.0, 0.0,   0.0, 1.0,   0.0, -1.0,   0.0, 6.0,
            10.0, 0.0,  10.0, 0.1,  10.0, -0.1,
        ];
        Matrix::from_vec(7, 2, rows)
    }

    /// An empty cluster below a non-empty one: its replacement must be the
    /// point farthest from its *scaled* centroid. Measured against B's
    /// unscaled sum `(30, 0)`, a B point would look 400 away and win.
    #[test]
    fn empty_cluster_at_a_low_index_reseeds_from_the_farthest_point() {
        let data = two_groups();
        let init = Matrix::from_vec(3, 2, vec![0.0, 0.0, 100.0, 100.0, 10.0, 0.0]);
        let km = lloyd(&data, init, 1);
        assert_eq!(km.assignment, [0, 0, 0, 0, 2, 2, 2]);
        assert_eq!(km.centroids.row(0), [0.0, 1.5]);
        assert_eq!(km.centroids.row(1), data.row(3));
        assert_eq!(km.centroids.row(2), [10.0, 0.0]);
    }

    /// Two clusters empty in one round take two different points: the
    /// farthest, then the farthest of the rest.
    #[test]
    fn two_empty_clusters_take_distinct_points() {
        let data = two_groups();
        #[rustfmt::skip]
        let init = Matrix::from_vec(4, 2, vec![
            0.0, 0.0,   100.0, 100.0,   200.0, 200.0,   10.0, 0.0,
        ]);
        let km = lloyd(&data, init, 1);
        assert_eq!(km.centroids.row(1), data.row(3));
        assert_eq!(km.centroids.row(2), data.row(2));
        // The next round gives each re-seeded centroid its point.
        let km = lloyd(&data, km.centroids, 1);
        assert_eq!(km.assignment, [2, 0, 2, 1, 3, 3, 3]);
    }

    #[test]
    #[should_panic(expected = "invalid cluster count")]
    fn rejects_k_greater_than_n() {
        let data = Matrix::zeros(2, 2);
        let _ = kmeans(&data, 3, 10, 9);
    }

    #[test]
    fn identical_points_are_fine() {
        let data = Matrix::from_vec(5, 2, vec![1.0; 10]);
        let result = kmeans(&data, 2, 10, 10);
        assert!(result.inertia < 1e-9);
        assert_eq!(result.assignment.len(), 5);
    }
}
