//! Loss terms of the MAR / MARS objective (Eq. 5–9 / Eq. 12–16).
//!
//! Three pieces, shared by the per-triplet reference path and the batched
//! engine:
//!
//! * the **push** hinge with adaptive margin (Eq. 8/15) and the **pull**
//!   term (Eq. 9/16), folded into [`push_pull`] which also returns the
//!   upstream coefficients `∂L/∂s_p`, `∂L/∂s_q`;
//! * the **facet-separating** penalty (Eq. 6/12) in [`facet_separation`],
//!   operating on a flat `K × D` facet buffer;
//! * the bookkeeping types [`TripletLoss`] (one triplet) and [`BatchLoss`]
//!   (running sums over an epoch or mini-batch, `f64` so millions of
//!   triplets accumulate without drift).

use crate::config::Geometry;
use mars_tensor::{nonlin, ops, rows};

/// Per-triplet loss breakdown returned by the training paths.
#[derive(Clone, Copy, Debug, Default)]
pub struct TripletLoss {
    pub push: f32,
    pub pull: f32,
    pub facet: f32,
}

impl TripletLoss {
    /// Weighted total (the quantity being minimized).
    pub fn total(&self, lambda_pull: f32, lambda_facet: f32) -> f32 {
        self.push + lambda_pull * self.pull + lambda_facet * self.facet
    }
}

/// Running loss sums over many triplets (one mini-batch, shard, or epoch).
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchLoss {
    pub push: f64,
    pub pull: f64,
    pub facet: f64,
    /// Triplets contributing to the sums.
    pub count: usize,
}

impl BatchLoss {
    /// Adds one triplet's breakdown.
    pub fn add(&mut self, l: TripletLoss) {
        self.push += l.push as f64;
        self.pull += l.pull as f64;
        self.facet += l.facet as f64;
        self.count += 1;
    }

    /// Folds another accumulator in (deterministic shard-order merging).
    pub fn merge(&mut self, other: &BatchLoss) {
        self.push += other.push;
        self.pull += other.pull;
        self.facet += other.facet;
        self.count += other.count;
    }

    /// Weighted total over all counted triplets.
    pub fn total(&self, lambda_pull: f32, lambda_facet: f32) -> f64 {
        self.push + lambda_pull as f64 * self.pull + lambda_facet as f64 * self.facet
    }
}

/// Evaluates the hinge + pull pieces for one triplet given the combined
/// similarities `s_p = g(u, v⁺)` and `s_q = g(u, v⁻)`.
///
/// Returns `(push, pull, c_p, c_q)` where `c_p = ∂L/∂s_p` and
/// `c_q = ∂L/∂s_q` already include the pull weight `λ_pull`.
#[inline]
pub fn push_pull(gamma: f32, s_p: f32, s_q: f32, lambda_pull: f32) -> (f32, f32, f32, f32) {
    let hinge_arg = gamma - s_p + s_q;
    let active = hinge_arg > 0.0;
    let push = hinge_arg.max(0.0);
    let pull = -s_p;
    let c_p = if active { -1.0 } else { 0.0 } - lambda_pull;
    let c_q = if active { 1.0 } else { 0.0 };
    (push, pull, c_p, c_q)
}

/// Facet-separating loss over one entity's `K` facet embeddings (flat
/// `K × dim` buffer); gradients are **added** into the matching rows of
/// `grads` scaled by `lambda_facet`. Returns the (unweighted) loss value.
///
/// Euclidean (Eq. 6): `(1/α)·softplus(−α·‖f_i − f_j‖²)` per pair —
/// decreasing in the distance, so minimizing spreads the facets.
/// Spherical: `(1/α)·softplus(+α·cos(f_i, f_j))` (see the model docs'
/// interpretive note 3) — decreasing in the angle.
pub fn facet_separation(
    geometry: Geometry,
    alpha: f32,
    lambda_facet: f32,
    facets: &[f32],
    dim: usize,
    grads: &mut [f32],
) -> f32 {
    let k = rows::row_count(facets, dim);
    debug_assert_eq!(facets.len(), grads.len());
    let mut loss = 0.0;
    for i in 0..k {
        for j in (i + 1)..k {
            let (fi, fj) = (rows::row(facets, dim, i), rows::row(facets, dim, j));
            // Split borrows: rows i < j of `grads` as two disjoint slices,
            // so the update loops carry no aliasing and vectorize.
            let (head, tail) = grads.split_at_mut(j * dim);
            let gi = &mut head[i * dim..(i + 1) * dim];
            let gj = &mut tail[..dim];
            let terms = gi.iter_mut().zip(gj).zip(fi.iter().zip(fj));
            // One `exp` serves the loss value (softplus) and its slope
            // (sigmoid) — see `nonlin::softplus_sigmoid`.
            match geometry {
                Geometry::Euclidean => {
                    let (value, slope) = nonlin::softplus_sigmoid(-alpha * ops::dist_sq(fi, fj));
                    loss += value / alpha;
                    // ∂/∂d² [(1/α)softplus(−αd²)] = −σ(−αd²); ∂d²/∂f_i = 2(f_i − f_j).
                    let w = lambda_facet * -slope * 2.0;
                    for ((gi, gj), (&a, &b)) in terms {
                        let diff = a - b;
                        *gi += w * diff;
                        *gj -= w * diff;
                    }
                }
                Geometry::Spherical => {
                    let (value, slope) = nonlin::softplus_sigmoid(alpha * ops::dot(fi, fj));
                    loss += value / alpha;
                    // Ambient bilinear gradient of cos (see model docs note 2).
                    let w = lambda_facet * slope;
                    for ((gi, gj), (&a, &b)) in terms {
                        *gi += w * b;
                        *gj += w * a;
                    }
                }
            }
        }
    }
    loss
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pull_active_hinge() {
        let (push, pull, c_p, c_q) = push_pull(0.5, 0.2, 0.1, 0.1);
        assert!((push - 0.4).abs() < 1e-6);
        assert_eq!(pull, -0.2);
        assert!((c_p - (-1.1)).abs() < 1e-6);
        assert_eq!(c_q, 1.0);
    }

    #[test]
    fn push_pull_inactive_hinge() {
        let (push, _, c_p, c_q) = push_pull(-1.0, 0.9, -0.9, 0.1);
        assert_eq!(push, 0.0);
        assert!((c_p - (-0.1)).abs() < 1e-6);
        assert_eq!(c_q, 0.0);
    }

    #[test]
    fn separation_gradient_matches_finite_difference() {
        let dim = 3;
        for geometry in [Geometry::Euclidean, Geometry::Spherical] {
            let facets = vec![0.5f32, -0.2, 0.3, 0.1, 0.4, -0.6];
            let mut grads = vec![0.0; 6];
            let loss = facet_separation(geometry, 0.7, 1.0, &facets, dim, &mut grads);
            assert!(loss.is_finite());
            let h = 1e-3f32;
            for idx in 0..6 {
                let mut up = facets.clone();
                let mut dn = facets.clone();
                up[idx] += h;
                dn[idx] -= h;
                let mut sink = vec![0.0; 6];
                let lu = facet_separation(geometry, 0.7, 1.0, &up, dim, &mut sink);
                sink.fill(0.0);
                let ld = facet_separation(geometry, 0.7, 1.0, &dn, dim, &mut sink);
                let fd = (lu - ld) / (2.0 * h);
                assert!(
                    (fd - grads[idx]).abs() < 5e-3,
                    "{geometry:?} idx {idx}: fd {fd} vs analytic {}",
                    grads[idx]
                );
            }
        }
    }

    #[test]
    fn batch_loss_accumulates_and_merges() {
        let mut a = BatchLoss::default();
        a.add(TripletLoss {
            push: 1.0,
            pull: 2.0,
            facet: 3.0,
        });
        let mut b = BatchLoss::default();
        b.add(TripletLoss {
            push: 0.5,
            pull: 0.5,
            facet: 0.5,
        });
        b.facet += 0.5;
        a.merge(&b);
        assert_eq!(a.count, 2);
        assert!((a.push - 1.5).abs() < 1e-9);
        assert!((a.facet - 4.0).abs() < 1e-9);
        assert!((a.total(1.0, 1.0) - (1.5 + 2.5 + 4.0)).abs() < 1e-9);
    }
}
