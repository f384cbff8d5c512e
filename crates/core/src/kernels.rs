//! Facet similarity and ambient-gradient kernels.
//!
//! Pure slice math shared by the per-triplet reference path and the batched
//! engine. Facet sets live in flat `K × D` buffers (one row per facet, see
//! `mars_tensor::rows`), so one kernel call covers all `K` facets of an
//! entity:
//!
//! * [`similarities`] — per-facet `g_k` (Eq. 3 Euclidean / Eq. 13 spherical),
//!   and [`similarities_normed`] + [`row_norms`] for callers that hold one
//!   side's norms across several calls (bit-identical values);
//! * [`similarity_gradients`] — the ambient gradients of the weighted
//!   similarity terms w.r.t. the user / positive / negative facet sets;
//! * [`Scratch`] — the reusable per-triplet work buffers (perf-book:
//!   workhorse collections; zero allocation per step).

use crate::config::Geometry;
use mars_tensor::{ops, rows, simd};

/// Facet-specific similarity `g_k` for the given geometry (Eq. 3 / Eq. 13).
#[inline]
pub fn facet_similarity(geometry: Geometry, a: &[f32], b: &[f32]) -> f32 {
    match geometry {
        Geometry::Euclidean => -ops::dist_sq(a, b),
        Geometry::Spherical => ops::cosine(a, b),
    }
}

/// `ops::cosine`'s normalization, zero guard and clamp applied to a dot
/// product and norms the caller already holds — the one definition behind
/// both [`similarities`] entry points, so they agree bitwise with it.
#[inline]
fn cosine_from_parts(dot: f32, na: f32, nb: f32) -> f32 {
    if na <= f32::MIN_POSITIVE || nb <= f32::MIN_POSITIVE {
        0.0
    } else {
        (dot / (na * nb)).clamp(-1.0, 1.0)
    }
}

/// Norm of every row of a flat `K × dim` facet set: the cosine
/// denominators, which the batched engine computes once per entity and
/// reuses across a run of triplets that share it.
pub fn row_norms(a: &[f32], dim: usize, out: &mut [f32]) {
    for (r, o) in out.iter_mut().enumerate() {
        *o = ops::norm(rows::row(a, dim, r));
    }
}

/// All `K` per-facet similarities between two flat facet sets:
/// `out[k] = g_k(a_k, b_k)`.
pub fn similarities(geometry: Geometry, a: &[f32], b: &[f32], dim: usize, out: &mut [f32]) {
    match geometry {
        Geometry::Euclidean => similarities_normed(geometry, a, &[], b, &[], dim, out),
        Geometry::Spherical => {
            rows::dot_rows(a, b, dim, out);
            for (r, o) in out.iter_mut().enumerate() {
                let na = ops::norm(rows::row(a, dim, r));
                let nb = ops::norm(rows::row(b, dim, r));
                *o = cosine_from_parts(*o, na, nb);
            }
        }
    }
}

/// [`similarities`] with both sides' [`row_norms`] supplied by the caller
/// (read only in the spherical geometry) — bit-identical values, without
/// recomputing the norms of a facet set that several triplets share.
pub fn similarities_normed(
    geometry: Geometry,
    a: &[f32],
    na: &[f32],
    b: &[f32],
    nb: &[f32],
    dim: usize,
    out: &mut [f32],
) {
    match geometry {
        Geometry::Euclidean => {
            rows::dist_sq_rows(a, b, dim, out);
            for v in out.iter_mut() {
                *v = -*v;
            }
        }
        Geometry::Spherical => {
            rows::dot_rows(a, b, dim, out);
            for (o, (&na, &nb)) in out.iter_mut().zip(na.iter().zip(nb)) {
                *o = cosine_from_parts(*o, na, nb);
            }
        }
    }
}

/// Ambient gradients of `Σ_k (w_p[k]·g_k(u,p) + w_q[k]·g_k(u,q))` with
/// respect to the three facet sets, **overwriting** `du`, `dp`, `dq`.
///
/// `w_p` / `w_q` hold the per-facet loss weights (`∂L/∂s · θ_u^k`).
///
/// Euclidean: `g = −‖u−v‖²` ⇒ `∂g/∂u = −2(u−v)`, `∂g/∂v = 2(u−v)`.
/// Spherical: the models hand the optimizer the *bilinear* gradient
/// (`∂(uᵀv)/∂u = v`); the tangent projection inside the Riemannian step
/// supplies the `−(uᵀv)u` part (see the model docs' interpretive note 2).
#[allow(clippy::too_many_arguments)]
pub fn similarity_gradients(
    geometry: Geometry,
    w_p: &[f32],
    w_q: &[f32],
    uf: &[f32],
    pf: &[f32],
    qf: &[f32],
    du: &mut [f32],
    dp: &mut [f32],
    dq: &mut [f32],
    dim: usize,
) {
    let k = rows::row_count(uf, dim);
    debug_assert_eq!(w_p.len(), k);
    debug_assert_eq!(w_q.len(), k);
    match geometry {
        Geometry::Euclidean => {
            // One fused three-output pass per facet (the vectorized
            // `simd::euclid_grad_row` kernel; du = −dp − dq elementwise).
            for f in 0..k {
                simd::euclid_grad_row(
                    2.0 * w_p[f],
                    2.0 * w_q[f],
                    rows::row(uf, dim, f),
                    rows::row(pf, dim, f),
                    rows::row(qf, dim, f),
                    rows::row_mut(du, dim, f),
                    rows::row_mut(dp, dim, f),
                    rows::row_mut(dq, dim, f),
                );
            }
        }
        Geometry::Spherical => {
            du.fill(0.0);
            dp.fill(0.0);
            dq.fill(0.0);
            rows::axpy_rows(w_p, pf, du, dim);
            rows::axpy_rows(w_q, qf, du, dim);
            rows::axpy_rows(w_p, uf, dp, dim);
            rows::axpy_rows(w_q, uf, dq, dim);
        }
    }
}

/// Reusable per-triplet work buffers; one per trainer shard, zero allocation
/// per step. Facet sets and their gradients are flat `K × D` rows.
pub struct Scratch {
    /// Gathered facet embeddings of the user / positive / negative (`K × D`).
    pub(crate) uf: Vec<f32>,
    pub(crate) pf: Vec<f32>,
    pub(crate) qf: Vec<f32>,
    /// Facet-embedding gradients (`K × D`).
    pub(crate) du: Vec<f32>,
    pub(crate) dp: Vec<f32>,
    pub(crate) dq: Vec<f32>,
    /// Softmaxed facet weights of the user (`K`).
    pub(crate) theta: Vec<f32>,
    /// Per-facet similarities to the positive / negative (`K`).
    pub(crate) gp: Vec<f32>,
    pub(crate) gq: Vec<f32>,
    /// Facet-row norms of the user / positive / negative (`K`; batched
    /// engine, spherical geometry — the first two live for a whole run of
    /// triplets sharing the entity).
    pub(crate) nu: Vec<f32>,
    pub(crate) np: Vec<f32>,
    pub(crate) nq: Vec<f32>,
    /// Per-facet loss weights `c · θ_u^k` (`K`).
    pub(crate) w_p: Vec<f32>,
    pub(crate) w_q: Vec<f32>,
    /// Θ-gradient staging (`K`).
    pub(crate) theta_upstream: Vec<f32>,
    pub(crate) theta_grad: Vec<f32>,
    /// Generic `D`-sized temporary.
    pub(crate) tmp: Vec<f32>,
}

impl Scratch {
    /// Allocates buffers for `k` facets of dimension `d`.
    pub fn new(k: usize, d: usize) -> Self {
        let kd = || vec![0.0; k * d];
        let kv = || vec![0.0; k];
        Self {
            uf: kd(),
            pf: kd(),
            qf: kd(),
            du: kd(),
            dp: kd(),
            dq: kd(),
            theta: kv(),
            gp: kv(),
            gq: kv(),
            nu: kv(),
            np: kv(),
            nq: kv(),
            w_p: kv(),
            w_q: kv(),
            theta_upstream: kv(),
            theta_grad: kv(),
            tmp: vec![0.0; d],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn similarities_match_scalar_kernel() {
        let a = [1.0, 0.0, 0.0, 1.0]; // two rows at dim 2
        let b = [0.5, 0.5, 0.0, 2.0];
        for geometry in [Geometry::Euclidean, Geometry::Spherical] {
            let mut out = [0.0; 2];
            similarities(geometry, &a, &b, 2, &mut out);
            for r in 0..2 {
                let expect =
                    facet_similarity(geometry, &a[r * 2..(r + 1) * 2], &b[r * 2..(r + 1) * 2]);
                assert!((out[r] - expect).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn gradients_match_finite_difference_of_weighted_sum() {
        let dim = 3;
        let uf = vec![0.4f32, -0.2, 0.1, 0.3, 0.3, -0.5];
        let pf = vec![0.1f32, 0.2, -0.3, -0.2, 0.4, 0.2];
        let qf = vec![-0.4f32, 0.1, 0.5, 0.2, -0.1, 0.3];
        let w_p = [0.7f32, -0.3];
        let w_q = [0.2f32, 0.5];
        // Euclidean only: the spherical kernel intentionally returns the
        // bilinear (not full cosine) gradient — covered by the optimizer's
        // tangent-projection tests instead.
        let objective = |uf: &[f32], pf: &[f32], qf: &[f32]| -> f32 {
            let mut s = 0.0;
            for f in 0..2 {
                let u = &uf[f * dim..(f + 1) * dim];
                let p = &pf[f * dim..(f + 1) * dim];
                let q = &qf[f * dim..(f + 1) * dim];
                s += w_p[f] * -ops::dist_sq(u, p) + w_q[f] * -ops::dist_sq(u, q);
            }
            s
        };
        let mut du = vec![0.0; 6];
        let mut dp = vec![0.0; 6];
        let mut dq = vec![0.0; 6];
        similarity_gradients(
            Geometry::Euclidean,
            &w_p,
            &w_q,
            &uf,
            &pf,
            &qf,
            &mut du,
            &mut dp,
            &mut dq,
            dim,
        );
        let h = 1e-3;
        for idx in 0..6 {
            let mut up = uf.clone();
            let mut dn = uf.clone();
            up[idx] += h;
            dn[idx] -= h;
            let fd = (objective(&up, &pf, &qf) - objective(&dn, &pf, &qf)) / (2.0 * h);
            assert!(
                (fd - du[idx]).abs() < 5e-3,
                "du[{idx}]: fd {fd} vs {}",
                du[idx]
            );
            let mut up = pf.clone();
            let mut dn = pf.clone();
            up[idx] += h;
            dn[idx] -= h;
            let fd = (objective(&uf, &up, &qf) - objective(&uf, &dn, &qf)) / (2.0 * h);
            assert!(
                (fd - dp[idx]).abs() < 5e-3,
                "dp[{idx}]: fd {fd} vs {}",
                dp[idx]
            );
            let mut up = qf.clone();
            let mut dn = qf.clone();
            up[idx] += h;
            dn[idx] -= h;
            let fd = (objective(&uf, &pf, &up) - objective(&uf, &pf, &dn)) / (2.0 * h);
            assert!(
                (fd - dq[idx]).abs() < 5e-3,
                "dq[{idx}]: fd {fd} vs {}",
                dq[idx]
            );
        }
    }

    #[test]
    fn spherical_gradients_are_bilinear() {
        // ∂(Σ w·uᵀv)/∂u = w·v exactly.
        let uf = [1.0f32, 0.0];
        let pf = [0.0f32, 1.0];
        let qf = [1.0f32, 1.0];
        let mut du = [0.0; 2];
        let mut dp = [0.0; 2];
        let mut dq = [0.0; 2];
        similarity_gradients(
            Geometry::Spherical,
            &[2.0],
            &[3.0],
            &uf,
            &pf,
            &qf,
            &mut du,
            &mut dp,
            &mut dq,
            2,
        );
        assert_eq!(du, [3.0, 5.0]); // 2·p + 3·q
        assert_eq!(dp, [2.0, 0.0]); // 2·u
        assert_eq!(dq, [3.0, 0.0]); // 3·u
    }
}
