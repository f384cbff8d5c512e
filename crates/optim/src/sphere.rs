//! Geometry of the unit hypersphere `S^{D−1}`.
//!
//! The building blocks of Riemannian SGD:
//!
//! * the **tangent projection** `P_x(z) = (I − xxᵀ)z` maps an ambient
//!   gradient into the tangent space at `x`;
//! * the **retraction** `R_x(z) = (x + z)/‖x + z‖` (the paper's choice,
//!   following Skopek et al.) maps a tangent step back onto the sphere;
//! * the **exponential map** `exp_x(z) = cos(‖z‖)x + sin(‖z‖)z/‖z‖` is the
//!   exact geodesic flow, provided for comparison (Eq. 20 uses it; Eq. 21
//!   uses the cheaper retraction).

use mars_tensor::ops;

/// Projects `z` onto the tangent space of the sphere at `x` (in place):
/// `z ← z − (xᵀz)x`. Assumes `‖x‖ = 1` (true for all MARS parameters).
pub fn project_to_tangent(x: &[f32], z: &mut [f32]) {
    let coeff = ops::dot(x, z);
    ops::axpy(-coeff, x, z);
}

/// Retraction `R_x(z) = (x + z)/‖x + z‖`, written into `x`.
///
/// If `x + z ≈ 0` (a tangent step of length ≈ ‖x‖ pointing "through" the
/// sphere, which finite learning rates never produce) `x` is left unchanged
/// rather than normalizing a zero vector.
pub fn retract(x: &mut [f32], z: &[f32]) {
    debug_assert_eq!(x.len(), z.len());
    let mut norm_sq = 0.0f32;
    for (xi, zi) in x.iter().zip(z) {
        let m = xi + zi;
        norm_sq += m * m;
    }
    let n = norm_sq.sqrt();
    if n <= 1e-12 {
        return;
    }
    for (xi, zi) in x.iter_mut().zip(z) {
        *xi = (*xi + zi) / n;
    }
}

/// Exact exponential map `exp_x(z)` for tangent `z`, written into `x`.
///
/// For `‖z‖ → 0` falls back to the retraction's first-order behaviour
/// (`x + z` normalized) to avoid 0/0.
pub fn exp_map(x: &mut [f32], z: &[f32]) {
    debug_assert_eq!(x.len(), z.len());
    let norm_z = ops::norm(z);
    if norm_z < 1e-8 {
        retract(x, z);
        return;
    }
    let (sin, cos) = norm_z.sin_cos();
    let scale_z = sin / norm_z;
    for (xi, zi) in x.iter_mut().zip(z) {
        *xi = cos * *xi + scale_z * zi;
    }
    // Re-normalize to kill accumulated rounding.
    ops::normalize(x);
}

/// Geodesic (great-circle) distance between two unit vectors.
// audit:allow(orphan-pub) — test support: step-length tests of the Riemannian optimizers
pub fn geodesic_distance(a: &[f32], b: &[f32]) -> f32 {
    ops::cosine(a, b).acos()
}

/// Verifies `‖x‖ = 1` within `tol` — the invariant every MARS parameter
/// must satisfy after every update (asserted in tests and debug builds).
pub fn is_on_sphere(x: &[f32], tol: f32) -> bool {
    (ops::norm(x) - 1.0).abs() <= tol
}

#[cfg(test)]
mod tests {
    use super::*;
    use mars_tensor::ops::{dot, norm, normalized};

    #[test]
    fn tangent_projection_is_orthogonal_to_x() {
        let x = normalized(&[0.3, -0.5, 0.8, 0.1]);
        let mut z = vec![1.0, 2.0, -0.5, 0.7];
        project_to_tangent(&x, &mut z);
        assert!(dot(&x, &z).abs() < 1e-5);
    }

    #[test]
    fn tangent_projection_is_idempotent() {
        let x = normalized(&[1.0, 1.0, 0.0]);
        let mut z = vec![0.2, -0.4, 0.9];
        project_to_tangent(&x, &mut z);
        let once = z.clone();
        project_to_tangent(&x, &mut z);
        for (a, b) in once.iter().zip(&z) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn tangent_of_tangent_vector_is_identity() {
        let x = normalized(&[0.0, 0.0, 1.0]);
        let mut z = vec![0.5, -0.25, 0.0]; // already tangent
        let orig = z.clone();
        project_to_tangent(&x, &mut z);
        for (a, b) in orig.iter().zip(&z) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn retraction_lands_on_sphere() {
        let mut x = normalized(&[0.6, 0.8]);
        retract(&mut x, &[0.1, -0.2]);
        assert!(is_on_sphere(&x, 1e-5));
    }

    #[test]
    fn retraction_hand_example() {
        // x = e1, z = e2 → (1,1)/√2.
        let mut x = vec![1.0, 0.0];
        retract(&mut x, &[0.0, 1.0]);
        let s = std::f32::consts::FRAC_1_SQRT_2;
        assert!((x[0] - s).abs() < 1e-6 && (x[1] - s).abs() < 1e-6);
    }

    #[test]
    fn retraction_zero_step_is_identity() {
        let mut x = normalized(&[0.2, 0.9, -0.1]);
        let before = x.clone();
        retract(&mut x, &[0.0; 3]);
        assert_eq!(x, before);
    }

    #[test]
    fn retraction_antipodal_step_is_noop() {
        let mut x = vec![1.0, 0.0];
        let before = x.clone();
        retract(&mut x, &[-1.0, 0.0]); // x + z = 0
        assert_eq!(x, before);
    }

    #[test]
    fn exp_map_quarter_circle() {
        // x = e1, tangent z = (π/2)·e2 → exp_x(z) = e2.
        let mut x = vec![1.0, 0.0];
        let z = [0.0, std::f32::consts::FRAC_PI_2];
        exp_map(&mut x, &z);
        assert!(x[0].abs() < 1e-5, "{x:?}");
        assert!((x[1] - 1.0).abs() < 1e-5, "{x:?}");
    }

    #[test]
    fn exp_map_full_circle_returns() {
        let mut x = vec![1.0, 0.0];
        let z = [0.0, std::f32::consts::TAU];
        exp_map(&mut x, &z);
        assert!((x[0] - 1.0).abs() < 1e-4, "{x:?}");
        assert!(x[1].abs() < 1e-4, "{x:?}");
    }

    #[test]
    fn exp_map_small_step_matches_retraction() {
        let x0 = normalized(&[0.4, -0.3, 0.85]);
        let mut tangent = vec![0.001, 0.002, 0.0];
        project_to_tangent(&x0, &mut tangent);
        let mut via_exp = x0.clone();
        exp_map(&mut via_exp, &tangent);
        let mut via_retract = x0.clone();
        retract(&mut via_retract, &tangent);
        for (a, b) in via_exp.iter().zip(&via_retract) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn geodesic_distance_values() {
        let e1 = [1.0, 0.0];
        let e2 = [0.0, 1.0];
        assert!((geodesic_distance(&e1, &e2) - std::f32::consts::FRAC_PI_2).abs() < 1e-5);
        assert!(geodesic_distance(&e1, &e1).abs() < 1e-3);
        let neg = [-1.0, 0.0];
        assert!((geodesic_distance(&e1, &neg) - std::f32::consts::PI).abs() < 1e-5);
    }

    #[test]
    fn exp_preserves_norm_for_random_tangents() {
        let x0 = normalized(&[0.1, 0.2, 0.3, 0.4, 0.5]);
        for scale in [0.01f32, 0.5, 2.0] {
            let mut z = vec![0.7, -0.1, 0.4, 0.0, -0.6];
            project_to_tangent(&x0, &mut z);
            let zn = norm(&z).max(1e-9);
            mars_tensor::ops::scale(&mut z, scale / zn);
            let mut x = x0.clone();
            exp_map(&mut x, &z);
            assert!(is_on_sphere(&x, 1e-4), "scale {scale}: ‖x‖={}", norm(&x));
        }
    }
}
