//! Vector kernels over `f32` slices.
//!
//! These are the inner loops of every model in the workspace: similarity
//! scores, gradient accumulation (`axpy`), and the sphere projections used by
//! the Riemannian optimizer. The hot reductions and `axpy` forward to the
//! explicitly vectorized layer in [`crate::simd`] (runtime-dispatched
//! AVX2/FMA with a lane-chunked portable fallback); see that module's docs
//! for the summation-order / determinism contract. The cold helpers
//! (normalization, clipping) stay as simple loops.

use crate::simd;

/// Dot product `a · b` (chunked summation order, see [`crate::simd`]).
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    simd::dot(a, b)
}

/// Squared Euclidean norm `‖a‖²`.
#[inline]
pub fn norm_sq(a: &[f32]) -> f32 {
    a.iter().map(|x| x * x).sum()
}

/// Euclidean norm `‖a‖`.
#[inline]
pub fn norm(a: &[f32]) -> f32 {
    norm_sq(a).sqrt()
}

/// Squared Euclidean distance `‖a − b‖²` (chunked summation order, see
/// [`crate::simd`]).
#[inline]
pub fn dist_sq(a: &[f32], b: &[f32]) -> f32 {
    simd::dist_sq(a, b)
}

/// Euclidean distance `‖a − b‖`.
#[inline]
pub fn dist(a: &[f32], b: &[f32]) -> f32 {
    dist_sq(a, b).sqrt()
}

/// `y ← y + alpha · x` (the classic BLAS axpy; vectorized, see
/// [`crate::simd`]).
#[inline]
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    simd::axpy(alpha, x, y)
}

/// `a ← alpha · a`.
#[inline]
pub fn scale(a: &mut [f32], alpha: f32) {
    for v in a.iter_mut() {
        *v *= alpha;
    }
}

/// Sets every element to zero.
#[inline]
pub fn zero(a: &mut [f32]) {
    a.fill(0.0);
}

/// Cosine similarity `cos(a, b) = a·b / (‖a‖‖b‖)`.
///
/// Returns `0.0` when either vector is (numerically) zero, which is the
/// behaviour the training loops want: a zero embedding has no preferred
/// direction, so its similarity to anything is neutral.
#[inline]
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let na = norm(a);
    let nb = norm(b);
    if na <= f32::MIN_POSITIVE || nb <= f32::MIN_POSITIVE {
        return 0.0;
    }
    (dot(a, b) / (na * nb)).clamp(-1.0, 1.0)
}

/// Normalizes `a` to unit length in place.
///
/// A zero vector is replaced by the unit vector along the first axis so the
/// result is always a valid point on the sphere (the Riemannian optimizer
/// requires its parameters to stay on the manifold).
#[inline]
pub fn normalize(a: &mut [f32]) {
    let n = norm(a);
    if n <= f32::MIN_POSITIVE {
        zero(a);
        if let Some(first) = a.first_mut() {
            *first = 1.0;
        }
        return;
    }
    scale(a, 1.0 / n);
}

/// Returns a unit-normalized copy of `a` (see [`normalize`]).
#[inline]
// audit:allow(orphan-pub) — test support: unit-vector fixtures of the optimizer tests
pub fn normalized(a: &[f32]) -> Vec<f32> {
    let mut out = a.to_vec();
    normalize(&mut out);
    out
}

/// Clips `a` into the closed unit ball: if `‖a‖ > 1` rescales to `‖a‖ = 1`.
///
/// This is the norm constraint used by CML / MAR (`‖u^k‖² ≤ 1`, Eq. 11 of the
/// paper); MARS replaces it with the strict sphere constraint.
#[inline]
pub fn clip_to_unit_ball(a: &mut [f32]) {
    let n = norm(a);
    if n > 1.0 {
        scale(a, 1.0 / n);
    }
}

/// Clips the norm of `a` to at most `max_norm` (gradient clipping).
#[inline]
pub fn clip_norm(a: &mut [f32], max_norm: f32) {
    debug_assert!(max_norm > 0.0);
    let n = norm(a);
    if n > max_norm {
        scale(a, max_norm / n);
    }
}

/// Index of the maximum element (first one on ties). Panics on empty input.
#[inline]
pub fn argmax(a: &[f32]) -> usize {
    assert!(!a.is_empty(), "argmax of empty slice");
    let mut best = 0;
    let mut best_v = a[0];
    for (i, &v) in a.iter().enumerate().skip(1) {
        if v > best_v {
            best = i;
            best_v = v;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn norms_and_distances() {
        let a = [3.0, 4.0];
        assert_eq!(norm_sq(&a), 25.0);
        assert_eq!(norm(&a), 5.0);
        assert_eq!(dist_sq(&[1.0, 1.0], &[4.0, 5.0]), 25.0);
        assert_eq!(dist(&[1.0, 1.0], &[4.0, 5.0]), 5.0);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, -1.0], &mut y);
        assert_eq!(y, vec![7.0, -1.0]);
    }

    #[test]
    fn scale_sub_add() {
        let mut a = vec![2.0, -4.0];
        scale(&mut a, 0.5);
        assert_eq!(a, vec![1.0, -2.0]);
    }

    #[test]
    fn cosine_matches_hand_values() {
        assert!((cosine(&[1.0, 0.0], &[0.0, 1.0])).abs() < 1e-7);
        assert!((cosine(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-7);
        assert!((cosine(&[1.0, 0.0], &[-2.0, 0.0]) + 1.0).abs() < 1e-7);
        // 45 degrees
        let c = cosine(&[1.0, 0.0], &[1.0, 1.0]);
        assert!((c - std::f32::consts::FRAC_1_SQRT_2).abs() < 1e-6);
    }

    #[test]
    fn cosine_zero_vector_is_neutral() {
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 2.0]), 0.0);
        assert_eq!(cosine(&[1.0, 2.0], &[0.0, 0.0]), 0.0);
    }

    #[test]
    fn normalize_makes_unit() {
        let mut a = vec![3.0, 4.0];
        normalize(&mut a);
        assert!((norm(&a) - 1.0).abs() < 1e-6);
        assert!((a[0] - 0.6).abs() < 1e-6);
    }

    #[test]
    fn normalize_zero_vector_lands_on_sphere() {
        let mut a = vec![0.0; 4];
        normalize(&mut a);
        assert!((norm(&a) - 1.0).abs() < 1e-6);
        assert_eq!(a[0], 1.0);
    }

    #[test]
    fn clip_to_unit_ball_only_shrinks() {
        let mut long = vec![3.0, 4.0];
        clip_to_unit_ball(&mut long);
        assert!((norm(&long) - 1.0).abs() < 1e-6);
        let mut short = vec![0.3, 0.4];
        clip_to_unit_ball(&mut short);
        assert_eq!(short, vec![0.3, 0.4]);
    }

    #[test]
    fn clip_norm_caps_gradients() {
        let mut g = vec![30.0, 40.0];
        clip_norm(&mut g, 5.0);
        assert!((norm(&g) - 5.0).abs() < 1e-4);
        let mut small = vec![0.3, 0.4];
        clip_norm(&mut small, 5.0);
        assert_eq!(small, vec![0.3, 0.4]);
    }

    #[test]
    fn argmax_first_on_ties() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), 1);
        assert_eq!(argmax(&[-1.0]), 0);
    }
}
