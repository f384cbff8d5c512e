//! Riemannian SGD on the unit sphere, plain (Eq. 20) and calibrated
//! (Eq. 21 — the paper's contribution).
//!
//! Both optimizers receive the **ambient** (Euclidean) gradient `∇f(x)` of
//! the loss at a unit-norm parameter `x` and keep `x` exactly on the sphere:
//!
//! * **Plain RSGD** (Eq. 20): `x ← exp_x(−η · P_x(∇f))` where `P_x` is the
//!   tangent projection and `exp` the exponential map.
//! * **Calibrated RSGD** (Eq. 21):
//!   `x ← R_x(−η · (1 + xᵀ∇f/‖∇f‖) · (I − xxᵀ)∇f)` with the cheap
//!   retraction `R_x(z) = (x+z)/‖x+z‖`.
//!
//! ### Why the calibration multiplier does what the paper says
//!
//! For a pull-style loss `f = −cos(x, target)` the models compute the
//! ambient gradient of the *bilinear* form (`∇f = −target`, treating norms
//! as the constants they are on the manifold). Then
//! `1 + xᵀ∇f/‖∇f‖ = 1 − cos(x, target)`: a parameter pointing *away* from
//! its target (cos → −1) gets a ×2 step, an almost-converged one (cos → 1)
//! gets ×0 — exactly Figure 4's "greater angular distance ⇒ larger update".
//! The multiplier is bounded in `[0, 2]` by Cauchy–Schwarz, so it can never
//! destabilize training, and a zero gradient leaves the parameter untouched.

use crate::sphere;
use crate::Optimizer;
use mars_tensor::ops;

/// Plain Riemannian SGD (Eq. 20): tangent projection + exponential map.
#[derive(Clone, Copy, Debug)]
pub struct RiemannianSgd {
    lr: f32,
}

impl RiemannianSgd {
    /// Creates the optimizer. `lr` must be positive and finite.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0 && lr.is_finite(), "invalid learning rate {lr}");
        Self { lr }
    }
}

impl Optimizer for RiemannianSgd {
    fn step(&self, param: &mut [f32], grad: &[f32]) {
        let mut tangent = grad.to_vec();
        self.step_buffered(param, grad, &mut tangent);
    }

    /// Allocation-free variant for the batched apply path: `tmp` holds the
    /// tangent vector.
    fn step_buffered(&self, param: &mut [f32], grad: &[f32], tmp: &mut [f32]) {
        debug_assert!(
            sphere::is_on_sphere(param, 1e-3),
            "RSGD parameter left the sphere before the step"
        );
        tmp.copy_from_slice(grad);
        sphere::project_to_tangent(param, tmp);
        ops::scale(tmp, -self.lr);
        sphere::exp_map(param, tmp);
    }

    fn lr(&self) -> f32 {
        self.lr
    }
}

/// Calibrated Riemannian SGD (Eq. 21).
#[derive(Clone, Copy, Debug)]
pub struct CalibratedRiemannianSgd {
    lr: f32,
}

impl CalibratedRiemannianSgd {
    /// Creates the optimizer. `lr` must be positive and finite.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0 && lr.is_finite(), "invalid learning rate {lr}");
        Self { lr }
    }

    /// The angular calibration multiplier `1 + xᵀ∇f/‖∇f‖ ∈ [0, 2]`.
    ///
    /// Exposed for tests and the optimizer microbench; returns 1 for a
    /// (numerically) zero gradient so the step is a clean no-op.
    pub fn calibration(param: &[f32], grad: &[f32]) -> f32 {
        let gnorm = ops::norm(grad);
        if gnorm <= 1e-12 {
            return 1.0;
        }
        (1.0 + ops::dot(param, grad) / gnorm).clamp(0.0, 2.0)
    }
}

impl Optimizer for CalibratedRiemannianSgd {
    fn step(&self, param: &mut [f32], grad: &[f32]) {
        let mut tangent = grad.to_vec();
        self.step_buffered(param, grad, &mut tangent);
    }

    /// Allocation-free variant for the batched apply path: `tmp` holds the
    /// tangent vector.
    fn step_buffered(&self, param: &mut [f32], grad: &[f32], tmp: &mut [f32]) {
        debug_assert!(
            sphere::is_on_sphere(param, 1e-3),
            "calibrated RSGD parameter left the sphere before the step"
        );
        let mult = Self::calibration(param, grad);
        tmp.copy_from_slice(grad);
        sphere::project_to_tangent(param, tmp);
        ops::scale(tmp, -self.lr * mult);
        sphere::retract(param, tmp);
    }

    fn lr(&self) -> f32 {
        self.lr
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mars_tensor::ops::{cosine, normalized};

    /// Maximizing cos(x, target) by descending f = −cos: the ambient
    /// gradient of the bilinear surrogate is −target.
    fn pull_grad(target: &[f32]) -> Vec<f32> {
        target.iter().map(|t| -t).collect()
    }

    #[test]
    fn rsgd_converges_to_target_direction() {
        let target = normalized(&[0.2, -0.7, 0.4, 0.5]);
        let mut x = normalized(&[1.0, 0.0, 0.0, 0.0]);
        let opt = RiemannianSgd::new(0.3);
        for _ in 0..300 {
            let g = pull_grad(&target);
            opt.step(&mut x, &g);
        }
        assert!(cosine(&x, &target) > 0.999, "cos={}", cosine(&x, &target));
    }

    #[test]
    fn calibrated_converges_to_target_direction() {
        // Note the threshold: near convergence the ×(1−cos) multiplier
        // vanishes, so the calibrated variant approaches the target
        // asymptotically rather than snapping onto it.
        let target = normalized(&[0.2, -0.7, 0.4, 0.5]);
        let mut x = normalized(&[1.0, 0.0, 0.0, 0.0]);
        let opt = CalibratedRiemannianSgd::new(0.3);
        for _ in 0..300 {
            let g = pull_grad(&target);
            opt.step(&mut x, &g);
        }
        assert!(cosine(&x, &target) > 0.99, "cos={}", cosine(&x, &target));
    }

    #[test]
    fn both_preserve_sphere_invariant() {
        let target = normalized(&[0.3, 0.3, -0.9]);
        for opt in [true, false] {
            let mut x = normalized(&[0.5, -0.5, 0.7]);
            for step in 0..100 {
                let g = pull_grad(&target);
                if opt {
                    CalibratedRiemannianSgd::new(0.5).step(&mut x, &g);
                } else {
                    RiemannianSgd::new(0.5).step(&mut x, &g);
                }
                assert!(
                    sphere::is_on_sphere(&x, 1e-4),
                    "left sphere at step {step} (calibrated={opt})"
                );
            }
        }
    }

    #[test]
    fn calibration_range_and_extremes() {
        let x = [1.0f32, 0.0];
        // Gradient pulling towards x itself (target = −x): multiplier 2.
        let away = [2.0f32, 0.0];
        assert!((CalibratedRiemannianSgd::calibration(&x, &away) - 2.0).abs() < 1e-6);
        // Gradient = −x (target = x, converged): multiplier 0.
        let converged = [-3.0f32, 0.0];
        assert!(CalibratedRiemannianSgd::calibration(&x, &converged).abs() < 1e-6);
        // Orthogonal gradient: multiplier 1.
        let ortho = [0.0f32, 5.0];
        assert!((CalibratedRiemannianSgd::calibration(&x, &ortho) - 1.0).abs() < 1e-6);
        // Zero gradient: defined as 1.
        assert_eq!(CalibratedRiemannianSgd::calibration(&x, &[0.0, 0.0]), 1.0);
    }

    #[test]
    fn far_parameters_take_larger_steps() {
        // Paper Figure 4: greater angular distance to target ⇒ larger step.
        let target = [0.0f32, 1.0];
        let near = normalized(&[0.2, 1.0]); // close to target
        let far = normalized(&[1.0, -0.2]); // > 90° away
        let g = pull_grad(&target);
        let opt = CalibratedRiemannianSgd::new(0.1);

        let mut near_after = near.clone();
        opt.step(&mut near_after, &g);
        let mut far_after = far.clone();
        opt.step(&mut far_after, &g);

        let near_moved = sphere::geodesic_distance(&near, &near_after);
        let far_moved = sphere::geodesic_distance(&far, &far_after);
        assert!(
            far_moved > near_moved,
            "far moved {far_moved}, near moved {near_moved}"
        );
    }

    #[test]
    fn converged_parameter_stops_moving() {
        // x == target: calibration 0 and tangent projection 0 ⇒ no motion.
        let x0 = normalized(&[0.6, 0.8]);
        let g = pull_grad(&x0);
        let mut x = x0.clone();
        CalibratedRiemannianSgd::new(1.0).step(&mut x, &g);
        assert!(sphere::geodesic_distance(&x0, &x) < 1e-4);
    }

    #[test]
    fn zero_gradient_is_noop() {
        let mut x = normalized(&[0.1, 0.9, 0.4]);
        let before = x.clone();
        CalibratedRiemannianSgd::new(0.5).step(&mut x, &[0.0; 3]);
        assert_eq!(x, before);
        RiemannianSgd::new(0.5).step(&mut x, &[0.0; 3]);
        for (a, b) in x.iter().zip(&before) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn calibrated_escapes_far_starts_faster() {
        // Figure 4's promise, measured where it applies: starting nearly
        // antipodal to the target (a near-saddle for plain RSGD, whose
        // tangent gradient almost vanishes there), the ×(1−cos) ≈ ×2
        // multiplier makes early progress strictly faster. (Near
        // convergence the same multiplier shrinks steps, so "fewer total
        // steps to ε" is *not* the claim.)
        let target = normalized(&[0.0, 1.0, 0.0]);
        let start = normalized(&[0.05, -1.0, 0.02]);
        let progress_after = |calibrated: bool, steps: usize| {
            let mut x = start.clone();
            for _ in 0..steps {
                let g = pull_grad(&target);
                if calibrated {
                    CalibratedRiemannianSgd::new(0.05).step(&mut x, &g);
                } else {
                    RiemannianSgd::new(0.05).step(&mut x, &g);
                }
            }
            cosine(&x, &target)
        };
        for steps in [10, 25, 50] {
            let plain = progress_after(false, steps);
            let cal = progress_after(true, steps);
            assert!(
                cal > plain,
                "after {steps} steps: calibrated {cal} vs plain {plain}"
            );
        }
    }
}
