//! Plain stochastic gradient descent (with optional max-norm projection),
//! used by MAR and the Euclidean baselines.

use crate::Optimizer;
use mars_tensor::ops;

/// Vanilla SGD: `x ← x − η·g`, optionally followed by projection into the
/// unit ball (`‖x‖ ≤ max_norm`) — the constraint CML-style models apply
/// after every update.
#[derive(Clone, Copy, Debug)]
pub struct Sgd {
    lr: f32,
    /// `Some(r)` projects onto the ball of radius `r` after each step.
    max_norm: Option<f32>,
}

impl Sgd {
    /// Unconstrained SGD with learning rate `lr`.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0 && lr.is_finite(), "invalid learning rate {lr}");
        Self { lr, max_norm: None }
    }

    /// SGD with post-step projection into the ball of radius `max_norm`.
    pub fn with_max_norm(lr: f32, max_norm: f32) -> Self {
        assert!(lr > 0.0 && lr.is_finite(), "invalid learning rate {lr}");
        assert!(max_norm > 0.0, "invalid max norm {max_norm}");
        Self {
            lr,
            max_norm: Some(max_norm),
        }
    }
}

impl Optimizer for Sgd {
    fn step(&self, param: &mut [f32], grad: &[f32]) {
        ops::axpy(-self.lr, grad, param);
        if let Some(r) = self.max_norm {
            ops::clip_norm(param, r);
        }
    }

    fn lr(&self) -> f32 {
        self.lr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn descends_a_quadratic() {
        // f(x) = ‖x‖²/2, ∇f = x. Converges geometrically.
        let opt = Sgd::new(0.1);
        let mut x = vec![1.0f32, -2.0, 3.0];
        for _ in 0..200 {
            let g = x.clone();
            opt.step(&mut x, &g);
        }
        assert!(ops::norm(&x) < 1e-6);
    }

    #[test]
    fn single_step_formula() {
        let opt = Sgd::new(0.5);
        let mut x = vec![1.0, 2.0];
        opt.step(&mut x, &[2.0, -2.0]);
        assert_eq!(x, vec![0.0, 3.0]);
    }

    #[test]
    fn max_norm_projection_applies() {
        let opt = Sgd::with_max_norm(1.0, 1.0);
        let mut x = vec![0.9, 0.0];
        // Step pushes past the unit ball; projection pulls back.
        opt.step(&mut x, &[-2.0, 0.0]);
        assert!((ops::norm(&x) - 1.0).abs() < 1e-6);
        assert!(x[0] > 0.0);
    }

    #[test]
    #[should_panic(expected = "invalid learning rate")]
    fn rejects_bad_lr() {
        let _ = Sgd::new(-0.1);
    }

    #[test]
    fn lr_accessor() {
        assert_eq!(Sgd::new(0.01).lr(), 0.01);
    }
}
