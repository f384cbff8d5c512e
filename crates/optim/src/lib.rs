//! # mars-optim
//!
//! Optimizers for the MARS reproduction.
//!
//! MAR trains with plain (projected) SGD; MARS requires optimization *on*
//! the unit hypersphere `S^{D−1}`, which this crate provides in two
//! flavours:
//!
//! * [`riemannian::RiemannianSgd`] — textbook Riemannian SGD (Eq. 20 of the
//!   paper): project the ambient gradient onto the tangent space at the
//!   current point, step, and retract back to the sphere.
//! * [`riemannian::CalibratedRiemannianSgd`] — the paper's Eq. 21: the same
//!   tangent step scaled by the angular calibration multiplier
//!   `1 + xᵀ∇f/‖∇f‖`, so parameters far (in angle) from the direction the
//!   loss pulls them towards take proportionally larger steps.
//!
//! [`sphere`] holds the manifold primitives (tangent projection, retraction,
//! exponential map) with the geometric identities tested directly.

// This crate is part of the deterministic numeric core: no unsafe
// anywhere (the vetted unsafe surface lives in mars-tensor::simd
// and mars-runtime; see `cargo run -p mars-audit -- check`).
#![forbid(unsafe_code)]
pub mod accum;
pub mod sgd;
pub mod sphere;

pub mod riemannian;

pub use accum::GradAccumulator;
pub use riemannian::{CalibratedRiemannianSgd, RiemannianSgd};
pub use sgd::Sgd;

/// A first-order optimizer over a single parameter vector.
///
/// The trainers in `mars-core`/`mars-baselines` apply per-row updates to
/// embedding tables, so the interface is a single `step` on a slice; state
/// (the learning rate) lives in the optimizer.
///
/// The batched engines stage gradients in a [`GradAccumulator`] and step
/// each touched row once with its *summed* gradient — through
/// [`Optimizer::step_buffered`] row by row, or through the fused multi-row
/// kernels in `mars_tensor::simd` that implement the same update rules
/// (asserted equivalent in `tests/fused_step.rs`). Geometry is preserved
/// per row either way: the Riemannian variants tangent-project and
/// calibrate the accumulated gradient at the row's current position, so a
/// batch of size 1 reproduces the immediate per-triplet step.
pub trait Optimizer {
    /// Updates `param` in place given the gradient of the loss at `param`.
    fn step(&self, param: &mut [f32], grad: &[f32]);

    /// Current learning rate.
    fn lr(&self) -> f32;

    /// [`Optimizer::step`] with caller-provided scratch of the same length,
    /// letting implementations avoid per-step allocation. The default
    /// ignores the scratch.
    fn step_buffered(&self, param: &mut [f32], grad: &[f32], tmp: &mut [f32]) {
        let _ = tmp;
        self.step(param, grad);
    }
}
