//! # mars-tensor
//!
//! A small, dependency-light dense linear-algebra substrate used by the MARS
//! reproduction. The models in the paper are shallow — bilinear projections,
//! Euclidean / cosine similarities and rank-1 gradient updates — so rather
//! than pulling in a deep-learning framework we provide exactly the kernels
//! the models need, over plain `f32` slices and a row-major [`Matrix`].
//!
//! Design notes (following the Rust performance-book guidance the project
//! adopts):
//!
//! * All hot kernels operate on `&[f32]` / `&mut [f32]` so embedding tables
//!   can be stored as one flat allocation and sliced per row — no per-row
//!   boxing, no bounds checks inside the loops (we iterate, not index).
//! * The hot reductions and `axpy` have a single explicitly vectorized
//!   definition in [`simd`] (runtime-dispatched AVX2/FMA with a
//!   lane-chunked portable fallback); [`ops`] and [`rows`] forward to it,
//!   so every entry point shares one float semantics (see the [`simd`]
//!   module docs for the summation-order / determinism contract).
//! * Everything is deterministic given a seed: initializers take an explicit
//!   [`rand::Rng`], and nothing reads global state.
//! * Numerical helpers ([`ops::cosine`], [`nonlin::softmax`], …) are written
//!   to be safe at the edges (zero vectors, large logits) because training
//!   loops will hit those edges.
//!
//! The crate also hosts the PCA routine ([`pca::Pca`]) used to regenerate the
//! paper's Figure 7 embedding visualisations.

pub mod init;
pub mod kmeans;
pub mod matrix;
pub mod nonlin;
pub mod ops;
pub mod pca;
pub mod rows;
pub mod simd;

pub use matrix::Matrix;
pub use pca::Pca;

/// Tolerance used across the workspace when comparing floats in tests and
/// when asserting the unit-sphere invariant after Riemannian updates.
pub const EPS: f32 = 1e-5;
