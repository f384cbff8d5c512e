//! # mars-core
//!
//! Reproduction of the MAR / MARS multi-facet metric-learning recommender
//! (ICDE 2021), built around a batched, data-parallel training engine. The
//! crate is layered:
//!
//! * [`config::MarsConfig`] — one configuration struct covering MAR, MARS,
//!   the CML-equivalent `K=1` ablation, every component toggle the paper
//!   studies, and the execution-engine knobs (`batch_size`, `threads`,
//!   `prefetch`);
//! * [`kernels`] — facet-similarity and ambient-gradient kernels over flat
//!   `K × D` facet buffers (plus the reusable [`kernels::Scratch`]);
//! * [`loss`] — the push (Eq. 8/15), pull (Eq. 9/16) and facet-separating
//!   (Eq. 6/12) terms with their upstream coefficients;
//! * [`model::MultiFacetModel`] — parameters (the facet embeddings and the
//!   facet-weight logits), cross-facet similarity (Eq. 4 / Eq. 14), scoring,
//!   and the per-triplet **reference** update path;
//! * [`engine`] — the batched path: gradients for a mini-batch accumulate
//!   against frozen parameters in an [`engine::BatchAccum`] — one block per
//!   touched entity — and every touched entity takes one fused optimizer
//!   step over all its rows; numerically equivalent to the reference path
//!   at batch size 1 (`tests/grad_check.rs`);
//! * [`trainer::Trainer`] — the epoch loop wiring in adaptive margins
//!   (Eq. 7), explorative sampling (Eq. 10), dev-set tracking, and
//!   user-sharded data-parallel execution over a persistent worker pool
//!   with deterministic shard-order merging;
//! * [`analysis`] — the facet case-study machinery behind the paper's
//!   Figure 7 and Tables V/VI;
//! * [`io`] — seed-free binary persistence of trained models.
//!
//! ## Quick start
//!
//! ```
//! use mars_core::{MarsConfig, Trainer};
//! use mars_data::{SyntheticConfig, SyntheticDataset};
//! use mars_metrics::RankingEvaluator;
//!
//! // A small planted multi-facet dataset.
//! let data = SyntheticDataset::generate(
//!     "demo",
//!     &SyntheticConfig { num_users: 80, num_items: 60, num_interactions: 1500,
//!                        ..Default::default() },
//! );
//!
//! // Train MARS with K=2 facet spaces of dimension 16.
//! let mut cfg = MarsConfig::mars(2, 16);
//! cfg.epochs = 3;
//! let outcome = Trainer::new(cfg).fit(&data.dataset);
//!
//! // Evaluate with the paper's protocol (100 negatives, HR/nDCG@{10,20}).
//! let report = RankingEvaluator::paper().evaluate(&outcome.model, &data.dataset);
//! assert!(report.hr_at(10) > 0.0);
//! ```

// Indexed loops over parallel slices are deliberate in the numeric code
// (the math reads as subscripts); the lint is relaxed workspace-wide in
// the root Cargo.toml `[workspace.lints]` table.
//
// This crate is part of the deterministic numeric core: no unsafe
// anywhere (the vetted unsafe surface lives in mars-tensor::simd
// and mars-runtime; see `cargo run -p mars-audit -- check`).
#![forbid(unsafe_code)]

pub mod analysis;
pub mod config;
pub mod embedding;
pub mod engine;
pub mod io;
pub mod kernels;
pub mod loss;
pub mod model;
pub mod trainer;

pub use config::{Geometry, MarsConfig, NegativeSampling, OptimKind, UserSampling};
pub use engine::BatchAccum;
pub use kernels::Scratch;
pub use loss::{BatchLoss, TripletLoss};
pub use model::MultiFacetModel;
pub use trainer::{TrainOutcome, Trainer};
