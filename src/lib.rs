//! # mars-repro
//!
//! Umbrella crate for the MARS reproduction workspace. It re-exports the
//! individual crates so the examples and integration tests can depend on a
//! single package, and so downstream users can write `use mars_repro::core::…`
//! without wiring up every workspace member themselves.
//!
//! The interesting code lives in the member crates:
//!
//! * [`runtime`] — the shared execution substrate: persistent worker pool
//!   with shard-order scatter/merge, counter-based RNG.
//! * [`tensor`] — dense linear algebra substrate (vectors, matrices, fused
//!   row kernels, the tiered SIMD layer, PCA).
//! * [`data`] — implicit-feedback datasets, the synthetic multi-facet
//!   generator, the counter-keyed triplet batcher, samplers and
//!   leave-one-out splits.
//! * [`metrics`] — HR@K / nDCG@K, the 100-negative ranking protocol, and
//!   the beyond-accuracy metrics (coverage / Gini / diversity).
//! * [`optim`] — SGD and (calibrated) Riemannian SGD on the unit sphere,
//!   plus the direct-indexed mini-batch gradient accumulator
//!   ([`optim::GradAccumulator`]) behind the batched engines.
//! * [`core`] — the MAR / MARS models, losses, and the batched
//!   data-parallel trainer (per-triplet reference path kept selectable via
//!   `BatchMode::PerTriplet`).
//! * [`baselines`] — BPR, NMF, NeuMF, CML, MetricF, TransCF, LRML, SML;
//!   all ride the shared batch/accumulate engines.
//! * [`serve`] — the retrieval API: [`serve::RecQuery`] →
//!   [`serve::RecResponse`] top-k serving over any [`metrics::Scorer`],
//!   single-query (chunked scan + bounded-heap select, reusable scratch)
//!   or batched across the [`runtime`] worker pool — bit-identical to the
//!   full-sort reference at any chunk size and worker count.
//!
//! ## Serving quick start
//!
//! ```
//! use mars_repro::core::{MarsConfig, MultiFacetModel};
//! use mars_repro::serve::{RecQuery, Retriever};
//!
//! // (Train first in real code — this just shows the API shape.)
//! let model = MultiFacetModel::new(MarsConfig::mars(2, 8), 16, 100);
//! let retriever = Retriever::new(model, 100);
//! let seen = vec![3, 8, 21]; // sorted
//! let resp = retriever.retrieve(&RecQuery::top_k(7, 10).excluding(&seen));
//! assert_eq!(resp.len(), 10);
//! ```
//!
//! For serving under concurrent load, [`serve::service`] adds an async
//! front-end over the same surface: a bounded queue, a dispatcher that
//! coalesces waiting requests into one `retrieve_batch` micro-batch, and
//! an atomic snapshot hot-swap so a trainer can publish new model epochs
//! without pausing the serving loop (see `examples/live_serving.rs`).
//!
//! Engine throughput numbers live in the `BENCH_*.json` artifacts at the
//! workspace root (`training`, `eval`, `kernels`, `sampling`, `serving`,
//! `service`), each regenerated by its
//! `cargo bench -p mars-bench --bench <name>`.

pub use mars_baselines as baselines;
pub use mars_core as core;
pub use mars_data as data;
pub use mars_metrics as metrics;
pub use mars_optim as optim;
pub use mars_runtime as runtime;
pub use mars_serve as serve;
pub use mars_tensor as tensor;
