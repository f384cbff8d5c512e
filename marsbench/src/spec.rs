//! The frozen definition of the benchmark: workloads, operation counts,
//! open-loop rates, quality floors, and every metric name with its unit.
//!
//! `BENCHMARK.json` at the repository root carries the part the driver
//! reads (workload names, end-to-end bounds, per-layer names); everything
//! else a later issue may refer to by name is a constant here, identical
//! on every commit. `tests/marsbench_smoke.rs` asserts the two agree.

use mars_core::MarsConfig;
use mars_serve::{IvfConfig, ServiceConfig};
use std::time::Duration;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 7;
/// Run length used when `--seconds` is not given (`run_seconds` in
/// `BENCHMARK.json`).
pub const DEFAULT_SECONDS: f64 = 30.0;

/// Items returned by a plain request.
pub const K: usize = 10;
/// Seeded seen-items per user (sorted, excluded from every answer).
pub const SEEN_PER_USER: usize = 40;
/// Distinct pre-generated requests a load loop cycles through.
pub const REQUEST_POOL: usize = 8_192;
/// Every n-th service response is kept and compared bit-for-bit with a
/// direct `Retriever::retrieve` on the same snapshot.
pub const SPOT_CHECK_EVERY: usize = 16;
/// `mar_churn`: client 0 publishes before every n-th of its requests.
pub const PUBLISH_EVERY: usize = 64;
/// `mar_churn`: size of a shortlist request's candidate set, and how many
/// distinct seeded candidate sets the request pool shares.
pub const SHORTLIST_ITEMS: usize = 500;
pub const SHORTLIST_SETS: usize = 64;
/// Seeded `(user, item)` pairs on which a loaded snapshot must score
/// bit-equal to the trained model.
pub const SNAPSHOT_CHECK_PAIRS: usize = 1_024;
/// Queries on which IVF at `nprobe = cells` must equal the exact scan.
pub const FULL_PROBE_QUERIES: usize = 32;
/// Service batching knobs, the same on every workload.
pub const MAX_BATCH: usize = 32;
pub const MAX_WAIT: Duration = Duration::from_micros(200);
/// The service every workload starts: the knobs above, all cores, and the
/// crate's defaults for the rest (no deadline, no shedding).
pub fn service_config() -> ServiceConfig {
    ServiceConfig {
        max_batch: MAX_BATCH,
        max_wait: MAX_WAIT,
        threads: 0,
        ..ServiceConfig::default()
    }
}

/// Requests each closed-loop client sends per repetition; repetition 0 is
/// the warm-up and is not counted.
pub const CLOSED_REQUESTS_PER_CLIENT: usize = 200;
/// What the fits leave of the run is cut into this many rounds; every
/// repeated phase works a share of each round (see `pipeline::run`).
pub const ROUNDS: usize = 6;
/// The open loop runs in windows of at least this many arrivals (at most
/// one per round), so every per-window p99 has ten samples beyond it; the
/// reported p99 is the median of the per-window p99s.
pub const MIN_SEGMENT_SAMPLES: usize = 1_000;
/// Set-up (dataset + request + schedule generation) is repeated this many
/// times per run and `setup_s` is the median.
pub const SETUP_REPS: usize = 5;

/// Shares of the time left after the two fits that each repeated phase
/// may use; they sum to 1. Repetitions are fixed-size, so a phase's
/// reported median does not depend on how many of them fit.
pub const SHARE_EVAL: f64 = 0.06;
pub const SHARE_PUBLISH: f64 = 0.14;
pub const SHARE_EXACT: f64 = 0.10;
pub const SHARE_IVF: f64 = 0.10;
pub const SHARE_CLOSED: f64 = 0.20;
pub const SHARE_OPEN: f64 = 0.40;

/// Nominal operation counts behind `pipeline_s`: the time one pass of the
/// pipeline takes at the measured median rates — both fits, one evaluation
/// pass, one publish, and this many direct queries (exact and IVF each)
/// and served requests.
pub const NOMINAL_QUERIES: f64 = 2_000.0;
pub const NOMINAL_REQUESTS: f64 = 10_000.0;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes every recorded number refers to.
    Full,
    /// Tiny shapes for the smoke test: exercises every code path and
    /// check, measures nothing worth recording, skips the quality floors.
    Smoke,
}

impl Scale {
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Model {
    /// Spherical facets, calibrated Riemannian SGD.
    Mars { facets: usize, dim: usize },
    /// Euclidean facets, plain SGD.
    Mar { facets: usize, dim: usize },
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rung {
    /// The service answers from the exact catalogue scan.
    Exact,
    /// The service answers through the IVF `ExactRescore` retriever.
    Ivf,
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub users: usize,
    pub items: usize,
    pub interactions: usize,
    pub epochs: usize,
    pub model: Model,
    pub rung: Rung,
    /// Snapshot swaps beside reads and the mixed request shapes.
    pub churn: bool,
    /// Open-loop arrival rate, absolute and frozen (≈ 0.45 × the closed
    /// loop's `serve_qps` on the reference container, two digits).
    pub open_rate_qps: f64,
    /// Queries per direct-retrieval repetition.
    pub queries_per_rep: usize,
    pub hr10_floor: f64,
    pub recall10_floor: f64,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "dense",
        why: "ML-1M-shaped 3000x2000x200k, MARS K=4 D=32, exact rung: training dominates, head items repeat inside a batch, a served request is almost all queue/dispatch overhead",
        users: 3_000,
        items: 2_000,
        interactions: 200_000,
        epochs: 3,
        model: Model::Mars { facets: 4, dim: 32 },
        rung: Rung::Exact,
        churn: false,
        open_rate_qps: 1_400.0,
        queries_per_rep: 512,
        hr10_floor: 0.17,
        recall10_floor: 0.90,
    },
    Workload {
        name: "wide",
        why: "Lastfm/BookX-shaped 3000x30000x240k, MARS K=4 D=32, IVF rung: embedding table exceeds cache and rows rarely repeat, so gathers, scans, k-means and the index do the work",
        users: 3_000,
        items: 30_000,
        interactions: 240_000,
        epochs: 3,
        model: Model::Mars { facets: 4, dim: 32 },
        rung: Rung::Ivf,
        churn: false,
        open_rate_qps: 730.0,
        queries_per_rep: 128,
        hr10_floor: 0.12,
        recall10_floor: 0.82,
    },
    Workload {
        name: "mar_churn",
        why: "4000x12000x150k, MAR K=2 D=64 (dist_sq + plain SGD), exact rung with a publish before every 64th request and top-10/top-50/shortlist mix: same layers used differently",
        users: 4_000,
        items: 12_000,
        interactions: 150_000,
        epochs: 6,
        model: Model::Mar { facets: 2, dim: 64 },
        rung: Rung::Exact,
        churn: true,
        open_rate_qps: 990.0,
        queries_per_rep: 256,
        hr10_floor: 0.25,
        recall10_floor: 0.70,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The same workload at `scale` (identity at full scale).
    pub fn at(mut self, scale: Scale) -> Workload {
        if scale == Scale::Smoke {
            self.users = 240;
            self.items = if self.items > 10_000 { 1_200 } else { 600 };
            self.interactions = 6_000;
            self.epochs = 1;
            self.open_rate_qps = 400.0;
            self.queries_per_rep = 32;
            self.hr10_floor = 0.0;
            self.recall10_floor = 0.0;
        }
        self
    }

    /// Training configuration: paper defaults (batch 1000, 4 uniform
    /// negatives per positive, explorative user sampling) with the
    /// workload's model, epochs and `threads`.
    pub fn model_config(&self, threads: usize) -> MarsConfig {
        let mut cfg = match self.model {
            Model::Mars { facets, dim } => MarsConfig::mars(facets, dim),
            Model::Mar { facets, dim } => MarsConfig::mar(facets, dim),
        };
        cfg.epochs = self.epochs;
        cfg.threads = threads;
        cfg
    }

    pub fn is_spherical(&self) -> bool {
        matches!(self.model, Model::Mars { .. })
    }

    /// The index every workload builds at publish time.
    pub fn ivf_config(&self) -> IvfConfig {
        IvfConfig::default()
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric: its name, unit, and which way is better.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload reports every one.
#[rustfmt::skip]
pub const END_TO_END: [MetricDef; 14] = [
    m("setup_s", "s", Lower),
    m("fit_triplets_per_s", "1/s", Higher),
    m("fit_par_triplets_per_s", "1/s", Higher),
    m("eval_pairs_per_s", "1/s", Higher),
    m("hr10", "ratio", Higher),
    m("ndcg10", "ratio", Higher),
    m("publish_ms", "ms", Lower),
    m("exact_qps", "1/s", Higher),
    m("ivf_qps", "1/s", Higher),
    m("ivf_recall10", "ratio", Higher),
    m("serve_qps", "1/s", Higher),
    m("serve_p50_ms", "ms", Lower),
    m("serve_ok_share", "ratio", Higher),
    m("pipeline_s", "s", Lower),
];

/// One per-layer metric (layer = crate.module) with the end-to-end metric
/// it should move and the workload on which it should move it most.
#[derive(Clone, Copy, Debug)]
pub struct LayerMetricDef {
    pub def: MetricDef,
    pub moves: &'static str,
    pub most_on: &'static str,
}

const fn l(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
    most_on: &'static str,
) -> LayerMetricDef {
    LayerMetricDef {
        def: m(name, unit, better),
        moves,
        most_on,
    }
}

/// Measured by the `--trace 1` run only.
#[rustfmt::skip]
pub const PER_LAYER: [LayerMetricDef; 42] = [
    l("runtime.pool.scatter_ns", "ns", Lower, "fit_par_triplets_per_s, exact_qps", "dense"),
    l("runtime.oneshot.roundtrip_ns", "ns", Lower, "serve_qps, serve_p50_ms", "dense"),
    l("runtime.rng.fill_ns_per_word", "ns", Lower, "fit_triplets_per_s", "dense"),
    l("tensor.simd.dot_rows_ns_per_row", "ns", Lower, "exact_qps, eval_pairs_per_s", "wide"),
    l("tensor.simd.dist_sq_rows_ns_per_row", "ns", Lower, "exact_qps, eval_pairs_per_s", "mar_churn"),
    l("tensor.simd.axpy_rows_ns_per_row", "ns", Lower, "fit_triplets_per_s", "wide"),
    l("tensor.kmeans.fit_ms", "ms", Lower, "publish_ms", "wide"),
    l("data.batch.fill_ns_per_triplet", "ns", Lower, "fit_triplets_per_s", "dense"),
    l("data.batch.fill_pop_ns_per_triplet", "ns", Lower, "none (popularity sampler, layer only)", "dense"),
    l("data.batch.sampling_share", "ratio", Lower, "fit_triplets_per_s", "dense"),
    l("core.engine.accumulate_ns_per_triplet", "ns", Lower, "fit_triplets_per_s", "wide"),
    l("core.engine.finish_ns_per_triplet", "ns", Lower, "fit_triplets_per_s", "dense"),
    l("core.engine.rows_per_triplet", "ratio", Lower, "fit_triplets_per_s", "wide"),
    l("core.engine.merge_ns_per_triplet", "ns", Lower, "fit_par_triplets_per_s", "wide"),
    l("core.trainer.par_speedup", "ratio", Higher, "fit_par_triplets_per_s", "wide"),
    l("core.trainer.batch_ns", "ns", Lower, "consistency, not a target", "all"),
    l("core.trainer.stage_sum_ratio", "ratio", Higher, "consistency, not a target", "all"),
    l("core.io.save_ms", "ms", Lower, "publish_ms", "dense"),
    l("core.io.load_ms", "ms", Lower, "publish_ms", "dense"),
    l("core.io.crc_mb_per_s", "MB/s", Higher, "publish_ms", "dense"),
    l("core.io.snapshot_bytes", "count", Lower, "publish_ms", "dense"),
    l("metrics.protocol.eval_ns_per_pair", "ns", Lower, "eval_pairs_per_s", "all"),
    l("metrics.protocol.score_ns_per_pair", "ns", Lower, "eval_pairs_per_s", "all"),
    l("serve.retriever.scan_ns_per_item", "ns", Lower, "exact_qps; serve_* on mar_churn", "wide"),
    l("serve.retriever.score_ns_per_item", "ns", Lower, "exact_qps; serve_* on mar_churn", "wide"),
    l("serve.topk.select_ns_per_item", "ns", Lower, "exact_qps", "wide"),
    l("serve.retriever.batch_speedup", "ratio", Higher, "exact_qps", "wide"),
    l("serve.index.build_ms", "ms", Lower, "publish_ms, ivf_qps", "wide"),
    l("serve.index.query_us", "us", Lower, "ivf_qps; serve_* on wide", "wide"),
    l("serve.index.coarse_query_us", "us", Lower, "ivf_qps (gap to query_us = rescore cost)", "wide"),
    l("serve.index.recall10", "ratio", Higher, "ivf_recall10", "wide"),
    l("serve.service.overhead_us", "us", Lower, "serve_qps, serve_p50_ms", "dense"),
    l("serve.service.mean_batch", "count", Higher, "serve_qps", "dense"),
    l("serve.service.publish_ns", "ns", Lower, "serve_p50_ms and the ungated p99", "mar_churn"),
    l("serve.service.open_p99_ms", "ms", Lower, "none: too noisy on a shared 2-vCPU box to gate (see README); the tail beside serve_p50_ms", "dense"),
    l("serve.service.gen_late_p50_us", "us", Lower, "serve_p50_ms (load generator, not the program)", "all"),
    l("serve.service.shed_share", "ratio", Lower, "robustness counter, no target yet", "all"),
    l("serve.service.deadline_drop_share", "ratio", Lower, "robustness counter, no target yet", "all"),
    l("serve.service.degraded_share", "ratio", Lower, "robustness counter, no target yet", "all"),
    l("serve.service.guarded_p99_ms", "ms", Lower, "robustness counter, no target yet", "all"),
    l("trace.overhead_share", "ratio", Lower, "cost of tracing itself", "all"),
    l("trace.spans", "count", Lower, "size of trace.jsonl", "all"),
];
