//! Shared configuration, the training interface all baselines implement,
//! and the **batch/accumulate triplet engine** the pairwise models train
//! on — the same execution model as `mars-core`'s batched trainer, so the
//! paper's baseline-table comparisons exercise identical machinery.

use mars_data::batch::{FillMode, Triplet, TripletBatcher, TripletStream};
use mars_data::dataset::Dataset;
use mars_data::sampler::{UniformNegativeSampler, UserSampler};
use mars_metrics::Scorer;
use mars_optim::GradAccumulator;
use mars_runtime::rng::seeds;
use mars_runtime::{shard_items, WorkerPool};

/// Hyperparameters shared by the baselines. Model-specific knobs (memory
/// slots for LRML, tower widths for NeuMF, …) live on the model structs with
/// documented defaults.
#[derive(Clone, Debug)]
pub struct BaselineConfig {
    /// Embedding dimension.
    pub dim: usize,
    /// Learning rate.
    pub lr: f32,
    /// Training epochs (one epoch ≈ one pass over the interactions).
    pub epochs: usize,
    /// Triplets / samples per batch. For models on the shared triplet
    /// engine this is the gradient-accumulation window; for the rest it
    /// controls epoch granularity.
    pub batch_size: usize,
    /// Hinge margin where applicable.
    pub margin: f32,
    /// Negatives per positive for the pointwise models (NeuMF, MetricF).
    pub negatives_per_positive: usize,
    /// Worker threads for the shared engines (shard-by-user); `0` = all
    /// cores, `1` = serial.
    pub threads: usize,
    /// Draw batch `b + 1` on a background thread while batch `b` trains
    /// (identical triplet stream either way — batches are pure functions of
    /// `(seed, index)`). Off = fill inline, fanned across the worker pool.
    pub prefetch: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        Self {
            dim: 32,
            lr: 0.05,
            epochs: 20,
            batch_size: 512,
            margin: 0.5,
            negatives_per_positive: 4,
            threads: 1,
            prefetch: true,
            seed: 42,
        }
    }
}

impl BaselineConfig {
    /// Quick-run settings for tests.
    // audit:allow(orphan-pub) — test support: the baselines' unit and suite tests
    pub fn quick(dim: usize) -> Self {
        Self {
            dim,
            epochs: 5,
            batch_size: 256,
            ..Self::default()
        }
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.dim == 0 {
            return Err("dim must be ≥ 1".into());
        }
        if !(self.lr > 0.0 && self.lr.is_finite()) {
            return Err(format!("invalid lr {}", self.lr));
        }
        if self.batch_size == 0 {
            return Err("batch_size must be ≥ 1".into());
        }
        if self.negatives_per_positive == 0 {
            return Err("negatives_per_positive must be ≥ 1".into());
        }
        Ok(())
    }
}

/// A recommender trainable from implicit feedback. All baselines implement
/// this plus [`Scorer`], so the harness treats them uniformly.
pub trait ImplicitRecommender: Scorer {
    /// Trains on the dataset's train split.
    fn fit(&mut self, data: &Dataset);

    /// Model display name (matches the paper's tables).
    fn name(&self) -> &'static str;
}

// ---------------------------------------------------------------------------
// Shared batch/accumulate triplet engine
// ---------------------------------------------------------------------------

/// A pairwise model trainable by [`fit_triplets`]: it exposes per-triplet
/// *ascent updates* (the quantity added as `row += lr · upd`, matching the
/// reference implementations' update conventions) and constraint-aware
/// appliers for user and item rows.
pub trait TripletUpdate: Scorer + Sync {
    /// Embedding dimension (update-row length).
    fn dim(&self) -> usize;

    /// Called once at the start of every epoch, before any triplet of that
    /// epoch is drawn. Models with epoch-scoped caches (TransCF's lazy
    /// neighbourhood means) refresh them here; the default is a no-op.
    fn begin_epoch(&mut self, _data: &Dataset) {}

    /// Writes the updates for `t` against the **current** parameters into
    /// `up` / `ui` / `uj` (user / positive / negative rows). Returns `false`
    /// when the example is inactive (e.g. hinge satisfied) and stages
    /// nothing.
    fn triplet_update(&self, t: Triplet, up: &mut [f32], ui: &mut [f32], uj: &mut [f32]) -> bool;

    /// Updates any *side parameters* — parameters outside the user/item
    /// embedding rows, such as SML's learnable per-user / per-item margins
    /// or LRML's relation memory and attention keys — for one triplet. The
    /// engine calls it once per triplet, in **original batch order**,
    /// against the same embedding rows `triplet_update` saw, before the row
    /// applies of the batch. Side updates may cascade within a batch (they
    /// touch no embedding row, so the frozen-parameter contract of the row
    /// accumulation is unaffected). Models without side parameters keep the
    /// default no-op.
    fn side_update(&mut self, _t: Triplet) {}

    /// Applies an update to user row `u` (plus any projection/constraint).
    fn apply_user(&mut self, u: usize, lr: f32, upd: &[f32]);

    /// Applies an update to item row `v` (plus any projection/constraint).
    fn apply_item(&mut self, v: usize, lr: f32, upd: &[f32]);
}

const ROW_USER: usize = 0;
const ROW_ITEM: usize = 1;

/// Accumulator key of a user or item row: dense, so the accumulator's
/// direct index stays twice the larger table.
#[inline]
fn row_key(kind: usize, row: usize) -> usize {
    (row << 1) | kind
}

/// The engines' shared batch source: a counter-keyed [`TripletBatcher`]
/// over uniform user/negative sampling, seeded by the workspace convention
/// ([`seeds::sampling`]). Batch `b` is a pure function of `(seed, b)`, so
/// prefetching and pool-parallel fills produce the identical stream (see
/// the `mars-data::batch` module docs).
fn make_batcher(
    x: &mars_data::Interactions,
    slots: usize,
    negatives_per_slot: usize,
    seed: u64,
) -> TripletBatcher<UniformNegativeSampler> {
    // Every baseline engine funnels through here: route the counter-stream
    // fills through the vectorized splitmix64 kernel (bit-identical to the
    // scalar fallback — pure throughput).
    mars_tensor::simd::install_rng_kernel();
    TripletBatcher::with_negatives(
        UserSampler::uniform(x),
        UniformNegativeSampler,
        slots,
        negatives_per_slot,
        seeds::sampling(seed),
    )
}

/// Trains `model` on the dataset's train split with the shared engine:
/// counter-keyed uniform user/negative sampling into [`TripletBatcher`]
/// batches (prefetched on a background thread per
/// [`BaselineConfig::prefetch`], else filled inline across the pool);
/// updates accumulate per row over the batch against frozen parameters and
/// each touched row is applied once (first-touch order). With `threads > 1`
/// each batch is sharded by user across a persistent
/// [`mars_runtime::WorkerPool`] (created once for the whole fit, no
/// per-batch spawn/join) and shard accumulators merge in shard order, so
/// training stays deterministic for a fixed seed — at **any** thread count
/// for the sampling, and per thread count for the float merges.
pub fn fit_triplets<M: TripletUpdate>(model: &mut M, data: &Dataset, cfg: &BaselineConfig) {
    let x = &data.train;
    if x.num_interactions() == 0 {
        return;
    }
    let batcher = make_batcher(x, cfg.batch_size, 1, cfg.seed);
    let batches = batcher.batches_per_epoch(x);
    let lr = cfg.lr;
    let dim = model.dim();

    let pool = WorkerPool::with_threads(cfg.threads);
    let threads = pool.workers();

    // Per-worker state: triplet slice + update scratch + accumulator, all
    // reused across batches.
    struct Shard {
        buf: Vec<Triplet>,
        up: Vec<f32>,
        ui: Vec<f32>,
        uj: Vec<f32>,
        acc: GradAccumulator,
    }
    let mut shards: Vec<Shard> = (0..threads)
        .map(|_| Shard {
            buf: Vec::new(),
            up: vec![0.0; dim],
            ui: vec![0.0; dim],
            uj: vec![0.0; dim],
            acc: GradAccumulator::new(dim),
        })
        .collect();
    let mut merged = GradAccumulator::new(dim);

    std::thread::scope(|scope| {
        // With prefetch the pool is free during the fill, so it is reserved
        // for the gradient scatter; without it the fill itself fans across
        // the pool between scatters.
        let mode = if cfg.prefetch {
            FillMode::Prefetch
        } else {
            FillMode::Pool(&pool)
        };
        let mut stream = TripletStream::spawn(scope, x, batcher, mode);
        for _ in 0..cfg.epochs {
            model.begin_epoch(data);
            for _ in 0..batches {
                if threads <= 1 {
                    let batch = stream.next_batch().triplets();
                    let Shard {
                        up, ui, uj, acc, ..
                    } = &mut shards[0];
                    acc.clear();
                    accumulate_shard(model, batch, up, ui, uj, acc);
                    // Side parameters update serially in batch order against
                    // the frozen rows, then the rows apply.
                    for &t in batch {
                        model.side_update(t);
                    }
                    apply_accumulated(model, acc, lr);
                } else {
                    let batch = stream.next_batch().triplets();
                    shard_items(batch, shards.iter_mut().map(|s| &mut s.buf), |t| {
                        t.user as usize
                    });
                    let frozen: &M = model;
                    pool.scatter(&mut shards, |_, sh| {
                        sh.acc.clear();
                        accumulate_shard(
                            frozen,
                            &sh.buf,
                            &mut sh.up,
                            &mut sh.ui,
                            &mut sh.uj,
                            &mut sh.acc,
                        );
                    });
                    // Side parameters update in *original batch order* (not
                    // shard order), so they are identical at every thread
                    // count.
                    for &t in batch {
                        model.side_update(t);
                    }
                    // Deterministic merge: fixed shard order.
                    merged.clear();
                    for sh in &shards {
                        merged.merge_from(&sh.acc);
                    }
                    apply_accumulated(model, &mut merged, lr);
                }
            }
        }
    });
}

// ---------------------------------------------------------------------------
// Shared pointwise engine (the triplet engine's twin)
// ---------------------------------------------------------------------------

/// A pointwise model trainable by [`fit_pointwise`]: it consumes labelled
/// `(user, item, label)` samples one at a time (the training protocol of
/// NeuMF and MetricF, whose updates are inherently sequential — shared MLP
/// towers, immediate ball projections). The engine owns everything around
/// the step: the counter-keyed sampling pipeline, the worker pool that
/// parallelizes the pre-draw, the prefetch overlap, and the epoch schedule.
pub trait PointwiseUpdate: Scorer {
    /// Called once at the start of every epoch, before any sample of that
    /// epoch is drawn. The default is a no-op.
    fn begin_epoch(&mut self, _data: &Dataset) {}

    /// One SGD step on the labelled pair (`label` 1 = observed positive,
    /// 0 = sampled negative).
    fn pointwise_step(&mut self, user: usize, item: usize, label: f32);
}

/// Trains `model` with the shared pointwise engine — the same counter-keyed
/// batcher/pool/prefetch plumbing as [`fit_triplets`], reshaped: each slot
/// draws one user, one positive and [`BaselineConfig::negatives_per_positive`]
/// negatives, and the model steps on the positive (label 1) then each
/// negative (label 0) in slot order — the sample order of the bespoke
/// per-sample loops this engine replaced. Sampling is bit-identical at any
/// worker count and with prefetch on or off; the updates themselves run
/// serially (pointwise models share non-row parameters such as MLP towers).
pub fn fit_pointwise<M: PointwiseUpdate>(model: &mut M, data: &Dataset, cfg: &BaselineConfig) {
    let x = &data.train;
    if x.num_interactions() == 0 {
        return;
    }
    let k = cfg.negatives_per_positive;
    let slots = (cfg.batch_size / k).max(1);
    let batcher = make_batcher(x, slots, k, cfg.seed);
    let batches = batcher.batches_per_epoch(x);
    // The updates are serial, so the pool only ever fills batches — don't
    // spawn its workers when the prefetch thread does the filling instead.
    let pool = (!cfg.prefetch).then(|| WorkerPool::with_threads(cfg.threads));
    std::thread::scope(|scope| {
        let mode = match &pool {
            None => FillMode::Prefetch,
            Some(pool) => FillMode::Pool(pool),
        };
        let mut stream = TripletStream::spawn(scope, x, batcher, mode);
        for _ in 0..cfg.epochs {
            model.begin_epoch(data);
            for _ in 0..batches {
                for slot in stream.next_batch().slots() {
                    let first = slot[0];
                    model.pointwise_step(first.user as usize, first.positive as usize, 1.0);
                    for t in slot {
                        model.pointwise_step(t.user as usize, t.negative as usize, 0.0);
                    }
                }
            }
        }
    });
}

/// Runs `f` with a thread-local scratch buffer — the gather block
/// [`fused_score_block`] reuses across calls, so the batched evaluator's
/// hot path stays allocation-free per pair (evaluation worker threads are
/// persistent, so the buffers amortize across the whole run).
fn with_block_scratch<R>(f: impl FnOnce(&mut Vec<f32>) -> R) -> R {
    thread_local! {
        static BLOCK: std::cell::RefCell<Vec<f32>> = const { std::cell::RefCell::new(Vec::new()) };
    }
    BLOCK.with(|b| f(&mut b.borrow_mut()))
}

/// Row kernel a [`fused_score_block`] call scores with.
pub(crate) enum BlockKernel {
    /// `user · item` (inner-product models: BPR).
    Dot,
    /// `−‖user − item‖²` (metric models: CML, SML).
    NegDistSq,
}

/// The shared batched-scoring path behind the baselines' `score_block`
/// overrides: gather the candidate rows into a reusable thread-local block,
/// then one fused one-vs-rows kernel pass. Bit-identical to the per-item
/// `score` loop — the kernels call the same `ops` primitives on the same
/// values, and negation of identical values is identical.
pub(crate) fn fused_score_block(
    kernel: BlockKernel,
    user_row: &[f32],
    item_table: &[f32],
    dim: usize,
    items: &[mars_data::ItemId],
    out: &mut Vec<f32>,
) {
    with_block_scratch(|block| {
        mars_tensor::rows::gather_rows(item_table, dim, items.iter().map(|&v| v as usize), block);
        out.clear();
        out.resize(items.len(), 0.0);
        match kernel {
            BlockKernel::Dot => mars_tensor::rows::dot_one_rows(user_row, block, out),
            BlockKernel::NegDistSq => {
                mars_tensor::rows::dist_sq_one_rows(user_row, block, out);
                for s in out.iter_mut() {
                    *s = -*s;
                }
            }
        }
    });
}

fn accumulate_shard<M: TripletUpdate>(
    model: &M,
    batch: &[Triplet],
    up: &mut [f32],
    ui: &mut [f32],
    uj: &mut [f32],
    acc: &mut GradAccumulator,
) {
    for &t in batch {
        if model.triplet_update(t, up, ui, uj) {
            acc.add(row_key(ROW_USER, t.user as usize), up);
            acc.add(row_key(ROW_ITEM, t.positive as usize), ui);
            acc.add(row_key(ROW_ITEM, t.negative as usize), uj);
        }
    }
}

fn apply_accumulated<M: TripletUpdate>(model: &mut M, acc: &mut GradAccumulator, lr: f32) {
    acc.drain(|key, upd| {
        let row = key >> 1;
        if key & 1 == ROW_USER {
            model.apply_user(row, lr, upd);
        } else {
            model.apply_item(row, lr, upd);
        }
    });
}

/// Shared helpers for the per-model unit tests (compiled only for tests).
#[cfg(test)]
pub mod tests_support {
    use super::ImplicitRecommender;
    use mars_data::dataset::Dataset;
    use mars_data::{SyntheticConfig, SyntheticDataset};
    use mars_metrics::RankingEvaluator;

    /// A small planted multi-facet dataset every baseline trains on in
    /// seconds.
    pub fn tiny_dataset() -> Dataset {
        SyntheticDataset::generate(
            "baseline-test",
            &SyntheticConfig {
                num_users: 60,
                num_items: 50,
                num_interactions: 1500,
                num_categories: 3,
                dirichlet_alpha: 0.3,
                seed: 77,
                ..Default::default()
            },
        )
        .dataset
    }

    /// Asserts that training strictly improves test HR@10 over the
    /// untrained initialization — the basic sanity check every model must
    /// pass.
    pub fn improves_over_untrained<M: ImplicitRecommender + Sync>(
        make: impl Fn() -> M,
        data: &Dataset,
    ) {
        let ev = RankingEvaluator::paper();
        let untrained = make();
        let before = ev.evaluate(&untrained, data).hr_at(10);
        let mut model = make();
        model.fit(data);
        let after = ev.evaluate(&model, data).hr_at(10);
        assert!(
            after > before,
            "{}: training should improve HR@10 ({before} → {after})",
            model.name()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bpr::Bpr;
    use tests_support::tiny_dataset;

    #[test]
    fn default_config_validates() {
        assert!(BaselineConfig::default().validate().is_ok());
        assert!(BaselineConfig::quick(16).validate().is_ok());
    }

    fn scores(model: &impl Scorer, n_users: u32, n_items: u32) -> Vec<f32> {
        (0..n_users)
            .flat_map(|u| (0..n_items).map(move |v| (u, v)))
            .map(|(u, v)| model.score(u, v))
            .collect()
    }

    #[test]
    fn engine_is_deterministic_per_mode_and_thread_count() {
        // Both paths of the engine: one shard applied directly (threads 1)
        // and scatter → shard-order merge → apply (threads 3).
        let data = tiny_dataset();
        for threads in [1usize, 3] {
            let run = || {
                let cfg = BaselineConfig {
                    threads,
                    epochs: 2,
                    ..BaselineConfig::quick(8)
                };
                let mut m = Bpr::new(cfg, data.num_users(), data.num_items());
                m.fit(&data);
                scores(&m, data.num_users() as u32, data.num_items() as u32)
            };
            assert_eq!(run(), run(), "threads {threads} not deterministic");
        }
    }

    #[test]
    fn prefetch_does_not_change_training() {
        // Batches are pure functions of (seed, index), so overlapping the
        // fill with gradient work must not move a single float.
        let data = tiny_dataset();
        for threads in [1usize, 3] {
            let run = |prefetch: bool| {
                let cfg = BaselineConfig {
                    threads,
                    prefetch,
                    epochs: 2,
                    ..BaselineConfig::quick(8)
                };
                let mut m = Bpr::new(cfg, data.num_users(), data.num_items());
                m.fit(&data);
                scores(&m, data.num_users() as u32, data.num_items() as u32)
            };
            assert_eq!(
                run(true),
                run(false),
                "prefetch changed training (threads {threads})"
            );
        }
    }

    #[test]
    fn sharded_engine_matches_training_quality() {
        // Threads change float summation order, not the algorithm: the
        // sharded run must still train to a working model.
        let data = tiny_dataset();
        let cfg = BaselineConfig {
            threads: 4,
            ..BaselineConfig::quick(16)
        };
        tests_support::improves_over_untrained(
            || Bpr::new(cfg.clone(), data.num_users(), data.num_items()),
            &data,
        );
    }

    #[test]
    fn rejects_bad_values() {
        let bad_dim = BaselineConfig {
            dim: 0,
            ..Default::default()
        };
        assert!(bad_dim.validate().is_err());
        let bad_lr = BaselineConfig {
            lr: f32::NAN,
            ..Default::default()
        };
        assert!(bad_lr.validate().is_err());
        let bad_negs = BaselineConfig {
            negatives_per_positive: 0,
            ..Default::default()
        };
        assert!(bad_negs.validate().is_err());
    }
}
