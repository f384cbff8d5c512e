//! Training loop for MAR / MARS.
//!
//! Wires the data-layer pieces (adaptive margins, explorative sampling,
//! triplet sampling) into parameter updates at the constant learning rate
//! [`MarsConfig::lr`], and tracks losses and optional dev-set metrics per
//! epoch.
//!
//! One update schedule: triplets stream into mini-batches of
//! [`MarsConfig::batch_size`]; gradients accumulate against frozen
//! parameters and each touched entity takes one step per batch
//! ([`MultiFacetModel::train_batch`]). With [`MarsConfig::threads`] > 1
//! each batch is sharded **by user** across a persistent
//! [`mars_runtime::WorkerPool`] living for the whole `fit()` (no per-batch
//! spawn/join), the per-shard accumulators are merged in shard order, and
//! the merged batch is applied once — so runs are reproducible for a
//! fixed seed, batch size and thread count (see the determinism contract
//! in the `mars-runtime` module docs). The immediate one-step-per-triplet
//! update the batched engine is checked against lives on as a reference,
//! [`MultiFacetModel::train_triplet`] (`tests/grad_check.rs`: a batch of
//! size 1 reproduces it).
//!
//! Triplet *sampling* is a pure function of `(seed, batch index)`: the
//! trainer consumes the counter-keyed [`TripletBatcher`] through a
//! [`TripletStream`] (with [`MarsConfig::prefetch`] and a core to spare
//! beyond the training threads and the filler, batch `b + 1` is drawn on a
//! background thread while batch `b` trains, otherwise it is drawn inline;
//! see the determinism contract in `mars-data::batch`).

use crate::config::{MarsConfig, NegativeSampling, UserSampling};
use crate::engine::BatchAccum;
use crate::kernels::Scratch;
use crate::loss::BatchLoss;
use crate::model::MultiFacetModel;

use mars_data::batch::{FillMode, Triplet, TripletBatcher, TripletStream};
use mars_data::dataset::Dataset;
use mars_data::margin::compute_margins;
use mars_data::sampler::{
    NegativeSampler, PopularityNegativeSampler, UniformNegativeSampler, UserSampler,
};
use mars_metrics::{EvalConfig, RankingEvaluator};
use mars_runtime::rng::seeds;
use mars_runtime::WorkerPool;

/// Per-epoch training diagnostics.
#[derive(Clone, Debug)]
pub struct EpochStats {
    pub epoch: usize,
    /// Mean weighted triplet loss over the epoch.
    pub mean_loss: f32,
    /// Mean push / pull / facet components (unweighted). The facet term is
    /// counted once per unique entity per batch, not once per triplet
    /// occurrence.
    pub mean_push: f32,
    pub mean_pull: f32,
    pub mean_facet: f32,
    /// Dev HR@10 if dev evaluation was enabled.
    pub dev_hr10: Option<f32>,
    /// Numeric guard, evaluated at the epoch boundary in every build: how
    /// far the worst parameter row sits from its constraint (`|‖x‖ − 1|` on
    /// the sphere, `max(‖x‖ − 1, 0)` under the ball constraint; see
    /// [`MultiFacetModel::norm_report`]) …
    pub max_norm_drift: f32,
    /// … whether every parameter is still finite …
    pub params_finite: bool,
    /// … and how many row steps the batched engine skipped this epoch
    /// because the row's summed gradient was not finite.
    pub nonfinite_rows: u64,
}

/// The result of [`Trainer::fit`].
#[derive(Debug)]
pub struct TrainOutcome {
    /// The trained model.
    pub model: MultiFacetModel,
    /// Diagnostics per epoch.
    pub history: Vec<EpochStats>,
}

/// Trains a [`MultiFacetModel`] on a [`Dataset`].
pub struct Trainer {
    cfg: MarsConfig,
    /// Evaluate on the dev split every N epochs (0 = never).
    dev_eval_every: usize,
}

/// Either negative sampler behind one static dispatch (cold per triplet;
/// a small enum keeps it allocation-free).
enum Neg {
    Uniform(UniformNegativeSampler),
    Popularity(PopularityNegativeSampler),
}

impl NegativeSampler for Neg {
    fn sample_negative<R: rand::Rng + ?Sized>(
        &self,
        x: &mars_data::Interactions,
        u: mars_data::UserId,
        rng: &mut R,
    ) -> Option<mars_data::ItemId> {
        match self {
            Neg::Uniform(s) => s.sample_negative(x, u, rng),
            Neg::Popularity(s) => s.sample_negative(x, u, rng),
        }
    }
}

impl Trainer {
    /// Trainer with the paper's constant learning rate and no dev tracking.
    pub fn new(cfg: MarsConfig) -> Self {
        Self {
            cfg,
            dev_eval_every: 0,
        }
    }

    /// Enables dev-set HR@10 tracking every `every` epochs.
    pub fn with_dev_tracking(mut self, every: usize) -> Self {
        self.dev_eval_every = every;
        self
    }

    /// Trains a fresh model on `data.train` and returns it with history.
    pub fn fit(&self, data: &Dataset) -> TrainOutcome {
        let model = MultiFacetModel::new(self.cfg.clone(), data.num_users(), data.num_items());
        self.fit_from(model, data)
    }

    /// Continues training an existing model (warm start / fine-tuning).
    ///
    /// # Panics
    /// If the model's catalogue sizes do not match the dataset.
    pub fn fit_from(&self, mut model: MultiFacetModel, data: &Dataset) -> TrainOutcome {
        assert_eq!(model.num_users(), data.num_users(), "user count mismatch");
        assert_eq!(model.num_items(), data.num_items(), "item count mismatch");
        let cfg = &self.cfg;
        let x = &data.train;
        if x.num_interactions() == 0 {
            return TrainOutcome {
                model,
                history: Vec::new(),
            };
        }

        // Route the batcher's counter-stream fills through the vectorized
        // splitmix64 kernel (bit-identical to the scalar fallback — a
        // throughput knob, not a stream change).
        mars_tensor::simd::install_rng_kernel();

        let margins = compute_margins(x, cfg.margin, cfg.min_margin);
        let user_sampler = match cfg.user_sampling {
            UserSampling::Uniform => UserSampler::uniform(x),
            UserSampling::Explorative => UserSampler::explorative(x, cfg.beta_explore),
        };
        let neg = match cfg.negative_sampling {
            NegativeSampling::Uniform => Neg::Uniform(UniformNegativeSampler),
            NegativeSampling::Popularity => {
                Neg::Popularity(PopularityNegativeSampler::new(x, 0.75))
            }
        };

        let dev_eval = RankingEvaluator::new(EvalConfig {
            num_negatives: 100,
            cutoffs: vec![10],
            seed: 777,
            // Dev eval runs between epochs while the trainer's own pool is
            // idle, but the splits are small — keep it serial rather than
            // spinning a second pool per epoch.
            threads: 1,
        });

        let mut shards = Shards::new(cfg, mars_runtime::resolve_threads(cfg.threads));
        let workers = shards.shards.len();
        let mut scratch = Scratch::new(cfg.facets, cfg.dim);

        // One epoch visits approximately as many positives as there are
        // interactions; each positive (= batcher slot) is contrasted against
        // `negatives_per_positive` sampled negatives (the stochastic form of
        // Eq. 5/8's double sum), so a batch carries up to
        // `slots × negatives_per_positive ≈ batch_size` triplets.
        let k = cfg.negatives_per_positive.max(1);
        let slots = (cfg.batch_size.max(1) / k).max(1);
        let batcher =
            TripletBatcher::with_negatives(user_sampler, neg, slots, k, seeds::sampling(cfg.seed));
        let batches_per_epoch = batcher.batches_per_epoch(x);
        let mut buf: Vec<(Triplet, f32)> = Vec::with_capacity(slots * k);
        let mut history: Vec<EpochStats> = Vec::with_capacity(cfg.epochs);
        let mut skipped_so_far = 0u64;

        std::thread::scope(|scope| {
            let mode = if cfg.prefetch && prefetch_has_headroom(workers) {
                FillMode::Prefetch
            } else {
                FillMode::Serial
            };
            let mut stream = TripletStream::spawn(scope, x, batcher, mode);
            for epoch in 0..cfg.epochs {
                let mut sums = BatchLoss::default();

                for _ in 0..batches_per_epoch {
                    let batch = stream.next_batch();
                    if batch.is_empty() {
                        continue;
                    }
                    buf.clear();
                    buf.extend(
                        batch
                            .triplets()
                            .iter()
                            .map(|&t| (t, margins[t.user as usize])),
                    );
                    run_batch(
                        &mut model,
                        &buf,
                        cfg.lr,
                        &mut scratch,
                        &mut shards,
                        &mut sums,
                    );
                }
                let norms = model.norm_report();
                let skipped = shards.nonfinite_rows();
                let skipped_before = std::mem::replace(&mut skipped_so_far, skipped);

                let n = sums.count.max(1) as f64;
                let dev_hr10 = if self.dev_eval_every > 0
                    && (epoch + 1) % self.dev_eval_every == 0
                    && !data.dev.is_empty()
                {
                    Some(dev_eval.evaluate_dev(&model, data).hr_at(10))
                } else {
                    None
                };
                history.push(EpochStats {
                    epoch,
                    mean_loss: (sums.total(cfg.lambda_pull, cfg.lambda_facet) / n) as f32,
                    mean_push: (sums.push / n) as f32,
                    mean_pull: (sums.pull / n) as f32,
                    mean_facet: (sums.facet / n) as f32,
                    dev_hr10,
                    max_norm_drift: norms.max_drift,
                    params_finite: norms.finite,
                    nonfinite_rows: skipped - skipped_before,
                });
            }
        });

        debug_assert!(
            history
                .last()
                .is_none_or(|e| e.params_finite && e.max_norm_drift <= 1e-3),
            "norm invariant violated after training"
        );
        TrainOutcome { model, history }
    }
}

/// Whether a background filler thread can overlap with `workers` training
/// threads on this machine: it needs a core of its own **and** one more
/// left over for everything else that runs.
///
/// The filler is a short periodic task (awake for a few percent of a
/// batch). With exactly `workers + 1` cores nothing absorbs the rest of
/// the system's activity, and once the scheduler has placed the filler on a
/// training thread's core it stays there: on a 2-vCPU Linux guest,
/// `threads = 1`, whole fits ran in one of two states — fill overlapped, or
/// fill timesharing the trainer's core and adding its full cost (≈ 45 ns
/// per triplet, 8 % of a MAR batch) — and with `threads = 2` the filler was
/// a third thread on two cores (fit wall 2.09–2.38 s against 2.33–2.37 s
/// filled inline). An inline fill costs the overlap but is the same every
/// run; the triplet stream is identical either way.
fn prefetch_has_headroom(workers: usize) -> bool {
    mars_runtime::resolve_threads(0) >= workers + 2
}

/// One worker's state for the data-parallel batch path: its triplet slice
/// (refilled per batch) plus scratch and accumulator (reused across
/// batches).
struct Shard {
    buf: Vec<(Triplet, f32)>,
    scratch: Scratch,
    acc: BatchAccum,
}

/// Per-shard worker state + the persistent pool for the data-parallel batch
/// path. Created once per `fit()`; every mini-batch reuses the same worker
/// threads (`mars-runtime` replaces PR 1's per-batch `thread::scope`).
struct Shards {
    pool: WorkerPool,
    shards: Vec<Shard>,
    /// Merge target.
    merged: BatchAccum,
}

impl Shards {
    fn new(cfg: &MarsConfig, threads: usize) -> Self {
        let pool = WorkerPool::new(threads);
        Self {
            shards: (0..pool.workers())
                .map(|_| Shard {
                    buf: Vec::new(),
                    scratch: Scratch::new(cfg.facets, cfg.dim),
                    acc: BatchAccum::new(cfg),
                })
                .collect(),
            pool,
            merged: BatchAccum::new(cfg),
        }
    }

    /// Row steps skipped for a non-finite gradient since the fit began
    /// (whichever accumulator a batch was finished through counted them).
    fn nonfinite_rows(&self) -> u64 {
        self.merged.nonfinite_rows()
            + self
                .shards
                .iter()
                .map(|sh| sh.acc.nonfinite_rows())
                .sum::<u64>()
    }
}

/// Executes one mini-batch: single-threaded fast path, or shard-by-user →
/// scatter over the persistent pool → ordered merge → single apply.
fn run_batch(
    model: &mut MultiFacetModel,
    batch: &[(Triplet, f32)],
    lr: f32,
    scratch: &mut Scratch,
    shards: &mut Shards,
    sums: &mut BatchLoss,
) {
    let n = shards.shards.len();
    if n <= 1 {
        let sh = &mut shards.shards[0];
        let bl = model.train_batch(batch, lr, &mut sh.scratch, &mut sh.acc);
        sums.merge(&bl);
        return;
    }

    // Value-based sharding (user id, not worker availability) keeps runs
    // reproducible; see the mars-runtime determinism contract.
    mars_runtime::shard_items(
        batch,
        shards.shards.iter_mut().map(|s| &mut s.buf),
        |(t, _)| t.user as usize,
    );

    let frozen: &MultiFacetModel = model;
    let losses = shards.pool.scatter(&mut shards.shards, |_, sh| {
        sh.acc.begin_batch();
        frozen.accumulate_batch(&sh.buf, &mut sh.scratch, &mut sh.acc)
    });

    // Deterministic merge: fixed shard order.
    shards.merged.begin_batch();
    for (sh, loss) in shards.shards.iter().zip(&losses) {
        shards.merged.merge_from(&sh.acc);
        sums.merge(loss);
    }
    let facet = model.finish_batch(&mut shards.merged, lr, scratch);
    sums.facet += facet;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MarsConfig;
    use mars_data::{SyntheticConfig, SyntheticDataset};
    use mars_metrics::Scorer;

    fn small_data() -> SyntheticDataset {
        SyntheticDataset::generate(
            "trainer-test",
            &SyntheticConfig {
                num_users: 60,
                num_items: 50,
                num_interactions: 1500,
                num_categories: 3,
                dirichlet_alpha: 0.2,
                seed: 21,
                ..Default::default()
            },
        )
    }

    fn quick_cfg(mut cfg: MarsConfig) -> MarsConfig {
        cfg.epochs = 4;
        cfg.batch_size = 128;
        cfg
    }

    #[test]
    fn loss_decreases_over_epochs_mar() {
        let data = small_data();
        let out = Trainer::new(quick_cfg(MarsConfig::mar(2, 8))).fit(&data.dataset);
        assert_eq!(out.history.len(), 4);
        let first = out.history.first().unwrap().mean_loss;
        let last = out.history.last().unwrap().mean_loss;
        assert!(last < first, "loss did not decrease: {first} → {last}");
    }

    #[test]
    fn loss_decreases_over_epochs_mars() {
        let data = small_data();
        let out = Trainer::new(quick_cfg(MarsConfig::mars(2, 8))).fit(&data.dataset);
        let first = out.history.first().unwrap().mean_loss;
        let last = out.history.last().unwrap().mean_loss;
        assert!(last < first, "loss did not decrease: {first} → {last}");
    }

    #[test]
    fn trained_model_beats_untrained_on_dev() {
        let data = small_data();
        let cfg = quick_cfg(MarsConfig::mars(2, 8));
        let untrained = MultiFacetModel::new(cfg.clone(), 60, 50);
        let ev = RankingEvaluator::paper();
        let before = ev.evaluate(&untrained, &data.dataset).hr_at(10);
        let out = Trainer::new(cfg).fit(&data.dataset);
        let after = ev.evaluate(&out.model, &data.dataset).hr_at(10);
        assert!(
            after > before,
            "training should improve HR@10: {before} → {after}"
        );
    }

    #[test]
    fn mars_invariant_holds_after_full_training() {
        let data = small_data();
        let out = Trainer::new(quick_cfg(MarsConfig::mars(3, 8))).fit(&data.dataset);
        assert!(out.model.check_norm_invariant(1e-3));
    }

    #[test]
    fn dev_tracking_records_metrics() {
        let data = small_data();
        let out = Trainer::new(quick_cfg(MarsConfig::mars(2, 8)))
            .with_dev_tracking(2)
            .fit(&data.dataset);
        assert!(out.history[0].dev_hr10.is_none());
        assert!(out.history[1].dev_hr10.is_some());
        assert!(out.history[3].dev_hr10.is_some());
    }

    #[test]
    fn training_is_deterministic() {
        let data = small_data();
        let cfg = quick_cfg(MarsConfig::mars(2, 8));
        let a = Trainer::new(cfg.clone()).fit(&data.dataset);
        let b = Trainer::new(cfg).fit(&data.dataset);
        // Compare a few scores.
        for (u, v) in [(0u32, 0u32), (5, 10), (20, 30)] {
            assert_eq!(a.model.score(u, v), b.model.score(u, v));
        }
        assert_eq!(
            a.history.last().unwrap().mean_loss,
            b.history.last().unwrap().mean_loss
        );
    }

    #[test]
    fn sharded_training_is_deterministic_per_thread_count() {
        let data = small_data();
        let mut cfg = quick_cfg(MarsConfig::mars(2, 8));
        cfg.epochs = 2;
        for threads in [2, 4] {
            cfg.threads = threads;
            let a = Trainer::new(cfg.clone()).fit(&data.dataset);
            let b = Trainer::new(cfg.clone()).fit(&data.dataset);
            for (u, v) in [(0u32, 0u32), (7, 11), (30, 42)] {
                assert_eq!(a.model.score(u, v), b.model.score(u, v));
            }
            assert_eq!(
                a.history.last().unwrap().mean_loss,
                b.history.last().unwrap().mean_loss
            );
            assert!(a.model.check_norm_invariant(1e-3), "threads {threads}");
        }
    }

    #[test]
    fn empty_training_set_is_a_noop() {
        let data = mars_data::Dataset::leave_one_out("empty", 5, 5, &vec![vec![]; 5], vec![], 0);
        let out = Trainer::new(quick_cfg(MarsConfig::mars(2, 4))).fit(&data);
        assert!(out.history.is_empty());
    }

    #[test]
    fn warm_start_continues_training() {
        let data = small_data();
        let cfg = quick_cfg(MarsConfig::mars(2, 8));
        let first = Trainer::new(cfg.clone()).fit(&data.dataset);
        let resumed = Trainer::new(cfg).fit_from(first.model, &data.dataset);
        assert_eq!(resumed.history.len(), 4);
        assert!(resumed.model.check_norm_invariant(1e-3));
    }
}
