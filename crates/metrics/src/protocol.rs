//! The paper's evaluation protocol (§V-A2).
//!
//! For each held-out `(user, item)` pair: sample 100 items the user has
//! *never* interacted with (train ∪ dev ∪ test), rank the held-out item
//! against them, and accumulate HR@K / nDCG@K / MRR / AUC. Negative sets are
//! drawn from a per-evaluation seed so every model in a comparison ranks
//! against the *same* candidates — without that, small models differences
//! drown in sampling noise.
//!
//! ## Execution engines
//!
//! [`RankingEvaluator::evaluate_pairs`] runs the **batched** engine: all
//! negative candidate sets are pre-drawn up front, each user's full
//! candidate block is scored in one [`Scorer::score_block`] call, and pairs
//! fan out across a `mars-runtime` worker pool. Each pair's outcome is
//! recorded into its own positional slot and the metric sums are reduced
//! serially in pair order, so the batched engine — serial *or* parallel —
//! is **bit-identical** to the sequential reference
//! ([`RankingEvaluator::evaluate_pairs_sequential`], the seed's one-pair-at-
//! a-time walk, kept for A/B checks and the evaluation benchmark).
//!
//! ## Counter-based negative draws
//!
//! Negative sampling is keyed per pair: pair `i` draws from its own
//! [`CounterRng`] stream `(seed, i)`, a pure function of the evaluation
//! seed and the pair index (see `mars_runtime::rng`). Because no RNG state
//! is shared across pairs, the pre-draw **fans out across the worker
//! pool** — the phase that stayed serial through PR 2 — while the candidate
//! sets remain bit-identical at every worker count, and identical to what
//! the sequential protocol draws pair by pair.

use crate::ranking::{auc_from_rank, hit_ratio_at, mrr_from_rank, ndcg_at, rank_of_positive};
use crate::Scorer;
use mars_data::dataset::{Dataset, HeldOut};
use mars_data::{ItemId, UserId};
use mars_runtime::{chunk_ranges, CounterRng, WorkerPool};
use std::collections::HashMap;

/// Evaluation configuration.
#[derive(Clone, Debug)]
pub struct EvalConfig {
    /// Number of sampled negatives per test case (paper: 100).
    pub num_negatives: usize,
    /// Cutoffs to report (paper: 10 and 20).
    pub cutoffs: Vec<usize>,
    /// Seed for negative sampling — shared across models in a comparison.
    /// Pair `i` draws from the counter-based stream keyed `(seed, i)`, so
    /// the candidate sets are a pure function of `(seed, pair order)`.
    pub seed: u64,
    /// Worker threads for the batched evaluator: `0` = all cores, `1` =
    /// serial. Results are bit-identical at every thread count.
    pub threads: usize,
}

impl Default for EvalConfig {
    fn default() -> Self {
        Self {
            num_negatives: 100,
            cutoffs: vec![10, 20],
            seed: 2021,
            threads: 0,
        }
    }
}

/// Aggregated evaluation results.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Report {
    /// `(cutoff, mean HR@cutoff)` in the order of [`EvalConfig::cutoffs`].
    pub hr: Vec<(usize, f32)>,
    /// `(cutoff, mean nDCG@cutoff)`.
    pub ndcg: Vec<(usize, f32)>,
    /// Mean reciprocal rank.
    pub mrr: f32,
    /// Mean AUC over test cases.
    pub auc: f32,
    /// Number of evaluated test cases.
    pub cases: usize,
}

impl Report {
    /// HR at the requested cutoff (panics if the cutoff was not evaluated).
    pub fn hr_at(&self, k: usize) -> f32 {
        self.hr
            .iter()
            .find(|(c, _)| *c == k)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("HR@{k} was not evaluated"))
    }

    /// nDCG at the requested cutoff (panics if the cutoff was not evaluated).
    pub fn ndcg_at(&self, k: usize) -> f32 {
        self.ndcg
            .iter()
            .find(|(c, _)| *c == k)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("nDCG@{k} was not evaluated"))
    }
}

/// All pre-drawn negative candidate sets of an evaluation, flat. Pair `i`'s
/// candidates are `items[offsets[i]..offsets[i + 1]]`.
struct DrawnNegatives {
    items: Vec<ItemId>,
    offsets: Vec<usize>,
}

impl DrawnNegatives {
    #[inline]
    fn get(&self, i: usize) -> &[ItemId] {
        &self.items[self.offsets[i]..self.offsets[i + 1]]
    }
}

/// The per-pair outcome the parallel workers record: `(rank, negatives)`;
/// `None` when the pair was skipped (user interacted with the whole
/// catalogue). All metrics are pure functions of this record, so the
/// reduction can run serially in pair order after the parallel phase.
type PairOutcome = Option<(usize, usize)>;

/// One worker's slice of the evaluation: which pair indices it owns and the
/// outcomes it produced (positionally aligned with that range).
///
/// Aligned so that no two workers' shards share a cache line (or the
/// adjacent line the prefetcher pairs with it): every `push` writes the
/// `Vec`'s length inside this struct, and two 40-byte shards packed side by
/// side made the workers trade that line back and forth — at a cost that
/// depended on where the allocator happened to put the shard array.
#[repr(align(128))]
struct EvalShard {
    range: std::ops::Range<usize>,
    out: Vec<PairOutcome>,
}

/// Runs the sampled-negatives leave-one-out protocol.
pub struct RankingEvaluator {
    config: EvalConfig,
}

impl RankingEvaluator {
    /// Creates an evaluator with the given config.
    pub fn new(config: EvalConfig) -> Self {
        assert!(config.num_negatives > 0, "need at least one negative");
        assert!(!config.cutoffs.is_empty(), "need at least one cutoff");
        Self { config }
    }

    /// Paper defaults: 100 negatives, cutoffs {10, 20}, seed 2021.
    pub fn paper() -> Self {
        Self::new(EvalConfig::default())
    }

    /// Evaluates `model` on the dataset's test pairs.
    pub fn evaluate<S: Scorer + Sync + ?Sized>(&self, model: &S, data: &Dataset) -> Report {
        self.evaluate_pairs(model, data, &data.test)
    }

    /// Evaluates on the dev pairs (for tuning / early stopping).
    pub fn evaluate_dev<S: Scorer + Sync + ?Sized>(&self, model: &S, data: &Dataset) -> Report {
        self.evaluate_pairs(model, data, &data.dev)
    }

    /// Evaluates on an explicit list of held-out pairs with the batched
    /// engine (see the module docs), spinning up a worker pool per
    /// [`EvalConfig::threads`].
    pub fn evaluate_pairs<S: Scorer + Sync + ?Sized>(
        &self,
        model: &S,
        data: &Dataset,
        pairs: &[HeldOut],
    ) -> Report {
        let pool = WorkerPool::with_threads(self.config.threads);
        self.evaluate_pairs_on(model, data, pairs, &pool)
    }

    /// The batched engine on a caller-provided pool (reused across calls —
    /// the grouped evaluation and repeated dev evals share one pool).
    pub fn evaluate_pairs_on<S: Scorer + Sync + ?Sized>(
        &self,
        model: &S,
        data: &Dataset,
        pairs: &[HeldOut],
        pool: &WorkerPool,
    ) -> Report {
        // Phase 1 (parallel): pre-draw every candidate set. Streams are
        // keyed per pair, so the fan-out cannot change a single draw.
        let drawn = self.predraw_negatives(data, pairs, pool);

        // Phase 2 (parallel): score each pair's full candidate block and
        // record its (rank, #negatives) outcome into its positional slot.
        let mut shards: Vec<EvalShard> = chunk_ranges(pairs.len(), pool.workers())
            .into_iter()
            .map(|range| EvalShard {
                out: Vec::with_capacity(range.len()),
                range,
            })
            .collect();
        pool.scatter(&mut shards, |_, sh| {
            let mut scores: Vec<f32> = Vec::with_capacity(self.config.num_negatives + 1);
            let mut block: Vec<ItemId> = Vec::with_capacity(self.config.num_negatives + 1);
            sh.out.clear();
            for i in sh.range.clone() {
                let h = &pairs[i];
                let negatives = drawn.get(i);
                if negatives.is_empty() {
                    sh.out.push(None);
                    continue;
                }
                // One fused call over the user's full candidate block —
                // held-out item first, then its negatives — so the per-user
                // scoring setup (Θ softmax, the user's facet norms) is paid
                // once per 101 candidates.
                block.clear();
                block.push(h.item);
                block.extend_from_slice(negatives);
                model.score_block(h.user, &block, &mut scores);
                sh.out.push(Some((
                    rank_of_positive(scores[0], &scores[1..]),
                    negatives.len(),
                )));
            }
        });

        // Phase 3 (serial): reduce in pair order — shards are contiguous
        // in-order chunks, so this is the sequential accumulation order.
        self.reduce(shards.iter().flat_map(|sh| sh.out.iter().copied()))
    }

    /// The seed's sequential reference protocol: one held-out pair at a
    /// time through scalar [`Scorer::score_many`] calls, negatives drawn
    /// on the fly. Kept as the reference the batched engine is checked
    /// against (`Report`s bit-equal; `crates/core/tests/eval_equivalence.rs`).
    // audit:allow(orphan-pub) — reference twin: oracle of the batched evaluator
    pub fn evaluate_pairs_sequential<S: Scorer + ?Sized>(
        &self,
        model: &S,
        data: &Dataset,
        pairs: &[HeldOut],
    ) -> Report {
        // Reusable buffers (perf-book: workhorse collections).
        let mut negatives: Vec<ItemId> = Vec::with_capacity(self.config.num_negatives);
        let mut scores: Vec<f32> = Vec::with_capacity(self.config.num_negatives);

        let outcomes = pairs.iter().enumerate().map(|(i, h)| {
            self.sample_negatives(data, h, i, &mut negatives);
            if negatives.is_empty() {
                return None; // user interacted with the whole catalogue
            }
            let pos_score = model.score(h.user, h.item);
            model.score_many(h.user, &negatives, &mut scores);
            Some((rank_of_positive(pos_score, &scores), negatives.len()))
        });
        // Funnel through the same reduction as the batched engine so the
        // two paths share their float accumulation operation-for-operation.
        let collected: Vec<PairOutcome> = outcomes.collect();
        self.reduce(collected.into_iter())
    }

    /// Folds per-pair outcomes into a [`Report`], in iteration order. Both
    /// engines funnel through this, so their float accumulation is
    /// literally the same code.
    fn reduce(&self, outcomes: impl Iterator<Item = PairOutcome>) -> Report {
        let cutoffs = &self.config.cutoffs;
        let mut hr_acc = vec![0.0f64; cutoffs.len()];
        let mut ndcg_acc = vec![0.0f64; cutoffs.len()];
        let mut mrr_acc = 0.0f64;
        let mut auc_acc = 0.0f64;
        let mut cases = 0usize;
        for outcome in outcomes {
            let Some((rank, num_negatives)) = outcome else {
                continue;
            };
            for (i, &k) in cutoffs.iter().enumerate() {
                hr_acc[i] += hit_ratio_at(rank, k) as f64;
                ndcg_acc[i] += ndcg_at(rank, k) as f64;
            }
            mrr_acc += mrr_from_rank(rank) as f64;
            auc_acc += auc_from_rank(rank, num_negatives) as f64;
            cases += 1;
        }

        let n = cases.max(1) as f64;
        Report {
            hr: cutoffs
                .iter()
                .zip(&hr_acc)
                .map(|(&k, &v)| (k, (v / n) as f32))
                .collect(),
            ndcg: cutoffs
                .iter()
                .zip(&ndcg_acc)
                .map(|(&k, &v)| (k, (v / n) as f32))
                .collect(),
            mrr: (mrr_acc / n) as f32,
            auc: (auc_acc / n) as f32,
            cases,
        }
    }

    /// Evaluates per user-difficulty group: test users are bucketed by
    /// their *training* interaction count and one report is produced per
    /// bucket.
    ///
    /// This is the controlled experiment the paper lists as future work
    /// ("closely study the behavior of MARS regarding the so-called
    /// difficult users … grouped based on the number of interactions"):
    /// the spherical constraint exists precisely to stop the model from
    /// parking difficult (low-degree) users on the sphere surface, so the
    /// interesting comparison is MAR-vs-MARS *within the low buckets*.
    ///
    /// `edges` are ascending upper bounds; a user with degree `d` falls
    /// into the first bucket with `d <= edge`, the rest into a final
    /// overflow bucket. Returns `(label, report)` pairs. All buckets run
    /// through the batched engine on one shared worker pool.
    ///
    /// # Panics
    /// If `edges` is empty or not strictly ascending (the bucket labels
    /// would name ranges that do not exist).
    pub fn evaluate_by_user_degree<S: Scorer + Sync + ?Sized>(
        &self,
        model: &S,
        data: &Dataset,
        edges: &[usize],
    ) -> Vec<(String, Report)> {
        assert!(!edges.is_empty(), "need at least one bucket edge");
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "edges must ascend strictly"
        );
        let bucket_of = |degree: usize| -> usize {
            edges
                .iter()
                .position(|&e| degree <= e)
                .unwrap_or(edges.len())
        };
        let mut buckets: Vec<Vec<HeldOut>> = vec![Vec::new(); edges.len() + 1];
        for h in &data.test {
            let deg = data.train.user_degree(h.user);
            buckets[bucket_of(deg)].push(*h);
        }
        let pool = WorkerPool::with_threads(self.config.threads);
        let mut out = Vec::with_capacity(buckets.len());
        let mut lower = 0usize;
        for (i, pairs) in buckets.iter().enumerate() {
            let label = if i < edges.len() {
                let l = format!("{}-{}", lower, edges[i]);
                lower = edges[i] + 1;
                l
            } else {
                format!(">{}", edges[edges.len() - 1])
            };
            out.push((label, self.evaluate_pairs_on(model, data, pairs, &pool)));
        }
        out
    }

    /// Pre-draws the negative candidate set of every pair — **exactly** the
    /// sets that [`Self::sample_negatives`] draws pair-by-pair in the
    /// sequential protocol — fanned out across `pool`. Pair `i` draws from
    /// its own counter-based stream `(seed, i)`, so neither the sharding
    /// nor the worker count can change a single draw: the result is
    /// bit-identical at every pool size (asserted in the tests). The
    /// per-user dev/test lookups are precomputed once (the sequential path
    /// re-scans both splits per pair), which changes no accept/reject
    /// decision and therefore no draw.
    fn predraw_negatives(
        &self,
        data: &Dataset,
        pairs: &[HeldOut],
        pool: &WorkerPool,
    ) -> DrawnNegatives {
        // First occurrence wins — `Iterator::find` semantics of the
        // sequential path.
        let mut dev_of: HashMap<UserId, ItemId> = HashMap::new();
        for d in &data.dev {
            dev_of.entry(d.user).or_insert(d.item);
        }
        let mut test_of: HashMap<UserId, ItemId> = HashMap::new();
        for d in &data.test {
            test_of.entry(d.user).or_insert(d.item);
        }

        let n = data.num_items();
        let want = self.config.num_negatives;
        let budget = want * 128;

        /// One worker's slice of the pre-draw: its pair range, the drawn
        /// items (concatenated in pair order) and one length per pair.
        /// Aligned like `EvalShard`, and for the same reason — here the
        /// length is written once per drawn item.
        #[repr(align(128))]
        struct DrawShard {
            range: std::ops::Range<usize>,
            items: Vec<ItemId>,
            lens: Vec<u32>,
        }
        let mut shards: Vec<DrawShard> = chunk_ranges(pairs.len(), pool.workers())
            .into_iter()
            .map(|range| DrawShard {
                items: Vec::with_capacity(range.len() * want),
                lens: Vec::with_capacity(range.len()),
                range,
            })
            .collect();
        pool.scatter(&mut shards, |_, sh| {
            for i in sh.range.clone() {
                let h = &pairs[i];
                let start = sh.items.len();
                let dev_item = dev_of.get(&h.user).copied();
                let test_item = test_of.get(&h.user).copied();
                let known = data.train.user_degree(h.user) + 2;
                if known < n {
                    let mut rng = CounterRng::keyed(self.config.seed, i as u64);
                    let mut attempts = 0usize;
                    while sh.items.len() - start < want && attempts < budget {
                        attempts += 1;
                        let v = rng.gen_below(n as u64) as ItemId;
                        // The already-drawn check scans only this pair's own
                        // slice — the literal `out.contains` of the
                        // sequential path (O(want) per draw beats a
                        // catalogue-sized stamp array: no O(items) fill per
                        // shard, and `want` is ~100).
                        if v == h.item
                            || Some(v) == dev_item
                            || Some(v) == test_item
                            || data.train.contains(h.user, v)
                            || sh.items[start..].contains(&v)
                        {
                            continue;
                        }
                        sh.items.push(v);
                    }
                }
                sh.lens.push((sh.items.len() - start) as u32);
            }
        });

        // Stitch the shard outputs back together: shards are contiguous
        // in-order pair ranges, so shard order is pair order.
        let total: usize = shards.iter().map(|sh| sh.items.len()).sum();
        let mut items: Vec<ItemId> = Vec::with_capacity(total);
        let mut offsets: Vec<usize> = Vec::with_capacity(pairs.len() + 1);
        offsets.push(0);
        for sh in &shards {
            items.extend_from_slice(&sh.items);
            for &len in &sh.lens {
                offsets.push(offsets.last().unwrap() + len as usize);
            }
        }
        DrawnNegatives { items, offsets }
    }

    /// Samples `num_negatives` distinct items the user never touched in any
    /// split (train membership + the user's own dev/test items), drawing
    /// from pair `pair_idx`'s own counter-based stream `(seed, pair_idx)` —
    /// the stream [`Self::predraw_negatives`] replays in parallel.
    fn sample_negatives(
        &self,
        data: &Dataset,
        h: &HeldOut,
        pair_idx: usize,
        out: &mut Vec<ItemId>,
    ) {
        out.clear();
        let n = data.num_items();
        let dev_item = data.dev.iter().find(|d| d.user == h.user).map(|d| d.item);
        let test_item = data.test.iter().find(|d| d.user == h.user).map(|d| d.item);
        let known = data.train.user_degree(h.user) + 2;
        if known >= n {
            return;
        }
        let mut rng = CounterRng::keyed(self.config.seed, pair_idx as u64);
        let mut attempts = 0usize;
        let budget = self.config.num_negatives * 128;
        while out.len() < self.config.num_negatives && attempts < budget {
            attempts += 1;
            let v = rng.gen_below(n as u64) as ItemId;
            if v == h.item
                || Some(v) == dev_item
                || Some(v) == test_item
                || data.train.contains(h.user, v)
                || out.contains(&v)
            {
                continue;
            }
            out.push(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mars_data::dataset::Dataset;
    use mars_data::{ItemId, UserId};

    /// Oracle model: scores item `t` highest for every user whose held-out
    /// test item is `t`.
    struct Oracle {
        target: Vec<ItemId>,
    }

    impl Scorer for Oracle {
        fn score(&self, user: UserId, item: ItemId) -> f32 {
            if self.target[user as usize] == item {
                1.0
            } else {
                0.0
            }
        }
    }

    /// Constant scorer — with pessimistic tie handling it must score 0 HR.
    struct Constant;
    impl Scorer for Constant {
        fn score(&self, _: UserId, _: ItemId) -> f32 {
            0.5
        }
    }

    /// Deterministic pseudo-random scorer with no structure — makes ranks
    /// (and thus every metric) sensitive to any scoring discrepancy.
    struct Hashing;
    impl Scorer for Hashing {
        fn score(&self, user: UserId, item: ItemId) -> f32 {
            let mut h = (user as u64) << 32 | item as u64;
            h ^= h >> 33;
            h = h.wrapping_mul(0xff51afd7ed558ccd);
            h ^= h >> 33;
            (h % 10_000) as f32 / 10_000.0
        }
    }

    fn toy_dataset() -> Dataset {
        // 4 users × 50 items, each with history [u, u+1, ..., u+5].
        let histories: Vec<Vec<ItemId>> = (0..4u32)
            .map(|u| (0..6).map(|i| u * 10 + i).collect())
            .collect();
        Dataset::leave_one_out("toy", 4, 50, &histories, vec![], 0)
    }

    /// A larger dataset so parallel evaluation actually spreads over
    /// several shards.
    fn wide_dataset() -> Dataset {
        let histories: Vec<Vec<ItemId>> = (0..60u32)
            .map(|u| (0..8).map(|i| (u * 7 + i * 3) % 200).collect())
            .collect();
        Dataset::leave_one_out("wide", 60, 200, &histories, vec![], 0)
    }

    #[test]
    fn oracle_gets_perfect_scores() {
        let data = toy_dataset();
        let mut target = vec![0; 4];
        for h in &data.test {
            target[h.user as usize] = h.item;
        }
        let report = RankingEvaluator::new(EvalConfig {
            num_negatives: 20,
            cutoffs: vec![1, 10],
            seed: 7,
            threads: 1,
        })
        .evaluate(&Oracle { target }, &data);
        assert_eq!(report.cases, 4);
        assert_eq!(report.hr_at(1), 1.0);
        assert_eq!(report.hr_at(10), 1.0);
        assert_eq!(report.ndcg_at(10), 1.0);
        assert_eq!(report.mrr, 1.0);
        assert_eq!(report.auc, 1.0);
    }

    #[test]
    fn constant_scorer_gets_zero() {
        let data = toy_dataset();
        let report = RankingEvaluator::new(EvalConfig {
            num_negatives: 20,
            cutoffs: vec![10],
            seed: 7,
            threads: 1,
        })
        .evaluate(&Constant, &data);
        assert_eq!(report.hr_at(10), 0.0);
        assert_eq!(report.ndcg_at(10), 0.0);
        assert_eq!(report.auc, 0.0);
    }

    #[test]
    fn negatives_exclude_all_known_items() {
        // Covered indirectly: the oracle test would fail if the test item
        // ever appeared among negatives (it would tie with score 1). Here we
        // explicitly check the sampler output.
        let data = toy_dataset();
        let ev = RankingEvaluator::new(EvalConfig {
            num_negatives: 30,
            cutoffs: vec![10],
            seed: 3,
            threads: 1,
        });
        let mut negs = Vec::new();
        for (i, h) in data.test.iter().enumerate() {
            ev.sample_negatives(&data, h, i, &mut negs);
            assert_eq!(negs.len(), 30);
            for &v in &negs {
                assert!(!data.train.contains(h.user, v));
                assert_ne!(v, h.item);
                assert!(data.dev.iter().all(|d| d.user != h.user || d.item != v));
            }
            // Distinct.
            let mut sorted = negs.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 30);
        }
    }

    #[test]
    fn predrawn_negatives_match_sequential_draws_exactly() {
        // The batched engine's phase 1 must reproduce the sequential
        // per-pair streams set-for-set — this is what makes the engines
        // bit-identical.
        for data in [toy_dataset(), wide_dataset()] {
            let ev = RankingEvaluator::new(EvalConfig {
                num_negatives: 25,
                cutoffs: vec![10],
                seed: 13,
                threads: 1,
            });
            let drawn = ev.predraw_negatives(&data, &data.test, &WorkerPool::new(1));
            let mut negs = Vec::new();
            for (i, h) in data.test.iter().enumerate() {
                ev.sample_negatives(&data, h, i, &mut negs);
                assert_eq!(drawn.get(i), &negs[..], "pair {i} diverged");
            }
        }
    }

    #[test]
    fn parallel_predraw_is_bit_identical_at_every_worker_count() {
        // The counter-based streams make the pre-draw a pure function of
        // (seed, pair index): fanning it across 1..=8 workers must not
        // change one item of one candidate set.
        for data in [toy_dataset(), wide_dataset()] {
            let ev = RankingEvaluator::new(EvalConfig {
                num_negatives: 40,
                cutoffs: vec![10],
                seed: 99,
                threads: 1,
            });
            let reference = ev.predraw_negatives(&data, &data.test, &WorkerPool::new(1));
            for workers in 2..=8 {
                let got = ev.predraw_negatives(&data, &data.test, &WorkerPool::new(workers));
                assert_eq!(
                    got.items, reference.items,
                    "items diverged at {workers} workers"
                );
                assert_eq!(
                    got.offsets, reference.offsets,
                    "offsets diverged at {workers} workers"
                );
            }
        }
    }

    #[test]
    fn batched_and_parallel_reports_are_bit_identical_to_sequential() {
        // The acceptance gate of the batched engine: same seed ⇒ the exact
        // same Report, across scorers, thread counts and datasets.
        for data in [toy_dataset(), wide_dataset()] {
            let mut target = vec![0; data.num_users()];
            for h in &data.test {
                target[h.user as usize] = h.item;
            }
            let scorers: Vec<Box<dyn Scorer + Sync>> = vec![
                Box::new(Hashing),
                Box::new(Constant),
                Box::new(Oracle { target }),
            ];
            for scorer in &scorers {
                for threads in [1usize, 2, 4, 7] {
                    let ev = RankingEvaluator::new(EvalConfig {
                        num_negatives: 40,
                        cutoffs: vec![5, 10, 20],
                        seed: 99,
                        threads,
                    });
                    let sequential =
                        ev.evaluate_pairs_sequential(scorer.as_ref(), &data, &data.test);
                    let batched = ev.evaluate_pairs(scorer.as_ref(), &data, &data.test);
                    assert_eq!(
                        sequential, batched,
                        "batched engine diverged at {threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    fn same_seed_same_report() {
        let data = toy_dataset();
        let cfg = EvalConfig {
            num_negatives: 25,
            cutoffs: vec![5, 10],
            seed: 11,
            threads: 0,
        };
        let a = RankingEvaluator::new(cfg.clone()).evaluate(&Constant, &data);
        let b = RankingEvaluator::new(cfg).evaluate(&Constant, &data);
        assert_eq!(a.hr, b.hr);
        assert_eq!(a.ndcg, b.ndcg);
        assert_eq!(a.cases, b.cases);
    }

    #[test]
    fn report_accessors_panic_on_missing_cutoff() {
        let r = Report {
            hr: vec![(10, 0.5)],
            ndcg: vec![(10, 0.3)],
            mrr: 0.0,
            auc: 0.0,
            cases: 1,
        };
        assert_eq!(r.hr_at(10), 0.5);
        let res = std::panic::catch_unwind(|| r.hr_at(20));
        assert!(res.is_err());
    }

    #[test]
    fn grouped_eval_partitions_all_cases() {
        let data = toy_dataset();
        let ev = RankingEvaluator::new(EvalConfig {
            num_negatives: 10,
            cutoffs: vec![10],
            seed: 5,
            threads: 2,
        });
        let groups = ev.evaluate_by_user_degree(&Constant, &data, &[2, 5]);
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[0].0, "0-2");
        assert_eq!(groups[1].0, "3-5");
        assert_eq!(groups[2].0, ">5");
        let total: usize = groups.iter().map(|(_, r)| r.cases).sum();
        assert_eq!(total, data.test.len());
        // Every toy user has 4 train interactions (6 distinct − dev − test).
        assert_eq!(groups[1].1.cases, data.test.len());
    }

    #[test]
    #[should_panic(expected = "edges must ascend strictly")]
    fn grouped_eval_rejects_descending_edges() {
        RankingEvaluator::paper().evaluate_by_user_degree(&Constant, &toy_dataset(), &[5, 2]);
    }

    #[test]
    fn dev_and_test_eval_differ() {
        let data = toy_dataset();
        let mut target = vec![0; 4];
        for h in &data.test {
            target[h.user as usize] = h.item;
        }
        let oracle = Oracle { target };
        let ev = RankingEvaluator::paper();
        let test_rep = ev.evaluate(&oracle, &data);
        let dev_rep = ev.evaluate_dev(&oracle, &data);
        // Oracle targets the test items, so test HR is 1 and dev HR is 0.
        assert_eq!(test_rep.hr_at(10), 1.0);
        assert_eq!(dev_rep.hr_at(10), 0.0);
    }
}
