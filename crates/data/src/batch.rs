//! Counter-keyed triplet batching: the training-side sampling pipeline.
//!
//! Every hinge-based model in the workspace (CML, TransCF, SML, MAR, MARS…)
//! consumes a stream of `(user, positive, negative)` triplets, and the
//! pointwise models (MetricF, NeuMF) consume the same draws reshaped into
//! labelled pairs. [`TripletBatcher`] produces that stream; this module is
//! the single definition of *which* triplets a training run sees.
//!
//! # Determinism contract (PR 4)
//!
//! Batch `b` is a **pure function of `(seed, b)`** — nothing else. Through
//! PR 3 the batcher drew every triplet from one sequential `StdRng` stream,
//! which coupled each draw to every draw before it: the fill could not
//! parallelize, prefetching a batch would have shifted all later batches,
//! and two engines with different batch schedules saw different data. The
//! batcher is now keyed on [`mars_runtime::rng::CounterRng`], the same
//! construction PR 3 used to decouple the evaluator's negative pre-draw:
//!
//! * a batch is `slots_per_batch` **slots**; batch `b` owns the counter
//!   stream `keyed(seed, b)`, and slot `s` draws from its own disjoint
//!   view of it — the words at positions `≡ s (mod slots_per_batch)`, in
//!   order (see the PR 9 section below) — independent of every other
//!   slot;
//! * one slot draws one user (via [`UserSampler`], 1–2 ticks), one positive
//!   (1 tick) and `negatives_per_slot` negatives, emitting one triplet per
//!   negative (all sharing the slot's user and positive) — the multi-negative
//!   regime of the paper's Eq. 5/8 double sum;
//! * a slot whose user turns out saturated (no negative exists) retries
//!   with a fresh user from the same stream, up to `SLOT_ATTEMPTS` times,
//!   then yields nothing (short batch — only possible on pathological
//!   datasets where nearly every user interacted with everything).
//!
//! Because slots are independent, [`TripletBatcher::fill_parallel`] fans
//! contiguous slot ranges across a [`WorkerPool`] and concatenates the
//! shard outputs in shard order: the resulting triplet stream is
//! **bit-identical at any worker count**, including the 1-worker serial
//! fill ([`TripletBatcher::fill`]) — asserted by the property tests in
//! `tests/properties.rs` and pinned by golden values below. For the same
//! reason [`TripletStream`] can *prefetch*: a double-buffered background
//! thread draws batch `b + 1` while the caller trains on batch `b`, and the
//! stream it produces is identical to the non-prefetching one.
//!
//! This deliberately **changed the triplet streams** relative to the
//! PR ≤ 3 shared-`StdRng` order (as PR 3 changed the evaluator's candidate
//! sets): the reproducibility contract is "bit-identical runs for a fixed
//! seed at any worker count, with or without prefetch", not "identical to
//! the historical serial stream".
//!
//! # Block-draw pipeline (PR 9 stream bump)
//!
//! PR 9 rebuilt the draw path inside a slot: instead of one counter
//! stream *per slot* (keyed `b · slots_per_batch + s`, one key mix per
//! slot) feeding scalar `gen_range` (modulo) draws through trait
//! dispatch, batch `b` now keys a **single** stream and slot `s` owns the
//! words at positions `≡ s (mod slots_per_batch)` of it — a perfect
//! partition, so slots stay mutually independent and parallel-safe with
//! **one key mix per batch**. The payoff is layout: word `j` of *all*
//! slots is the contiguous position range `[j·S, (j+1)·S)`, so the fill
//! loops mix the first [`HEAD`] words of every slot with one
//! [`CounterRng::fill_block`] call per word index — 8-wide through the
//! installed `mars-tensor` kernel — instead of every slot serially paying
//! the mix latency on its own critical path. Past its head a slot falls
//! through to on-demand strided draws ([`crate::draws::DrawStream`]);
//! range mappings all run through the shared Lemire reduction, and
//! multi-negative slots draw in bulk via
//! [`NegativeSampler::sample_negatives_block`]. This **changed the
//! triplet streams again** (same precedent as above: the word positions,
//! the modulo → Lemire remap, and block rejection all reshape the draws);
//! the golden batches below are re-pinned accordingly. Everything the
//! contract promises is unchanged: batch `b` is still a pure function of
//! `(seed, b)`, bit-identical at 1..=8 workers, any chunk size, prefetch
//! on or off.

use crate::draws::{DrawStream, HEAD};
use crate::interactions::Interactions;
use crate::sampler::{
    positive_from_items, sample_positive, FastSingle, NegativeSampler, UserSampler,
};
use crate::{ItemId, UserId};
use mars_runtime::rng::CounterRng;
use mars_runtime::{chunk_ranges, resolve_threads, WorkerPool};
use std::ops::Range;
use std::sync::mpsc;

/// One training triplet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Triplet {
    pub user: UserId,
    pub positive: ItemId,
    pub negative: ItemId,
}

/// Fresh-user retries a slot is allowed before yielding nothing. Retries
/// only trigger when the drawn user has interacted with *every* item, so in
/// practice a slot succeeds on the first attempt.
const SLOT_ATTEMPTS: usize = 8;

/// One filled batch: the triplets plus the slot structure over them.
///
/// `slot_ends[k]` is the end offset (exclusive) of the `k`-th *successful*
/// slot's triplets; all triplets of a slot share one `(user, positive)`
/// pair. One-negative batches (the pairwise engines' configuration) leave
/// `slot_ends` **empty** — every triplet is its own slot, so the offsets
/// are just `1, 2, …, len` and materializing them would cost a second
/// push on every slot of the hot fill loop; [`Self::slots`] synthesizes
/// them. Pairwise engines iterate [`Self::triplets`] flat; pointwise
/// engines iterate [`Self::slots`] to recover the
/// one-positive-then-`k`-negatives sample order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TripletBatch {
    triplets: Vec<Triplet>,
    slot_ends: Vec<u32>,
}

impl TripletBatch {
    /// All triplets of the batch, in slot order.
    #[inline]
    pub fn triplets(&self) -> &[Triplet] {
        &self.triplets
    }

    /// Number of triplets in the batch.
    #[inline]
    pub fn len(&self) -> usize {
        self.triplets.len()
    }

    /// Whether the batch holds no triplets.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.triplets.is_empty()
    }

    /// The batch grouped by slot: each item is one slot's triplets (never
    /// empty; failed slots are not recorded). Empty `slot_ends` is the
    /// one-triplet-per-slot batch (see the struct docs).
    pub fn slots(&self) -> impl Iterator<Item = &[Triplet]> + '_ {
        let unit = self.slot_ends.is_empty();
        let count = if unit {
            self.triplets.len()
        } else {
            self.slot_ends.len()
        };
        let mut start = 0usize;
        (0..count).map(move |k| {
            let end = if unit {
                k + 1
            } else {
                self.slot_ends[k] as usize
            };
            let s = start;
            start = end;
            &self.triplets[s..end]
        })
    }

    fn clear(&mut self) {
        self.triplets.clear();
        self.slot_ends.clear();
    }
}

/// Draws one slot from its stream view into `out`. The draw order within
/// the view — user, positive, then the negatives — is part of the pinned
/// determinism contract (see the module docs). `rng` is the slot's
/// interleaved view of the batch stream, its head words already mixed by
/// the caller's block fills. `scratch` is the caller's reused negative
/// buffer.
// Seven arguments, all routinely needed: the three sampler refs, the slot
// stream, and the two output buffers don't group into anything more
// meaningful than this call site.
//
// `inline(always)`: called once per slot from the two fill loops; out of
// line, the call itself (argument shuffling over seven parameters) costs a
// measurable share of a ~30 ns slot.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn fill_slot<N: NegativeSampler>(
    x: &Interactions,
    user_sampler: &UserSampler,
    negative_sampler: &N,
    negatives_per_slot: usize,
    mut rng: DrawStream,
    scratch: &mut Vec<ItemId>,
    out: &mut TripletBatch,
) {
    for _ in 0..SLOT_ATTEMPTS {
        let user = user_sampler.sample(&mut rng);
        let positive = sample_positive(x, user, &mut rng);
        // A single-negative slot (the pairwise engines' configuration) has
        // no batching to exploit: take the scalar draw straight into the
        // triplet, skipping the scratch round-trip. Multi-negative slots
        // go through the samplers' block draw.
        if negatives_per_slot == 1 {
            match negative_sampler.sample_negative(x, user, &mut rng) {
                Some(negative) => {
                    // Unit slot: `slot_ends` stays implicit (see
                    // `TripletBatch`).
                    out.triplets.push(Triplet {
                        user,
                        positive,
                        negative,
                    });
                    return;
                }
                // Saturated user: retry with a fresh user from the stream.
                None => continue,
            }
        }
        scratch.clear();
        negative_sampler.sample_negatives_block(x, user, negatives_per_slot, &mut rng, scratch);
        // The block draw leaves `scratch` empty iff the user is saturated
        // (no negative exists): retry the slot with a fresh user from the
        // same stream.
        if scratch.is_empty() {
            continue;
        }
        for &negative in scratch.iter() {
            out.triplets.push(Triplet {
                user,
                positive,
                negative,
            });
        }
        out.slot_ends.push(out.triplets.len() as u32);
        return;
    }
}

/// One worker's slice of a parallel fill: its contiguous slot range, the
/// triplets those slots produced, and its negative-draw scratch and
/// slot-head buffers (reused across batches).
#[derive(Default)]
struct FillShard {
    range: Range<usize>,
    out: TripletBatch,
    scratch: Vec<ItemId>,
    heads: Vec<u64>,
}

/// Mixes the head words of `len` consecutive slots starting at `first`
/// into `heads`, word-major: `heads[j · len + i]` is head word `j` of slot
/// `first + i`. Under the mod-`slots` partition, word `j` of those slots
/// is the contiguous position range `j·slots + first ..` of the batch
/// stream — one [`CounterRng::fill_block`] call per head word index,
/// 8-wide through the installed kernel.
fn fill_heads(batch_rng: CounterRng, first: usize, len: usize, slots: usize, heads: &mut Vec<u64>) {
    // Sized, not cleared: every word is overwritten below, and a
    // clear + resize would memset the whole buffer each batch.
    if heads.len() != HEAD * len {
        heads.resize(HEAD * len, 0);
    }
    for (j, row) in heads.chunks_exact_mut(len).enumerate() {
        let mut r = batch_rng.skip((j * slots + first) as u64);
        r.fill_block(row);
    }
}

/// The head rows of a word-major head buffer (`heads[j · len + i]` = head
/// word `j` of the `i`-th slot in the filled range), as one slice per head
/// word index — each exactly as long as the slot range, so the fill loops'
/// per-slot column gathers bounds-check-free.
#[inline]
fn head_rows(heads: &[u64]) -> [&[u64]; HEAD] {
    let len = heads.len() / HEAD;
    std::array::from_fn(|j| &heads[j * len..(j + 1) * len])
}

/// One slot of the fill loops: the fused fast path for the common slot
/// shape (one negative, sampler with a single-word draw), falling back to
/// the generic [`fill_slot`] over the slot's full stream view.
///
/// The fast path decides user, positive, and first negative try straight
/// from the slot's pre-mixed head words — no view construction, no
/// per-word stream bookkeeping. A miss (collision, saturated user) reruns
/// the slot generically, which re-draws the same words in the same order:
/// the triplet stream is identical with the fast path on or off.
// Same argument-count story as `fill_slot`, plus the slot's words and
// stream coordinates; grouping them into a struct would just rename the
// call site.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn fill_one_slot<N: NegativeSampler>(
    x: &Interactions,
    user_sampler: &UserSampler,
    negative_sampler: &N,
    negatives_per_slot: usize,
    batch_rng: CounterRng,
    words: [u64; HEAD],
    slot: usize,
    slots: usize,
    scratch: &mut Vec<ItemId>,
    out: &mut TripletBatch,
) {
    // Slot `slot`'s full interleaved view: the pre-mixed head words plus a
    // tail positioned at its first post-head word.
    let view = || {
        DrawStream::strided(
            words,
            batch_rng.skip((HEAD * slots + slot) as u64),
            slots as u64,
        )
    };
    if N::HAS_FAST_SINGLE && negatives_per_slot == 1 {
        let (user, used) = user_sampler.fast_draw(&words);
        let items = x.items_of(user);
        let positive = positive_from_items(items, words[used]);
        match negative_sampler.fast_single(x, items, words[used + 1]) {
            FastSingle::Hit(negative) => {
                // Unit slot: `slot_ends` stays implicit (see
                // `TripletBatch`).
                out.triplets.push(Triplet {
                    user,
                    positive,
                    negative,
                });
                return;
            }
            // First rejection try collided: keep the user and positive,
            // continue the rejection loop mid-view — no slot rerun.
            FastSingle::Collision => {
                let mut rest = view();
                rest.skip_served(used + 2);
                if let Some(negative) = negative_sampler.resume_single(x, items, &mut rest) {
                    out.triplets.push(Triplet {
                        user,
                        positive,
                        negative,
                    });
                    return;
                }
                // A collision implies a negative exists, so resumption
                // cannot come up empty; if a sampler ever breaks that
                // contract, the generic rerun below is the canonical
                // answer (same words, same order).
            }
            FastSingle::NoPath => {}
        }
    }
    fill_slot(
        x,
        user_sampler,
        negative_sampler,
        negatives_per_slot,
        view(),
        scratch,
        out,
    );
}

/// Samples batches of training triplets, keyed per batch on [`CounterRng`]
/// with each slot drawing a disjoint interleaved view of the batch stream
/// (see the module docs for the determinism contract).
pub struct TripletBatcher<N: NegativeSampler> {
    user_sampler: UserSampler,
    negative_sampler: N,
    slots_per_batch: usize,
    negatives_per_slot: usize,
    seed: u64,
    batch: TripletBatch,
    scratch: Vec<ItemId>,
    heads: Vec<u64>,
    shards: Vec<FillShard>,
}

impl<N: NegativeSampler> TripletBatcher<N> {
    /// A batcher producing up to `batch_size` triplets per batch, one
    /// negative per positive (the pairwise engines' configuration).
    pub fn new(
        user_sampler: UserSampler,
        negative_sampler: N,
        batch_size: usize,
        seed: u64,
    ) -> Self {
        Self::with_negatives(user_sampler, negative_sampler, batch_size, 1, seed)
    }

    /// A batcher with `slots_per_batch` positives per batch and
    /// `negatives_per_slot` negatives (= triplets) per positive.
    pub fn with_negatives(
        user_sampler: UserSampler,
        negative_sampler: N,
        slots_per_batch: usize,
        negatives_per_slot: usize,
        seed: u64,
    ) -> Self {
        assert!(slots_per_batch > 0, "batch must have at least one slot");
        assert!(
            negatives_per_slot > 0,
            "need at least one negative per slot"
        );
        Self {
            user_sampler,
            negative_sampler,
            slots_per_batch,
            negatives_per_slot,
            seed,
            batch: TripletBatch::default(),
            scratch: Vec::new(),
            heads: Vec::new(),
            shards: Vec::new(),
        }
    }

    /// Maximum triplets per batch (`slots × negatives_per_slot`).
    pub fn batch_size(&self) -> usize {
        self.slots_per_batch * self.negatives_per_slot
    }

    /// Positives (slots) per batch.
    pub fn slots_per_batch(&self) -> usize {
        self.slots_per_batch
    }

    /// Number of batches that approximately covers every training
    /// interaction's positive once (an "epoch" in the paper's sense).
    pub fn batches_per_epoch(&self, x: &Interactions) -> usize {
        (x.num_interactions() / self.slots_per_batch).max(1)
    }

    /// Fills batch `batch_index` serially and returns it. Calling this
    /// twice with the same index produces the identical batch; the index,
    /// not call order, selects the content.
    pub fn fill(&mut self, x: &Interactions, batch_index: u64) -> &TripletBatch {
        self.batch.clear();
        let base = CounterRng::stream_base(self.seed);
        let slots = self.slots_per_batch;
        // Split borrows: the batch and scratch buffers are written while
        // the samplers are read.
        let TripletBatcher {
            user_sampler,
            negative_sampler,
            negatives_per_slot,
            batch,
            scratch,
            heads,
            ..
        } = self;
        let batch_rng = CounterRng::keyed_from_base(base, batch_index);
        fill_heads(batch_rng, 0, slots, slots, heads);
        let rows = head_rows(heads);
        for slot in 0..slots {
            fill_one_slot(
                x,
                user_sampler,
                negative_sampler,
                *negatives_per_slot,
                batch_rng,
                std::array::from_fn(|j| rows[j][slot]),
                slot,
                slots,
                scratch,
                batch,
            );
        }
        &self.batch
    }

    /// Fills batch `batch_index` then swaps the result into `out` (the
    /// prefetch thread's buffer-recycling handoff).
    fn fill_swap(&mut self, x: &Interactions, batch_index: u64, out: &mut TripletBatch) {
        self.fill(x, batch_index);
        std::mem::swap(&mut self.batch, out);
    }

    /// Fills batch `batch_index` with contiguous slot ranges fanned across
    /// `pool`, bit-identical to [`Self::fill`] at every worker count: each
    /// slot draws from its own disjoint view of the batch stream, and the
    /// shard outputs are concatenated in shard (= slot) order.
    pub fn fill_parallel(
        &mut self,
        x: &Interactions,
        pool: &WorkerPool,
        batch_index: u64,
    ) -> &TripletBatch
    where
        N: Sync,
    {
        let ranges = chunk_ranges(self.slots_per_batch, pool.workers());
        if ranges.len() <= 1 {
            return self.fill(x, batch_index);
        }
        // Split borrows: the shard buffers are written by the pool while the
        // samplers are read by every worker.
        let TripletBatcher {
            user_sampler,
            negative_sampler,
            slots_per_batch,
            negatives_per_slot,
            seed,
            batch,
            shards,
            ..
        } = self;
        shards.resize_with(ranges.len(), FillShard::default);
        for (sh, range) in shards.iter_mut().zip(ranges) {
            sh.range = range;
            sh.out.clear();
        }
        let base = CounterRng::stream_base(*seed);
        let (slots, negs) = (*slots_per_batch, *negatives_per_slot);
        let batch_rng = CounterRng::keyed_from_base(base, batch_index);
        pool.scatter(&mut shards[..], |_, sh| {
            // Same up-front head mixing as the serial fill, restricted to
            // the shard's contiguous slot range.
            fill_heads(
                batch_rng,
                sh.range.start,
                sh.range.len(),
                slots,
                &mut sh.heads,
            );
            let rows = head_rows(&sh.heads);
            for (i, slot) in sh.range.clone().enumerate() {
                fill_one_slot(
                    x,
                    user_sampler,
                    negative_sampler,
                    negs,
                    batch_rng,
                    std::array::from_fn(|j| rows[j][i]),
                    slot,
                    slots,
                    &mut sh.scratch,
                    &mut sh.out,
                );
            }
        });
        // Shards are contiguous in-order slot ranges, so shard order is slot
        // order: concatenation reproduces the serial fill exactly.
        batch.clear();
        for sh in shards.iter() {
            let base = batch.triplets.len() as u32;
            batch.triplets.extend_from_slice(&sh.out.triplets);
            batch
                .slot_ends
                .extend(sh.out.slot_ends.iter().map(|&end| end + base));
        }
        &self.batch
    }
}

/// How a [`TripletStream`] fills its batches.
pub enum FillMode<'p> {
    /// Serial fill on the calling thread.
    Serial,
    /// Inline fill with slot ranges fanned across the pool.
    Pool(&'p WorkerPool),
    /// Double-buffered background prefetch: a dedicated thread draws batch
    /// `b + 1` while the caller consumes batch `b`, so sampling cost
    /// overlaps gradient work. Identical stream to the other modes.
    ///
    /// On a single-core box there is nothing to overlap with — the filler
    /// thread just timeshares with the trainer and adds handoff overhead —
    /// so [`TripletStream::spawn`] degrades this mode to [`Self::Serial`]
    /// when [`resolve_threads`] detects one core. The stream is identical
    /// either way.
    Prefetch,
}

/// The engines' batch source: a [`TripletBatcher`] plus a fill strategy.
///
/// `next()` returns batches `0, 1, 2, …` in order; since batch content is a
/// pure function of the index, every [`FillMode`] yields the identical
/// stream (property-tested). Created inside a [`std::thread::scope`] so the
/// prefetch thread can borrow the interaction store without cloning it;
/// dropping the stream (or leaving the scope) shuts the thread down.
pub struct TripletStream<'env, N: NegativeSampler> {
    inner: StreamInner<'env, N>,
    next_index: u64,
}

enum StreamInner<'env, N: NegativeSampler> {
    Inline {
        batcher: TripletBatcher<N>,
        x: &'env Interactions,
        pool: Option<&'env WorkerPool>,
    },
    Prefetch {
        /// Requests: (batch index, recycled buffer to fill).
        req: mpsc::Sender<(u64, TripletBatch)>,
        /// Filled batches, in request order.
        res: mpsc::Receiver<TripletBatch>,
        /// The batch currently borrowed by the caller.
        cur: TripletBatch,
    },
}

impl<'env, N: NegativeSampler + Send + Sync + 'env> TripletStream<'env, N> {
    /// Builds the stream; [`FillMode::Prefetch`] spawns the background
    /// filler into `scope` (it exits when the stream is dropped).
    pub fn spawn<'scope>(
        scope: &'scope std::thread::Scope<'scope, 'env>,
        x: &'env Interactions,
        mut batcher: TripletBatcher<N>,
        mode: FillMode<'env>,
    ) -> Self {
        // Prefetch needs a second core to overlap with; on one core it is
        // pure overhead (a handoff per batch, nothing overlapped), so fall
        // back to the identical-stream serial fill.
        let mode = match mode {
            FillMode::Prefetch if resolve_threads(0) == 1 => FillMode::Serial,
            m => m,
        };
        let inner = match mode {
            FillMode::Serial => StreamInner::Inline {
                batcher,
                x,
                pool: None,
            },
            FillMode::Pool(pool) => StreamInner::Inline {
                batcher,
                x,
                pool: Some(pool),
            },
            FillMode::Prefetch => {
                let (req_tx, req_rx) = mpsc::channel::<(u64, TripletBatch)>();
                let (res_tx, res_rx) = mpsc::channel::<TripletBatch>();
                scope.spawn(move || {
                    while let Ok((index, mut buf)) = req_rx.recv() {
                        batcher.fill_swap(x, index, &mut buf);
                        if res_tx.send(buf).is_err() {
                            return;
                        }
                    }
                });
                // Prime the double buffer: batches 0 and 1 start filling
                // immediately; from then on buffers recycle through `next`.
                req_tx.send((0, TripletBatch::default())).expect("filler");
                req_tx.send((1, TripletBatch::default())).expect("filler");
                StreamInner::Prefetch {
                    req: req_tx,
                    res: res_rx,
                    cur: TripletBatch::default(),
                }
            }
        };
        Self {
            inner,
            next_index: 0,
        }
    }

    /// The next batch of the stream (batch `0` on the first call).
    pub fn next_batch(&mut self) -> &TripletBatch {
        let index = self.next_index;
        self.next_index += 1;
        match &mut self.inner {
            StreamInner::Inline { batcher, x, pool } => match pool {
                Some(pool) => batcher.fill_parallel(x, pool, index),
                None => batcher.fill(x, index),
            },
            StreamInner::Prefetch { req, res, cur } => {
                let filled = res.recv().expect("prefetch thread died");
                let consumed = std::mem::replace(cur, filled);
                // Recycle the consumed buffer as the request for batch
                // `index + 2` (two requests were primed at spawn, so two
                // stay in flight); ignore send failure (the filler only
                // exits once `req` is gone).
                let _ = req.send((index + 2, consumed));
                cur
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::UniformNegativeSampler;

    fn toy() -> Interactions {
        Interactions::from_pairs(3, 8, &[(0, 0), (0, 1), (1, 2), (1, 3), (2, 4)])
    }

    #[test]
    fn batch_has_requested_size_and_valid_triplets() {
        let x = toy();
        let mut b = TripletBatcher::new(UserSampler::uniform(&x), UniformNegativeSampler, 32, 1);
        let batch = b.fill(&x, 0);
        assert_eq!(batch.len(), 32);
        for t in batch.triplets() {
            assert!(x.contains(t.user, t.positive), "positive must be observed");
            assert!(
                !x.contains(t.user, t.negative),
                "negative must be unobserved"
            );
        }
    }

    #[test]
    fn batches_differ_across_indices_but_not_across_calls() {
        let x = toy();
        let mut b = TripletBatcher::new(UserSampler::uniform(&x), UniformNegativeSampler, 16, 2);
        let first = b.fill(&x, 0).clone();
        let second = b.fill(&x, 1).clone();
        assert_ne!(first, second, "distinct batch indices must differ");
        // Batch content is a pure function of the index: refilling batch 0
        // after batch 1 reproduces it bit for bit.
        assert_eq!(&first, b.fill(&x, 0));
    }

    #[test]
    fn epoch_count_scales_with_data() {
        let x = toy();
        let b = TripletBatcher::new(UserSampler::uniform(&x), UniformNegativeSampler, 2, 1);
        assert_eq!(b.batches_per_epoch(&x), 2); // 5 interactions / 2
        let b = TripletBatcher::new(UserSampler::uniform(&x), UniformNegativeSampler, 100, 1);
        assert_eq!(b.batches_per_epoch(&x), 1);
    }

    #[test]
    fn saturated_dataset_yields_empty_batch() {
        // Single user who has interacted with both items: no negatives.
        let x = Interactions::from_pairs(1, 2, &[(0, 0), (0, 1)]);
        let mut b = TripletBatcher::new(UserSampler::uniform(&x), UniformNegativeSampler, 8, 3);
        assert!(b.fill(&x, 0).is_empty());
    }

    #[test]
    fn deterministic_given_seed_and_independent_of_history() {
        let x = toy();
        let mut b1 = TripletBatcher::new(UserSampler::uniform(&x), UniformNegativeSampler, 16, 9);
        let mut b2 = TripletBatcher::new(UserSampler::uniform(&x), UniformNegativeSampler, 16, 9);
        // b2 jumps straight to batch 3; b1 walks there. Same result.
        let walked = {
            for i in 0..3 {
                b1.fill(&x, i);
            }
            b1.fill(&x, 3).clone()
        };
        assert_eq!(&walked, b2.fill(&x, 3));
    }

    #[test]
    fn multi_negative_slots_share_user_and_positive() {
        let x = toy();
        let mut b = TripletBatcher::with_negatives(
            UserSampler::uniform(&x),
            UniformNegativeSampler,
            6,
            4,
            5,
        );
        let batch = b.fill(&x, 0).clone();
        assert_eq!(b.batch_size(), 24);
        let mut slot_count = 0;
        for slot in batch.slots() {
            slot_count += 1;
            assert!(!slot.is_empty() && slot.len() <= 4);
            for t in slot {
                assert_eq!(t.user, slot[0].user);
                assert_eq!(t.positive, slot[0].positive);
                assert!(!x.contains(t.user, t.negative));
            }
        }
        assert_eq!(slot_count, 6, "every slot of the toy data must succeed");
        let by_slots: usize = batch.slots().map(<[Triplet]>::len).sum();
        assert_eq!(by_slots, batch.len(), "slot partition covers the batch");
    }

    /// The pinned stream: these literals are the determinism contract for
    /// the training-side sampling pipeline (the batcher analogue of the
    /// evaluator's golden candidate sets). If any literal changes, every
    /// recorded training run changes with it — bump them only with a
    /// deliberate protocol break.
    #[test]
    fn golden_values_pin_the_keyed_triplet_stream() {
        let x = toy();
        let mut b = TripletBatcher::new(UserSampler::uniform(&x), UniformNegativeSampler, 4, 42);
        let got: Vec<(u32, u32, u32)> = b
            .fill(&x, 0)
            .triplets()
            .iter()
            .map(|t| (t.user, t.positive, t.negative))
            .collect();
        assert_eq!(got, GOLDEN_BATCH_0, "batch 0 drifted");
        let got1: Vec<(u32, u32, u32)> = b
            .fill(&x, 1)
            .triplets()
            .iter()
            .map(|t| (t.user, t.positive, t.negative))
            .collect();
        assert_eq!(got1, GOLDEN_BATCH_1, "batch 1 drifted");
    }

    const GOLDEN_BATCH_0: [(u32, u32, u32); 4] = [(1, 3, 7), (1, 3, 7), (0, 0, 7), (1, 3, 5)];
    const GOLDEN_BATCH_1: [(u32, u32, u32); 4] = [(0, 1, 6), (1, 2, 4), (2, 4, 1), (1, 2, 7)];

    #[test]
    fn stream_modes_produce_identical_batches() {
        let x = toy();
        let make = || {
            TripletBatcher::with_negatives(
                UserSampler::uniform(&x),
                UniformNegativeSampler,
                8,
                2,
                7,
            )
        };
        let serial: Vec<TripletBatch> = {
            let mut b = make();
            (0..6).map(|i| b.fill(&x, i).clone()).collect()
        };
        // Prefetch mode.
        std::thread::scope(|scope| {
            let mut stream = TripletStream::spawn(scope, &x, make(), FillMode::Prefetch);
            for want in &serial {
                assert_eq!(want, stream.next_batch(), "prefetch diverged");
            }
        });
        // Pool mode.
        let pool = WorkerPool::new(3);
        std::thread::scope(|scope| {
            let mut stream = TripletStream::spawn(scope, &x, make(), FillMode::Pool(&pool));
            for want in &serial {
                assert_eq!(want, stream.next_batch(), "pool fill diverged");
            }
        });
    }
}
