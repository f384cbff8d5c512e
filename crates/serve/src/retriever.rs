//! The retrieval engine: chunked catalogue scan → bounded-heap selection,
//! single-query and batched.

use crate::index::{IndexEmbeddings, IvfConfig, IvfIndex, IvfMode, IvfScratch};
use crate::query::{RecQuery, RecResponse};
use crate::topk;
use mars_data::ItemId;
use mars_metrics::Scorer;
use mars_runtime::{chunk_ranges, WorkerPool};
use std::sync::Arc;

/// Default scan-chunk size. Large enough to amortize the per-call user
/// setup a [`Scorer::score_block`] override hoists (Θ softmax, the user's
/// facet norms — nothing on the item side is per call), small enough that a
/// chunk's ids + scores stay cache resident. Any value produces bit-identical results (see the crate
/// docs); this only tunes throughput.
pub const DEFAULT_CHUNK_ITEMS: usize = 256;

/// Reusable buffers for one retrieval thread. Capacities persist across
/// queries, so a serving loop that keeps its scratch reaches a steady
/// state with **zero allocations per request** (via
/// [`Retriever::retrieve_ranked_into`]; the `RecResponse`-returning
/// variants allocate only the response vector).
#[derive(Default)]
pub struct RetrievalScratch {
    /// Current chunk's candidate ids, post seen-filter.
    pub(crate) ids: Vec<ItemId>,
    /// Their scores (`score_block` output).
    pub(crate) scores: Vec<f32>,
    /// The bounded top-k heap.
    pub(crate) heap: Vec<(ItemId, f32)>,
    /// Buffers for the opt-in IVF probe path (unused by the exact scan).
    pub(crate) ivf: IvfScratch,
}

impl RetrievalScratch {
    /// Empty scratch; buffers grow to steady-state capacity on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Runs one query against `model` over a catalogue of `catalog_items`
/// items, scanning in chunks of `chunk_items`, and writes the ranked
/// result into `out` (cleared first, best item first).
///
/// This free function is the whole single-query engine; [`Retriever`]
/// wraps it with a shared model snapshot, and
/// `MultiFacetModel::recommend` delegates here with a borrowed model.
/// Steady-state cost: no allocation (given warm `scratch`/`out`), one
/// [`Scorer::score_block`] call per chunk, one `rank_cmp` comparison per
/// surviving candidate plus O(log k) per top-k entry, and a final
/// O(k·log k) ordering pass — never a catalogue-sized sort.
pub fn rank_into<S: Scorer + ?Sized>(
    model: &S,
    catalog_items: usize,
    chunk_items: usize,
    query: &RecQuery<'_>,
    scratch: &mut RetrievalScratch,
    out: &mut Vec<(ItemId, f32)>,
) {
    debug_assert!(
        query.seen.windows(2).all(|w| w[0] <= w[1]),
        "RecQuery.seen must be sorted ascending"
    );
    out.clear();
    scratch.heap.clear();
    let k = query.k;
    if k == 0 || catalog_items == 0 {
        return;
    }
    let chunk = chunk_items.max(1);
    let survives = |v: ItemId| query.seen.binary_search(&v).is_err();

    // One closure scores the staged chunk and offers it to the heap; the
    // two scan modes below only differ in how they stage `scratch.ids`.
    let score_chunk = |ids: &[ItemId], scores: &mut Vec<f32>, heap: &mut Vec<(ItemId, f32)>| {
        if ids.is_empty() {
            return;
        }
        model.score_block(query.user, ids, scores);
        for (&v, &s) in ids.iter().zip(scores.iter()) {
            topk::offer(heap, k, (v, s));
        }
    };

    match query.candidates {
        // Catalogue scan: contiguous id ranges, seen-filtered. The ids
        // ascend and `seen` is sorted, so one cursor walks `seen` beside
        // them instead of searching it once per id.
        None => {
            let seen = query.seen;
            let mut cursor = 0usize;
            let mut start = 0usize;
            while start < catalog_items {
                let end = (start + chunk).min(catalog_items);
                scratch.ids.clear();
                scratch
                    .ids
                    .extend((start as ItemId..end as ItemId).filter(|&v| {
                        while cursor < seen.len() && seen[cursor] < v {
                            cursor += 1;
                        }
                        seen.get(cursor) != Some(&v)
                    }));
                score_chunk(&scratch.ids, &mut scratch.scores, &mut scratch.heap);
                start = end;
            }
        }
        // Restricted scan: the caller's candidate list, in caller order
        // (order cannot matter — the ranking is a total order over ids).
        Some(cands) => {
            for chunk_slice in cands.chunks(chunk) {
                scratch.ids.clear();
                scratch.ids.extend(chunk_slice.iter().copied().filter(|&v| {
                    debug_assert!(
                        (v as usize) < catalog_items,
                        "candidate {v} outside the catalogue"
                    );
                    survives(v)
                }));
                score_chunk(&scratch.ids, &mut scratch.scores, &mut scratch.heap);
            }
        }
    }

    topk::drain_ranked(&mut scratch.heap);
    out.extend_from_slice(&scratch.heap);
}

/// Top-k retrieval over an `Arc`-shared frozen model snapshot.
///
/// Cloning a `Retriever` clones the `Arc`, not the model — every serving
/// thread can hold its own handle to one set of parameters. Training
/// happens elsewhere; to deploy a new snapshot, build a new `Retriever`
/// and swap it in.
///
/// ```
/// use mars_serve::{RecQuery, Retriever};
/// use mars_data::{ItemId, UserId};
/// use mars_metrics::Scorer;
///
/// struct Popularity;
/// impl Scorer for Popularity {
///     fn score(&self, _u: UserId, item: ItemId) -> f32 { -(item as f32) }
/// }
///
/// let r = Retriever::new(Popularity, 100);
/// let seen = [0, 1];
/// let resp = r.retrieve(&RecQuery::top_k(7, 3).excluding(&seen));
/// assert_eq!(resp.items(), vec![2, 3, 4]); // best unseen under the scorer
/// ```
pub struct Retriever<S: ?Sized> {
    model: Arc<S>,
    catalog_items: usize,
    chunk_items: usize,
    ivf: Option<IvfHandle<S>>,
}

/// An attached IVF index plus the monomorphized probe entry point.
///
/// [`Retriever::with_index`] requires `S: IndexEmbeddings`, but the
/// retrieval surface is generic over plain `S: Scorer` — storing the
/// search routine as a `fn` pointer captured at attach time lets the
/// `Scorer`-bounded paths route through the index without widening their
/// bounds (and keeps `Clone` a cheap `Arc` + pointer copy).
struct IvfHandle<S: ?Sized> {
    index: Arc<IvfIndex>,
    /// Cells probed per facet — initialized from the index's build-time
    /// value, overridable per retriever ([`Retriever::with_probe`]) so
    /// several retrievers can share one index at different fidelity.
    nprobe: usize,
    /// Probe mode, same per-retriever override discipline as `nprobe`.
    mode: IvfMode,
    search: IvfSearchFn<S>,
}

/// The monomorphized probe routine an [`IvfHandle`] stores: the arguments
/// of [`Retriever::retrieve_ranked_into`] plus the index, the handle's
/// `nprobe`/`mode` overrides, and the chunk size.
type IvfSearchFn<S> = fn(
    &S,
    &IvfIndex,
    usize,
    IvfMode,
    usize,
    &RecQuery<'_>,
    &mut RetrievalScratch,
    &mut Vec<(ItemId, f32)>,
);

impl<S: ?Sized> Clone for IvfHandle<S> {
    fn clone(&self) -> Self {
        Self {
            index: Arc::clone(&self.index),
            nprobe: self.nprobe,
            mode: self.mode,
            search: self.search,
        }
    }
}

// Manual impl: `#[derive(Clone)]` would demand `S: Clone`, but only the
// handle is cloned.
impl<S: ?Sized> Clone for Retriever<S> {
    fn clone(&self) -> Self {
        Self {
            model: Arc::clone(&self.model),
            catalog_items: self.catalog_items,
            chunk_items: self.chunk_items,
            ivf: self.ivf.clone(),
        }
    }
}

impl<S: Scorer> Retriever<S> {
    /// Takes ownership of `model` as the served snapshot.
    pub fn new(model: S, catalog_items: usize) -> Self {
        Self::from_arc(Arc::new(model), catalog_items)
    }
}

impl<S: Scorer + ?Sized> Retriever<S> {
    /// Serves an already-shared snapshot (e.g. one also held by an
    /// evaluation thread).
    pub fn from_arc(model: Arc<S>, catalog_items: usize) -> Self {
        Self {
            model,
            catalog_items,
            chunk_items: DEFAULT_CHUNK_ITEMS,
            ivf: None,
        }
    }

    /// Overrides the scan-chunk size (min 1). Results are bit-identical
    /// at any value; this tunes throughput only.
    // audit:allow(orphan-pub) — test support: chunk-size invariance tests
    pub fn with_chunk_items(mut self, chunk_items: usize) -> Self {
        self.chunk_items = chunk_items.max(1);
        self
    }

    /// The served model snapshot.
    pub fn model(&self) -> &Arc<S> {
        &self.model
    }

    /// Catalogue size the retriever scans.
    pub fn catalog_items(&self) -> usize {
        self.catalog_items
    }

    /// Scan-chunk size in use.
    pub fn chunk_items(&self) -> usize {
        self.chunk_items
    }

    /// One query, fresh buffers — the convenience entry point.
    pub fn retrieve(&self, query: &RecQuery<'_>) -> RecResponse {
        self.retrieve_with(query, &mut RetrievalScratch::new())
    }

    /// One query with caller-held scratch (steady state: the response
    /// vector is the only allocation).
    pub fn retrieve_with(
        &self,
        query: &RecQuery<'_>,
        scratch: &mut RetrievalScratch,
    ) -> RecResponse {
        let mut ranked = Vec::new();
        self.retrieve_ranked_into(query, scratch, &mut ranked);
        RecResponse {
            user: query.user,
            ranked,
            // A direct retrieval computes exactly what was asked; only the
            // service's degradation ladder ever flips this.
            degraded: false,
        }
    }

    /// One query, fully allocation-free in steady state: the ranked list
    /// is written into `out` (cleared first), whose capacity — like the
    /// scratch buffers' — survives across requests.
    pub fn retrieve_ranked_into(
        &self,
        query: &RecQuery<'_>,
        scratch: &mut RetrievalScratch,
        out: &mut Vec<(ItemId, f32)>,
    ) {
        // Catalogue queries route through the attached IVF index, if any;
        // candidate-restricted queries always take the exact path (the
        // shortlist is already sublinear).
        if query.candidates.is_none() {
            if let Some(h) = &self.ivf {
                (h.search)(
                    self.model.as_ref(),
                    &h.index,
                    h.nprobe,
                    h.mode,
                    self.chunk_items,
                    query,
                    scratch,
                    out,
                );
                return;
            }
        }
        rank_into(
            self.model.as_ref(),
            self.catalog_items,
            self.chunk_items,
            query,
            scratch,
            out,
        );
    }

    /// The attached IVF index, if any.
    pub fn index(&self) -> Option<&Arc<IvfIndex>> {
        self.ivf.as_ref().map(|h| &h.index)
    }

    /// Overrides the probe fidelity of the attached index **for this
    /// retriever only** (`nprobe` min 1; no-op without an index). The
    /// index stores are shared untouched — this is how a degradation
    /// ladder stacks several fidelity rungs over one index build.
    pub fn with_probe(mut self, nprobe: usize, mode: IvfMode) -> Self {
        if let Some(h) = &mut self.ivf {
            h.nprobe = nprobe.max(1);
            h.mode = mode;
        }
        self
    }
}

impl<S: IndexEmbeddings + Sync + ?Sized> Retriever<S> {
    /// Builds an IVF index over the served snapshot and routes every
    /// catalogue query through it (see [`crate::index`] for the recall /
    /// determinism trade-offs; the exact scan remains the default for
    /// retrievers that never call this).
    // audit:allow(orphan-pub) — test support: the IVF suites build and attach in one call
    pub fn with_index(self, cfg: IvfConfig) -> Self {
        let index = IvfIndex::build(self.model.as_ref(), self.catalog_items, cfg);
        self.with_prebuilt_index(Arc::new(index))
    }

    /// Attaches an already-built index (e.g. one shared across retrievers,
    /// then re-tuned via [`Self::with_probe`]).
    ///
    /// # Panics
    /// If the index was built over a different catalogue size.
    pub fn with_prebuilt_index(mut self, index: Arc<IvfIndex>) -> Self {
        assert_eq!(
            index.items(),
            self.catalog_items,
            "IVF index built for a different catalogue"
        );
        self.ivf = Some(IvfHandle {
            nprobe: index.nprobe(),
            mode: index.mode(),
            index,
            search: crate::index::ivf_search::<S>,
        });
        self
    }
}

impl<S: Scorer + Sync + Send + ?Sized> Retriever<S> {
    /// Serves a batch of queries fanned across `pool`, one response per
    /// query in query order.
    ///
    /// Queries shard positionally ([`chunk_ranges`]) and each is served
    /// independently with its worker's own scratch, so — per the
    /// established shard-order-merge contract — the returned responses
    /// are **bit-identical at any worker count** to serving the queries
    /// one by one ([`Retriever::retrieve`]).
    pub fn retrieve_batch(&self, queries: &[RecQuery<'_>], pool: &WorkerPool) -> Vec<RecResponse> {
        struct Shard {
            range: std::ops::Range<usize>,
            scratch: RetrievalScratch,
            out: Vec<RecResponse>,
        }
        let mut shards: Vec<Shard> = chunk_ranges(queries.len(), pool.workers())
            .into_iter()
            .map(|range| Shard {
                out: Vec::with_capacity(range.len()),
                scratch: RetrievalScratch::new(),
                range,
            })
            .collect();
        pool.scatter(&mut shards, |_, sh| {
            sh.out.clear();
            for i in sh.range.clone() {
                sh.out
                    .push(self.retrieve_with(&queries[i], &mut sh.scratch));
            }
        });
        // Shards are contiguous in-order query ranges: shard order is
        // query order.
        let mut out = Vec::with_capacity(queries.len());
        for sh in shards {
            out.extend(sh.out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topk::full_sort_top_k;
    use mars_data::UserId;

    /// Structureless deterministic scorer (same scheme as the evaluator's
    /// protocol tests) — any scoring discrepancy moves some rank.
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

    fn bits(v: &[(ItemId, f32)]) -> Vec<(ItemId, u32)> {
        v.iter().map(|&(i, s)| (i, s.to_bits())).collect()
    }

    #[test]
    fn retrieve_matches_full_sort_reference() {
        let r = Retriever::new(Hashing, 137);
        let seen = [3, 4, 50, 136];
        for k in [1usize, 10, 137, 500] {
            let q = RecQuery::top_k(5, k).excluding(&seen);
            let got = r.retrieve(&q);
            let expect = full_sort_top_k(&Hashing, 137, &q);
            assert_eq!(bits(&got.ranked), bits(&expect), "k = {k}");
            assert_eq!(got.user, 5);
        }
    }

    #[test]
    fn chunk_size_cannot_change_the_result() {
        let seen = [7, 8, 9, 60];
        let q = RecQuery::top_k(2, 12).excluding(&seen);
        let reference = Retriever::new(Hashing, 101).retrieve(&q);
        for chunk in [1usize, 2, 13, 100, 101, 4096] {
            let r = Retriever::new(Hashing, 101).with_chunk_items(chunk);
            assert_eq!(
                bits(&r.retrieve(&q).ranked),
                bits(&reference.ranked),
                "chunk = {chunk}"
            );
        }
    }

    #[test]
    fn candidate_restriction_scores_only_the_shortlist() {
        let r = Retriever::new(Hashing, 1000);
        let cands = [900, 3, 77, 501, 77];
        let resp = r.retrieve(&RecQuery::top_k(1, 10).among(&cands));
        // Every returned item comes from the shortlist (duplicates and
        // all), ranked by the total order.
        assert_eq!(resp.len(), 5);
        for &(v, _) in &resp.ranked {
            assert!(cands.contains(&v));
        }
        let expect = full_sort_top_k(&Hashing, 1000, &RecQuery::top_k(1, 10).among(&cands));
        assert_eq!(bits(&resp.ranked), bits(&expect));
    }

    #[test]
    fn seen_filter_applies_to_candidate_lists_too() {
        let r = Retriever::new(Hashing, 100);
        let cands = [1, 2, 3, 4];
        let seen = [2, 3];
        let resp = r.retrieve(&RecQuery::top_k(0, 10).among(&cands).excluding(&seen));
        let ids: Vec<ItemId> = resp.items();
        assert_eq!(ids.len(), 2);
        assert!(ids.contains(&1) && ids.contains(&4));
    }

    #[test]
    fn degenerate_queries_return_empty() {
        let r = Retriever::new(Hashing, 10);
        assert!(r.retrieve(&RecQuery::top_k(0, 0)).is_empty());
        let all: Vec<ItemId> = (0..10).collect();
        assert!(r
            .retrieve(&RecQuery::top_k(0, 5).excluding(&all))
            .is_empty());
        assert!(r.retrieve(&RecQuery::top_k(0, 5).among(&[])).is_empty());
        let empty_catalog = Retriever::new(Hashing, 0);
        assert!(empty_catalog.retrieve(&RecQuery::top_k(0, 5)).is_empty());
    }

    #[test]
    fn scratch_reuse_is_invisible() {
        let r = Retriever::new(Hashing, 64);
        let mut scratch = RetrievalScratch::new();
        let fresh: Vec<RecResponse> = (0..8).map(|u| r.retrieve(&RecQuery::top_k(u, 6))).collect();
        for (u, expect) in fresh.iter().enumerate() {
            let got = r.retrieve_with(&RecQuery::top_k(u as UserId, 6), &mut scratch);
            assert_eq!(bits(&got.ranked), bits(&expect.ranked));
        }
    }

    #[test]
    fn batched_retrieval_is_bit_identical_at_every_worker_count() {
        let r = Retriever::new(Hashing, 230);
        let seen: Vec<ItemId> = (0..230).filter(|v| v % 7 == 0).collect();
        let queries: Vec<RecQuery<'_>> = (0..33)
            .map(|u| RecQuery::top_k(u, 10).excluding(&seen))
            .collect();
        let reference: Vec<RecResponse> = queries.iter().map(|q| r.retrieve(q)).collect();
        for workers in 1..=8 {
            let got = r.retrieve_batch(&queries, &WorkerPool::new(workers));
            assert_eq!(got.len(), reference.len());
            for (g, e) in got.iter().zip(&reference) {
                assert_eq!(g.user, e.user);
                assert_eq!(
                    bits(&g.ranked),
                    bits(&e.ranked),
                    "diverged at {workers} workers"
                );
            }
        }
    }

    #[test]
    fn retriever_clone_shares_the_snapshot() {
        let r = Retriever::new(Hashing, 50).with_chunk_items(7);
        let c = r.clone();
        assert!(Arc::ptr_eq(r.model(), c.model()));
        assert_eq!(c.catalog_items(), 50);
        assert_eq!(c.chunk_items(), 7);
        let q = RecQuery::top_k(1, 5);
        assert_eq!(bits(&r.retrieve(&q).ranked), bits(&c.retrieve(&q).ranked));
    }
}
