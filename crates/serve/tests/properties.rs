//! Property tests for the retrieval engine's exactness contract:
//! bounded-heap top-k must be **bit-identical** to the full-sort
//! reference for any scorer, any chunk size, any `k` (1, the catalogue,
//! beyond it), any seen-filter, any candidate restriction — and batched
//! retrieval must be bit-identical to single-query retrieval at every
//! worker count.
//!
//! The scorers here are deliberately hostile: a structureless hash (any
//! mis-ranked pair moves a rank), a constant (pure id-tie-break coverage),
//! and a NaN/∞-injecting wrapper (total-order coverage). The workspace's
//! real models are covered by the umbrella `tests/serving.rs` suite.

use mars_data::{ItemId, UserId};
use mars_metrics::Scorer;
use mars_runtime::WorkerPool;
use mars_serve::{full_sort_top_k, RecQuery, RecResponse, RetrievalScratch, Retriever};
use proptest::prelude::*;
use std::sync::Arc;

/// Structureless deterministic scorer.
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

/// Everything ties: ranking is decided entirely by the id tie-break.
struct Constant;
impl Scorer for Constant {
    fn score(&self, _: UserId, _: ItemId) -> f32 {
        0.5
    }
}

/// Hostile float output: sprinkles NaN (both signs), ±∞ and signed zeros
/// over the hash scorer — every non-finite class the total order covers.
struct Hostile;
impl Scorer for Hostile {
    fn score(&self, user: UserId, item: ItemId) -> f32 {
        match item % 11 {
            0 => f32::NAN,
            4 => -f32::NAN,
            7 => f32::INFINITY,
            9 => f32::NEG_INFINITY,
            2 => -0.0,
            5 => 0.0,
            _ => Hashing.score(user, item),
        }
    }
}

fn scorers() -> Vec<(&'static str, Arc<dyn Scorer + Sync + Send>)> {
    vec![
        ("hashing", Arc::new(Hashing)),
        ("constant", Arc::new(Constant)),
        ("hostile", Arc::new(Hostile)),
    ]
}

fn bits(v: &[(ItemId, f32)]) -> Vec<(ItemId, u64)> {
    v.iter().map(|&(i, s)| (i, s.to_bits() as u64)).collect()
}

/// Sorted, deduplicated seen list drawn from the catalogue.
fn make_seen(catalog: usize, stride: usize) -> Vec<ItemId> {
    (0..catalog as ItemId).step_by(stride.max(1)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Heap-select ≡ full sort, across catalogue sizes, chunk sizes, k
    /// (down to 1, exactly the catalogue, beyond it) and seen strides —
    /// for every scorer, down to the bit.
    #[test]
    fn heap_select_is_bit_identical_to_full_sort(
        catalog in 1usize..260,
        chunk in 1usize..300,
        seen_stride in 1usize..12,
        user in 0u32..5,
    ) {
        let seen = make_seen(catalog, seen_stride);
        for (name, scorer) in scorers() {
            let r = Retriever::from_arc(scorer, catalog).with_chunk_items(chunk);
            for k in [1usize, catalog, catalog + 13] {
                let q = RecQuery::top_k(user, k).excluding(&seen);
                let got = r.retrieve(&q);
                let expect = full_sort_top_k(r.model().as_ref(), catalog, &q);
                prop_assert!(
                    bits(&got.ranked) == bits(&expect),
                    "{} diverged: catalog {} chunk {} k {}", name, catalog, chunk, k
                );
            }
        }
    }

    /// The catalogue scan filters `seen` with a cursor that walks the
    /// sorted list beside the ascending ids; the reference searches it once
    /// per id. Same survivors whatever the list holds — duplicates, ids past
    /// the catalogue, every id, none, runs straddling chunk boundaries — at
    /// every chunk size (1, odd, the default, beyond the catalogue) and k
    /// (0, 1, 10, beyond the survivors).
    #[test]
    fn seen_cursor_is_bit_identical_to_full_sort(
        catalog in 1usize..300,
        drawn in proptest::collection::vec(0u32..330, 0..120),
        user in 0u32..5,
    ) {
        let mut drawn = drawn;
        drawn.sort_unstable();
        let every: Vec<ItemId> = (0..catalog as ItemId).collect();
        for chunk in [1usize, 7, 256, catalog + 5] {
            // Four ids around each chunk boundary; runs overlap (and so
            // repeat ids) when chunks are shorter than a run.
            let mut straddling: Vec<ItemId> = (1..=catalog / chunk)
                .flat_map(|b| (b * chunk).saturating_sub(2)..b * chunk + 2)
                .map(|v| v as ItemId)
                .collect();
            straddling.sort_unstable();
            for (shape, seen) in [
                ("drawn", &drawn),
                ("every id", &every),
                ("none", &Vec::new()),
                ("straddling", &straddling),
            ] {
                for (name, scorer) in scorers() {
                    let r = Retriever::from_arc(scorer, catalog).with_chunk_items(chunk);
                    for k in [0usize, 1, 10, catalog + 13] {
                        let q = RecQuery::top_k(user, k).excluding(seen);
                        let got = r.retrieve(&q);
                        let expect = full_sort_top_k(r.model().as_ref(), catalog, &q);
                        prop_assert!(
                            bits(&got.ranked) == bits(&expect),
                            "{} diverged: seen {} catalog {} chunk {} k {}",
                            name, shape, catalog, chunk, k
                        );
                    }
                }
            }
        }
    }

    /// Candidate-restricted retrieval ≡ full sort over the same
    /// shortlist, including duplicates and seen overlap.
    #[test]
    fn candidate_restriction_is_bit_identical_to_full_sort(
        catalog in 1usize..200,
        cands in proptest::collection::vec(0u32..200, 0..80),
        chunk in 1usize..40,
        k in 0usize..30,
        user in 0u32..5,
    ) {
        let cands: Vec<ItemId> = cands.into_iter().filter(|&v| (v as usize) < catalog).collect();
        let seen = make_seen(catalog, 5);
        for (name, scorer) in scorers() {
            let r = Retriever::from_arc(scorer, catalog).with_chunk_items(chunk);
            let q = RecQuery::top_k(user, k).among(&cands).excluding(&seen);
            let got = r.retrieve(&q);
            let expect = full_sort_top_k(r.model().as_ref(), catalog, &q);
            prop_assert!(
                bits(&got.ranked) == bits(&expect),
                "{} diverged on a shortlist of {}", name, cands.len()
            );
            // Nothing seen may surface.
            prop_assert!(got.ranked.iter().all(|(v, _)| seen.binary_search(v).is_err()));
        }
    }

    /// Batched retrieval ≡ the single-query loop at 1..=8 workers.
    #[test]
    fn batched_retrieval_is_worker_count_invariant(
        catalog in 1usize..180,
        num_queries in 0usize..40,
        chunk in 1usize..64,
        k in 1usize..25,
    ) {
        let seen = make_seen(catalog, 3);
        for (name, scorer) in scorers() {
            let r = Retriever::from_arc(scorer, catalog).with_chunk_items(chunk);
            let queries: Vec<RecQuery<'_>> = (0..num_queries as UserId)
                .map(|u| RecQuery::top_k(u, k).excluding(&seen))
                .collect();
            let mut scratch = RetrievalScratch::new();
            let reference: Vec<RecResponse> = queries
                .iter()
                .map(|q| r.retrieve_with(q, &mut scratch))
                .collect();
            for workers in 1..=8usize {
                let got = r.retrieve_batch(&queries, &WorkerPool::new(workers));
                prop_assert_eq!(got.len(), reference.len());
                for (g, e) in got.iter().zip(&reference) {
                    prop_assert_eq!(g.user, e.user);
                    prop_assert!(
                        bits(&g.ranked) == bits(&e.ranked),
                        "{} diverged at {} workers", name, workers
                    );
                }
            }
        }
    }
}

#[test]
fn seen_everything_yields_empty_everywhere() {
    let catalog = 37;
    let seen: Vec<ItemId> = (0..catalog as ItemId).collect();
    for (_, scorer) in scorers() {
        let r = Retriever::from_arc(scorer, catalog);
        let q = RecQuery::top_k(0, 10).excluding(&seen);
        assert!(r.retrieve(&q).is_empty());
        assert!(full_sort_top_k(r.model().as_ref(), catalog, &q).is_empty());
        let batch = r.retrieve_batch(&[q, q], &WorkerPool::new(3));
        assert!(batch.iter().all(RecResponse::is_empty));
    }
}

#[test]
fn nan_scored_items_never_outrank_real_ones() {
    // Hostile scores items ≡ 0 / 4 (mod 11) as NaN; with enough real
    // candidates available, no NaN id may appear in the top k.
    let catalog = 110;
    let r = Retriever::new(Hostile, catalog);
    let resp = r.retrieve(&RecQuery::top_k(3, 20));
    assert_eq!(resp.len(), 20);
    for &(v, s) in &resp.ranked {
        assert!(!s.is_nan(), "NaN item {v} surfaced in the top k");
    }
    // Asking for the whole catalogue pushes the NaNs to the tail, id-ordered.
    let all = r.retrieve(&RecQuery::top_k(3, catalog));
    let nan_tail: Vec<ItemId> = all
        .ranked
        .iter()
        .skip_while(|(_, s)| !s.is_nan())
        .map(|&(v, _)| v)
        .collect();
    let expect: Vec<ItemId> = (0..catalog as ItemId)
        .filter(|v| v % 11 == 0 || v % 11 == 4)
        .collect();
    assert_eq!(nan_tail, expect, "NaN tail must be id-ordered and complete");
    assert!(all.ranked[..catalog - nan_tail.len()]
        .iter()
        .all(|(_, s)| !s.is_nan()));
}
