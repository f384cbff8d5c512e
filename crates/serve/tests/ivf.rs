//! Property tests for the IVF index path.
//!
//! Two contracts, probed with deliberately hostile embeddings (NaN, ±∞,
//! signed zeros, all-tie weights — every value class `rank_cmp`'s total
//! order has to absorb):
//!
//! * **Exhaustive probe ≡ exact scan.** With `nprobe == cells` the
//!   candidate union is the whole catalogue (each facet's cells partition
//!   the items no matter how degenerate the vectors are), so
//!   `IvfMode::ExactRescore` must reproduce the exact engine **bit for
//!   bit** — any catalogue size, chunk size, seen-filter, store, metric.
//! * **Partial probes stay deterministic.** At any `nprobe`, the ranked
//!   list is a well-formed top-k (ordered under `rank_cmp`, deduplicated,
//!   seen-filtered) and bit-identical across chunk sizes, scratch reuse,
//!   and `retrieve_batch` worker counts — approximation changes *which*
//!   items are considered, never introduces nondeterminism or a panic.

use mars_data::{ItemId, UserId};
use mars_metrics::Scorer;
use mars_runtime::WorkerPool;
use mars_serve::{
    rank_cmp, CellStore, IndexEmbeddings, IndexMetric, IvfConfig, IvfMode, RecQuery, RecResponse,
    RetrievalScratch, Retriever,
};
use mars_tensor::ops;
use proptest::prelude::*;
use std::sync::Arc;

/// A multi-facet embedding scorer whose score is exactly the coarse form
/// `Σ_f w_f · m(u_f, v_f)` — the values (including the weights) come from
/// a drawn pool that injects non-finite classes.
#[derive(Clone)]
struct EmbScorer {
    facets: usize,
    dim: usize,
    metric: IndexMetric,
    items: Vec<f32>,   // n × facets × dim
    users: Vec<f32>,   // u × facets × dim
    weights: Vec<f32>, // facets
}

impl EmbScorer {
    /// Builds the scorer from drawn knobs: a value pool (as hostile-class
    /// codes), facet/dim/metric selectors, and a catalogue size.
    fn from_draw(pool: &[u8], facets: usize, dim: usize, metric_code: u8, n: usize) -> Self {
        let users = 3usize;
        let fill = |len: usize, off: usize| -> Vec<f32> {
            (0..len)
                .map(|i| hostile(pool[(off + i) % pool.len()]))
                .collect()
        };
        EmbScorer {
            facets,
            dim,
            metric: if metric_code == 0 {
                IndexMetric::InnerProduct
            } else {
                IndexMetric::NegSquaredL2
            },
            items: fill(n * facets * dim, 0),
            users: fill(users * facets * dim, 7),
            weights: fill(facets, 3),
        }
    }
    fn item(&self, v: ItemId, f: usize) -> &[f32] {
        let s = (v as usize * self.facets + f) * self.dim;
        &self.items[s..s + self.dim]
    }
    fn user(&self, u: UserId, f: usize) -> &[f32] {
        let s = (u as usize * self.facets + f) * self.dim;
        &self.users[s..s + self.dim]
    }
    fn num_users(&self) -> usize {
        self.users.len() / (self.facets * self.dim)
    }
}

impl Scorer for EmbScorer {
    fn score(&self, u: UserId, v: ItemId) -> f32 {
        let mut s = 0.0;
        for f in 0..self.facets {
            let m = match self.metric {
                IndexMetric::InnerProduct => ops::dot(self.user(u, f), self.item(v, f)),
                IndexMetric::NegSquaredL2 => -ops::dist_sq(self.user(u, f), self.item(v, f)),
            };
            s += self.weights[f] * m;
        }
        s
    }
}

impl IndexEmbeddings for EmbScorer {
    fn num_index_facets(&self) -> usize {
        self.facets
    }
    fn index_dim(&self) -> usize {
        self.dim
    }
    fn index_metric(&self) -> IndexMetric {
        self.metric
    }
    fn item_index_vector(&self, v: ItemId, f: usize, out: &mut [f32]) {
        out.copy_from_slice(self.item(v, f));
    }
    fn query_index_vector(&self, user: UserId, f: usize, out: &mut [f32]) -> f32 {
        out.copy_from_slice(self.user(user, f));
        self.weights[f]
    }
}

/// Maps a drawn class code to a float, biased towards ordinary magnitudes
/// but guaranteeing non-finite and signed-zero coverage.
fn hostile(code: u8) -> f32 {
    match code {
        0 => f32::NAN,
        1 => f32::INFINITY,
        2 => f32::NEG_INFINITY,
        3 => 0.0,
        4 => -0.0,
        c => (c as f32 - 9.0) * 0.37, // 5..=13 → spread of ordinary values
    }
}

fn store_from(code: u8) -> CellStore {
    if code == 0 {
        CellStore::F32
    } else {
        CellStore::Int8
    }
}

fn mode_from(code: u8) -> IvfMode {
    match code {
        0 => IvfMode::ExactRescore,
        1 => IvfMode::Coarse { refine: 0 },
        _ => IvfMode::Coarse { refine: 3 },
    }
}

fn bits(v: &[(ItemId, f32)]) -> Vec<(ItemId, u64)> {
    v.iter().map(|&(i, s)| (i, s.to_bits() as u64)).collect()
}

/// Well-formedness of a ranked response: ordered under the total order,
/// deduplicated, nothing seen, at most k entries.
fn assert_well_formed(resp: &RecResponse, k: usize, seen: &[ItemId]) {
    assert!(resp.len() <= k);
    for w in resp.ranked.windows(2) {
        assert_ne!(
            rank_cmp(w[1], w[0]),
            std::cmp::Ordering::Less,
            "order violated: {:?}",
            resp.ranked
        );
    }
    let mut ids: Vec<ItemId> = resp.items();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), resp.len(), "duplicate ids surfaced");
    assert!(resp.items().iter().all(|v| seen.binary_search(v).is_err()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Exhaustive probe + ExactRescore ≡ the exact engine, bitwise — for
    /// both metrics, both stores, hostile embeddings included.
    #[test]
    fn full_probe_exact_rescore_equals_exact_scan(
        pool in proptest::collection::vec(0u8..14, 16..600),
        (facets, dim, n) in (1usize..3, 1usize..6, 1usize..70),
        metric_code in 0u8..2,
        cells in 1usize..9,
        chunk in 1usize..80,
        seen_stride in 1usize..9,
        store_code in 0u8..2,
    ) {
        let model = EmbScorer::from_draw(&pool, facets, dim, metric_code, n);
        let seen: Vec<ItemId> = (0..n as ItemId).step_by(seen_stride).collect();
        let exact = Retriever::new(model, n).with_chunk_items(chunk);
        let indexed = exact.clone().with_index(IvfConfig {
            cells,
            nprobe: cells, // exhaustive even after build clamps cells to n
            store: store_from(store_code),
            mode: IvfMode::ExactRescore,
            ..IvfConfig::default()
        });
        for u in 0..exact.model().num_users() as UserId {
            for k in [1usize, n, n + 7] {
                let q = RecQuery::top_k(u, k).excluding(&seen);
                let got = indexed.retrieve(&q);
                let expect = exact.retrieve(&q);
                prop_assert!(
                    bits(&got.ranked) == bits(&expect.ranked),
                    "diverged: n {} cells {} chunk {} k {} user {}", n, cells, chunk, k, u
                );
            }
        }
    }

    /// Partial probes: every mode/store is panic-free on hostile input,
    /// well-formed, and bit-identical across chunk sizes, scratch reuse
    /// and worker counts.
    #[test]
    fn partial_probe_is_deterministic_and_well_formed(
        pool in proptest::collection::vec(0u8..14, 16..600),
        (facets, dim, n) in (1usize..3, 1usize..6, 1usize..60),
        metric_code in 0u8..2,
        (cells, nprobe, k) in (1usize..8, 1usize..8, 1usize..20),
        seen_stride in 2usize..9,
        store_code in 0u8..2,
        mode_code in 0u8..3,
    ) {
        let model = EmbScorer::from_draw(&pool, facets, dim, metric_code, n);
        let users = model.num_users();
        let seen: Vec<ItemId> = (0..n as ItemId).step_by(seen_stride).collect();
        let (store, mode) = (store_from(store_code), mode_from(mode_code));
        let base = Retriever::new(model, n).with_index(IvfConfig {
            cells,
            nprobe,
            store,
            mode,
            ..IvfConfig::default()
        });
        let queries: Vec<RecQuery<'_>> = (0..users as UserId)
            .map(|u| RecQuery::top_k(u, k).excluding(&seen))
            .collect();

        // Reference: chunk size 1, fresh scratch per query.
        let reference: Vec<RecResponse> = {
            let r = base.clone().with_chunk_items(1);
            queries.iter().map(|q| r.retrieve(q)).collect()
        };
        for resp in &reference {
            assert_well_formed(resp, k, &seen);
        }

        // Chunk sizes and scratch reuse cannot change a bit.
        for chunk in [2usize, 17, 256] {
            let r = base.clone().with_chunk_items(chunk);
            let mut scratch = RetrievalScratch::new();
            for (q, e) in queries.iter().zip(&reference) {
                let got = r.retrieve_with(q, &mut scratch);
                prop_assert!(
                    bits(&got.ranked) == bits(&e.ranked),
                    "chunk {} diverged ({:?} {:?})", chunk, store, mode
                );
            }
        }

        // Worker counts cannot change a bit.
        for workers in 1..=4usize {
            let got = base.retrieve_batch(&queries, &WorkerPool::new(workers));
            prop_assert_eq!(got.len(), reference.len());
            for (g, e) in got.iter().zip(&reference) {
                prop_assert!(
                    bits(&g.ranked) == bits(&e.ranked),
                    "{} workers diverged ({:?} {:?})", workers, store, mode
                );
            }
        }
    }

    /// Candidate-restricted queries bypass the index entirely: indexed and
    /// plain retrievers agree bitwise on any shortlist at any probe width.
    #[test]
    fn candidate_queries_bypass_the_index(
        pool in proptest::collection::vec(0u8..14, 16..400),
        (facets, dim, n) in (1usize..3, 1usize..5, 1usize..50),
        metric_code in 0u8..2,
        cands in proptest::collection::vec(0u32..50, 0..30),
        nprobe in 1usize..4,
        k in 0usize..15,
    ) {
        let model = EmbScorer::from_draw(&pool, facets, dim, metric_code, n);
        let mut cands: Vec<ItemId> =
            cands.into_iter().filter(|&v| (v as usize) < n).collect();
        cands.sort_unstable();
        cands.dedup();
        let exact = Retriever::new(model, n);
        let indexed = exact.clone().with_index(IvfConfig {
            cells: 3.min(n),
            nprobe,
            ..IvfConfig::default()
        });
        for u in 0..exact.model().num_users() as UserId {
            let q = RecQuery::top_k(u, k).among(&cands);
            prop_assert!(
                bits(&indexed.retrieve(&q).ranked) == bits(&exact.retrieve(&q).ranked),
                "shortlist of {} diverged", cands.len()
            );
        }
    }
}

/// Everything ties (zero weights): ranking degrades to the pure id
/// tie-break on every path through the index.
#[test]
fn all_tie_scores_rank_by_ascending_id_through_the_index() {
    let n = 40usize;
    let model = EmbScorer {
        facets: 1,
        dim: 2,
        metric: IndexMetric::InnerProduct,
        items: (0..n * 2).map(|i| (i % 7) as f32).collect(),
        users: vec![1.0; 4],
        weights: vec![0.0],
    };
    let seen = [0, 5];
    for mode in [
        IvfMode::ExactRescore,
        IvfMode::Coarse { refine: 0 },
        IvfMode::Coarse { refine: 2 },
    ] {
        let r = Retriever::new(model.clone(), n).with_index(IvfConfig {
            cells: 5,
            nprobe: 5,
            mode,
            ..IvfConfig::default()
        });
        let got = r.retrieve(&RecQuery::top_k(0, 6).excluding(&seen));
        assert_eq!(got.items(), vec![1, 2, 3, 4, 6, 7], "{mode:?}");
        assert!(got.ranked.iter().all(|&(_, s)| s == 0.0));
    }
}

/// The index handle is part of the retriever's cheap `Clone`: clones share
/// the same `Arc`-held index and serve identical results.
#[test]
fn cloned_retrievers_share_the_index() {
    let model = EmbScorer {
        facets: 2,
        dim: 3,
        metric: IndexMetric::NegSquaredL2,
        items: (0..60 * 2 * 3)
            .map(|i| ((i * 31) % 17) as f32 * 0.1)
            .collect(),
        users: (0..2 * 2 * 3).map(|i| (i % 5) as f32 * 0.2).collect(),
        weights: vec![0.7, 0.3],
    };
    let r = Retriever::new(model, 60).with_index(IvfConfig {
        cells: 6,
        nprobe: 2,
        ..IvfConfig::default()
    });
    let c = r.clone();
    assert!(Arc::ptr_eq(r.index().unwrap(), c.index().unwrap()));
    let q = RecQuery::top_k(1, 8);
    assert_eq!(bits(&r.retrieve(&q).ranked), bits(&c.retrieve(&q).ranked));
}
