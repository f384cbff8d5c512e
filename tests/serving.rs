//! Integration tests for the unified retrieval API over every real scorer
//! in the workspace: the eight baselines plus MAR and MARS, all trained
//! briefly on one planted dataset.
//!
//! The contract under test is the serving layer's exactness guarantee:
//! bounded-heap retrieval is **bit-identical** to the full-sort reference
//! at every chunk size and every worker count, for every model — and
//! `MultiFacetModel::recommend` is the same ranked list again.

use mars_repro::baselines::{
    bpr::Bpr, cml::Cml, lrml::Lrml, metricf::MetricF, neumf::NeuMf, nmf::Nmf, sml::Sml,
    transcf::TransCf, BaselineConfig, ImplicitRecommender,
};
use mars_repro::core::{MarsConfig, Trainer};
use mars_repro::data::{Dataset, ItemId, SyntheticConfig, SyntheticDataset, UserId};
use mars_repro::metrics::beyond_accuracy::{catalogue_coverage, exposure_gini};
use mars_repro::metrics::Scorer;
use mars_repro::runtime::WorkerPool;
use mars_repro::serve::{full_sort_top_k, RecQuery, RecResponse, RetrievalScratch, Retriever};
use std::sync::Arc;

const USERS: usize = 40;
const ITEMS: usize = 45;

fn data() -> SyntheticDataset {
    SyntheticDataset::generate(
        "serving-suite",
        &SyntheticConfig {
            num_users: USERS,
            num_items: ITEMS,
            num_interactions: 900,
            num_categories: 3,
            seed: 23,
            ..Default::default()
        },
    )
}

/// Every scorer the workspace ships, briefly trained on `d`.
fn all_models(d: &Dataset) -> Vec<(&'static str, Arc<dyn Scorer + Sync + Send>)> {
    let cfg = BaselineConfig {
        epochs: 2,
        ..BaselineConfig::quick(8)
    };
    let mut baselines: Vec<Box<dyn ImplicitRecommender + Sync + Send>> = vec![
        Box::new(Bpr::new(cfg.clone(), USERS, ITEMS)),
        Box::new(Nmf::new(cfg.clone(), USERS, ITEMS)),
        Box::new(NeuMf::new(cfg.clone(), USERS, ITEMS)),
        Box::new(Cml::new(cfg.clone(), USERS, ITEMS)),
        Box::new(MetricF::new(cfg.clone(), USERS, ITEMS)),
        Box::new(TransCf::new(cfg.clone(), USERS, ITEMS)),
        Box::new(Lrml::new(cfg.clone(), USERS, ITEMS)),
        Box::new(Sml::new(cfg, USERS, ITEMS)),
    ];
    let mut out: Vec<(&'static str, Arc<dyn Scorer + Sync + Send>)> = Vec::new();
    for mut b in baselines.drain(..) {
        b.fit(d);
        out.push((b.name(), Arc::from(b as Box<dyn Scorer + Sync + Send>)));
    }

    let mut mars = MarsConfig::mars(2, 8);
    mars.epochs = 2;
    out.push(("MARS", Arc::new(Trainer::new(mars).fit(d).model)));
    let mut mar = MarsConfig::mar(2, 8);
    mar.epochs = 2;
    out.push(("MAR", Arc::new(Trainer::new(mar).fit(d).model)));
    out
}

fn bits(v: &[(ItemId, f32)]) -> Vec<(ItemId, u32)> {
    v.iter().map(|&(i, s)| (i, s.to_bits())).collect()
}

#[test]
fn every_scorer_is_bit_identical_to_full_sort_at_any_chunk_size() {
    let data = data();
    let d = &data.dataset;
    for (name, model) in all_models(d) {
        for chunk in [1usize, 17, 101, 1024] {
            let r = Retriever::from_arc(Arc::clone(&model), ITEMS).with_chunk_items(chunk);
            let mut scratch = RetrievalScratch::new();
            for u in (0..USERS as UserId).step_by(7) {
                let seen = d.train.items_of(u);
                for k in [1usize, 10, ITEMS, ITEMS + 5] {
                    let q = RecQuery::top_k(u, k).excluding(seen);
                    let got = r.retrieve_with(&q, &mut scratch);
                    let expect = full_sort_top_k(model.as_ref(), ITEMS, &q);
                    assert_eq!(
                        bits(&got.ranked),
                        bits(&expect),
                        "{name} diverged: user {u}, chunk {chunk}, k {k}"
                    );
                    assert!(got.ranked.iter().all(|(v, _)| !seen.contains(v)));
                }
            }
        }
    }
}

#[test]
fn every_scorer_serves_batches_bit_identically_at_any_worker_count() {
    let data = data();
    let d = &data.dataset;
    for (name, model) in all_models(d) {
        let r = Retriever::from_arc(Arc::clone(&model), ITEMS);
        let queries: Vec<RecQuery<'_>> = (0..USERS as UserId)
            .map(|u| RecQuery::top_k(u, 10).excluding(d.train.items_of(u)))
            .collect();
        let mut scratch = RetrievalScratch::new();
        let reference: Vec<RecResponse> = queries
            .iter()
            .map(|q| r.retrieve_with(q, &mut scratch))
            .collect();
        for workers in [1usize, 2, 4, 8] {
            let got = r.retrieve_batch(&queries, &WorkerPool::new(workers));
            assert_eq!(got.len(), reference.len());
            for (g, e) in got.iter().zip(&reference) {
                assert_eq!(g.user, e.user);
                assert_eq!(
                    bits(&g.ranked),
                    bits(&e.ranked),
                    "{name} diverged at {workers} workers (user {})",
                    e.user
                );
            }
        }
    }
}

#[test]
fn recommend_is_the_retriever_in_disguise() {
    let data = data();
    let d = &data.dataset;
    let mut cfg = MarsConfig::mars(2, 8);
    cfg.epochs = 2;
    let model = Trainer::new(cfg).fit(d).model;
    let r = Retriever::new(model, ITEMS);
    for u in 0..USERS as UserId {
        let seen = d.train.items_of(u);
        let via_recommend = r.model().recommend(u, seen, 10);
        let via_retriever = r.retrieve(&RecQuery::top_k(u, 10).excluding(seen));
        assert_eq!(bits(&via_recommend), bits(&via_retriever.ranked));
    }
}

#[test]
fn responses_feed_the_beyond_accuracy_metrics() {
    // The RecResponse item lists plug straight into coverage/Gini — the
    // shape the examples print.
    let data = data();
    let d = &data.dataset;
    let mut cfg = MarsConfig::mars(2, 8);
    cfg.epochs = 2;
    let r = Retriever::new(Trainer::new(cfg).fit(d).model, ITEMS);
    let queries: Vec<RecQuery<'_>> = (0..USERS as UserId)
        .map(|u| RecQuery::top_k(u, 10).excluding(d.train.items_of(u)))
        .collect();
    let lists: Vec<Vec<ItemId>> = r
        .retrieve_batch(&queries, &WorkerPool::new(2))
        .iter()
        .map(RecResponse::items)
        .collect();
    assert_eq!(lists.len(), USERS);
    // A list is only shorter than k when the user has fewer than k
    // unseen items left — the planted data has a few near-saturated
    // users, so pin the exact expected length instead of a blanket 10.
    for (u, l) in lists.iter().enumerate() {
        let available = ITEMS - d.train.items_of(u as UserId).len();
        assert_eq!(l.len(), 10.min(available), "user {u}");
    }
    let coverage = catalogue_coverage(&lists, ITEMS);
    assert!(coverage > 0.0 && coverage <= 1.0, "coverage {coverage}");
    let gini = exposure_gini(&lists, ITEMS);
    assert!((0.0..=1.0).contains(&gini), "gini {gini}");
}
