//! Cross-layer acceptance test for the batched evaluation engine: on real
//! trained MAR / MARS models, the batched protocol (fused `score_block`,
//! pre-drawn negatives, optional parallel fan-out) must reproduce the
//! sequential reference protocol **bit-identically** — same HR@K, nDCG@K,
//! MRR, AUC, same case counts — at every thread count.

use mars_core::{MarsConfig, Trainer};
use mars_data::{SyntheticConfig, SyntheticDataset};
use mars_metrics::{EvalConfig, RankingEvaluator};
use mars_runtime::WorkerPool;

fn data() -> SyntheticDataset {
    SyntheticDataset::generate(
        "eval-equivalence",
        &SyntheticConfig {
            num_users: 80,
            num_items: 70,
            num_interactions: 2200,
            num_categories: 3,
            dirichlet_alpha: 0.25,
            seed: 31,
            ..Default::default()
        },
    )
}

fn check(cfg: MarsConfig) {
    let data = data();
    let model = Trainer::new(cfg.clone()).fit(&data.dataset).model;
    for threads in [1usize, 3, 5] {
        let ev = RankingEvaluator::new(EvalConfig {
            num_negatives: 50,
            cutoffs: vec![5, 10, 20],
            seed: 4242,
            threads,
        });
        let sequential = ev.evaluate_pairs_sequential(&model, &data.dataset, &data.dataset.test);
        let batched = ev.evaluate_pairs(&model, &data.dataset, &data.dataset.test);
        assert!(sequential.cases > 0, "empty evaluation proves nothing");
        assert_eq!(
            sequential,
            batched,
            "{}: batched evaluation diverged from the sequential protocol at {threads} threads",
            cfg.tag()
        );
        // The entry point `marsbench` times: one caller-owned pool reused
        // across consecutive passes.
        let pool = WorkerPool::with_threads(threads);
        for pass in 0..2 {
            let pooled = ev.evaluate_pairs_on(&model, &data.dataset, &data.dataset.test, &pool);
            assert_eq!(
                sequential,
                pooled,
                "{}: pass {pass} on a reused {threads}-thread pool diverged",
                cfg.tag()
            );
        }
        // Grouped evaluation rides the same engine.
        let groups = ev.evaluate_by_user_degree(&model, &data.dataset, &[10, 25]);
        let regrouped: usize = groups.iter().map(|(_, r)| r.cases).sum();
        assert_eq!(regrouped, sequential.cases);
    }
}

#[test]
fn mars_batched_eval_matches_sequential_bitwise() {
    let mut cfg = MarsConfig::mars(3, 8);
    cfg.epochs = 3;
    cfg.batch_size = 256;
    check(cfg);
}

#[test]
fn mar_direct_batched_eval_matches_sequential_bitwise() {
    let mut cfg = MarsConfig::mar(2, 8);
    cfg.epochs = 3;
    cfg.batch_size = 256;
    check(cfg);
}
