//! Hyperparameter grid search for MAR / MARS (the paper tunes lr, K, D and
//! the λ's per dataset via grid search on the dev set — §V-A4; this binary
//! is that loop).
//!
//! ```text
//! cargo run -p mars-bench --release --bin tune -- \
//!     --datasets ciao --model mars --k 4 --dim 32 \
//!     --lrs 0.05,0.1,0.2 --epoch-grid 15,30,60
//! ```
//!
//! Reports dev-set nDCG@10 for every grid point and the test-set metrics of
//! the dev-best configuration (the protocol that avoids test leakage).

use mars_bench::{datasets, fmt_metric, print_table, Args};
use mars_core::{MarsConfig, OptimKind, Trainer};
use mars_data::profiles::Profile;
use mars_metrics::{EvalConfig, RankingEvaluator};

fn main() {
    let args = Args::from_env();
    let scale = args.scale();
    let profiles = args.profiles(&[Profile::Ciao]);
    let dim = args.get_or("dim", 32usize);
    let k = args.get_or("k", 4usize);
    let seed = args.get_or("seed", 7u64);
    let model_kind = args.choice("model", "mars", "mars|mar|cml");
    let plain_rsgd = args.get_or("plain-rsgd", false);
    let lrs = args.list_or("lrs", &[0.05f32, 0.1, 0.2]);
    let epoch_grid = args.list_or("epoch-grid", &[15usize, 30, 60]);
    // Everything the sweep holds fixed.
    let mut base = match model_kind {
        "mar" => MarsConfig::mar(k, dim),
        "cml" => MarsConfig::cml_like(dim),
        _ => MarsConfig::mars(k, dim),
    };
    if plain_rsgd {
        base.optimizer = OptimKind::Riemannian;
    }
    base.theta_lr = args.get_or("theta-lr", base.theta_lr);
    base.lambda_pull = args.get_or("lambda-pull", base.lambda_pull);
    base.lambda_facet = args.get_or("lambda-facet", base.lambda_facet);
    base.seed = seed;
    args.reject_unknown();

    let dev_eval = RankingEvaluator::new(EvalConfig {
        num_negatives: 100,
        cutoffs: vec![10],
        seed: 777,
        // The sweep re-evaluates the small dev split once per config; keep
        // it serial rather than spinning a worker pool per call (the
        // trainer's own dev eval makes the same choice).
        threads: 1,
    });
    let test_eval = RankingEvaluator::paper();

    for data in datasets(&profiles, scale) {
        let d = &data.dataset;
        let mut rows = Vec::new();
        let mut best: Option<(f32, MarsConfig)> = None;
        for &lr in &lrs {
            for &epochs in &epoch_grid {
                let mut cfg = base.clone();
                cfg.lr = lr;
                cfg.epochs = epochs;
                let model = Trainer::new(cfg.clone()).fit(d).model;
                let dev = dev_eval.evaluate_dev(&model, d).ndcg_at(10);
                eprintln!(
                    "[tune] {} lr={lr} epochs={epochs}: dev nDCG@10 {dev:.4}",
                    d.name
                );
                rows.push(vec![format!("{lr}"), epochs.to_string(), fmt_metric(dev)]);
                if best.as_ref().map(|(b, _)| dev > *b).unwrap_or(true) {
                    best = Some((dev, cfg));
                }
            }
        }
        print_table(
            &format!("tune {} on {} ({scale:?})", model_kind, d.name),
            &["lr", "epochs", "dev nDCG@10"],
            &rows,
        );
        if let Some((dev, cfg)) = best {
            let model = Trainer::new(cfg.clone()).fit(d).model;
            let test = test_eval.evaluate(&model, d);
            println!(
                "\nBest on dev (nDCG@10 {dev:.4}): lr={} epochs={} → test HR@10 {:.4} \
                 nDCG@10 {:.4}",
                cfg.lr,
                cfg.epochs,
                test.hr_at(10),
                test.ndcg_at(10)
            );
        }
    }
}
