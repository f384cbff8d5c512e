//! Figure 5 — MARS nDCG vs λ_pull, against the best baseline.
//!
//! ```text
//! cargo run -p mars-bench --release --bin fig5 \
//!     [-- --scale small --datasets delicious,lastfm,ciao,bookx]
//! ```
//!
//! Sweeps the pull-loss weight λ_pull over the paper's grid
//! {0, 0.001, 0.01, 0.1, 1} and prints nDCG@10 / nDCG@20 per value plus a
//! best-baseline reference (TransCF and SML — the paper's usual runners-up —
//! whichever scores higher).

use mars_baselines::BaselineKind;
use mars_bench::{datasets, fmt_metric, print_table, run_model, Args, ModelSpec, DEFAULT_EPOCHS};
use mars_core::{MarsConfig, Trainer};
use mars_data::profiles::Profile;
use mars_metrics::RankingEvaluator;

const LAMBDAS: [f32; 5] = [0.0, 0.001, 0.01, 0.1, 1.0];

fn main() {
    let args = Args::from_env();
    let scale = args.scale();
    let profiles = args.profiles(&Profile::ABLATION);
    let dim = args.get_or("dim", 32usize);
    let k = args.get_or("k", 4usize);
    let epochs = args.get_or("epochs", DEFAULT_EPOCHS);
    let seed = args.get_or("seed", 7u64);
    args.reject_unknown();
    let ev = RankingEvaluator::paper();

    for data in datasets(&profiles, scale) {
        let d = &data.dataset;
        eprintln!("[fig5] {}...", d.name);
        // Best-baseline reference line.
        let base = [BaselineKind::TransCf, BaselineKind::Sml]
            .iter()
            .map(|&kind| run_model(&ModelSpec::baseline(kind, dim, epochs, seed), d))
            .max_by(|a, b| a.ndcg_at(10).total_cmp(&b.ndcg_at(10)))
            .unwrap();

        let mut rows = Vec::new();
        for &lambda in &LAMBDAS {
            let mut cfg = MarsConfig::mars(k, dim);
            cfg.lambda_pull = lambda;
            cfg.epochs = epochs;
            cfg.seed = seed;
            let r = ev.evaluate(&Trainer::new(cfg).fit(d).model, d);
            eprintln!("[fig5]   λ_pull={lambda}: nDCG@10 {:.4}", r.ndcg_at(10));
            rows.push(vec![
                format!("{lambda}"),
                fmt_metric(r.ndcg_at(10)),
                fmt_metric(r.ndcg_at(20)),
            ]);
        }
        rows.push(vec![
            "best baseline".to_string(),
            fmt_metric(base.ndcg_at(10)),
            fmt_metric(base.ndcg_at(20)),
        ]);
        print_table(
            &format!("Figure 5 — MARS vs λ_pull on {} ({scale:?})", d.name),
            &["λ_pull", "nDCG@10", "nDCG@20"],
            &rows,
        );
    }
    println!(
        "\nPaper shape to check: performance peaks at a dataset-dependent λ_pull\n\
         (0.001–0.1) and every sweep point beats the best-baseline row."
    );
}
