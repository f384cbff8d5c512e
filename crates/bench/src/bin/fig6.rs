//! Figure 6 — MARS nDCG vs λ_facet, against the best baseline.
//!
//! ```text
//! cargo run -p mars-bench --release --bin fig6 \
//!     [-- --scale small --datasets delicious,lastfm,ciao,bookx]
//! ```
//!
//! Same protocol as `fig5`, sweeping the facet-separating weight λ_facet
//! over {0, 0.001, 0.01, 0.1, 1}. Paper finding: 0.01 is optimal across
//! datasets, with degradation past it.

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
        eprintln!("[fig6] {}...", d.name);
        let base = [BaselineKind::TransCf, BaselineKind::Sml]
            .iter()
            .map(|&kind| run_model(&ModelSpec::baseline(kind, dim, epochs, seed), d))
            .max_by(|a, b| a.ndcg_at(10).total_cmp(&b.ndcg_at(10)))
            .unwrap();

        let mut rows = Vec::new();
        for &lambda in &LAMBDAS {
            let mut cfg = MarsConfig::mars(k, dim);
            cfg.lambda_facet = lambda;
            cfg.epochs = epochs;
            cfg.seed = seed;
            let r = ev.evaluate(&Trainer::new(cfg).fit(d).model, d);
            eprintln!("[fig6]   λ_facet={lambda}: nDCG@10 {:.4}", r.ndcg_at(10));
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
            &format!("Figure 6 — MARS vs λ_facet on {} ({scale:?})", d.name),
            &["λ_facet", "nDCG@10", "nDCG@20"],
            &rows,
        );
    }
    println!(
        "\nPaper shape to check: small positive λ_facet helps (≈0.01 optimal);\n\
         large values hurt; all sweep points beat the best-baseline row."
    );
}
