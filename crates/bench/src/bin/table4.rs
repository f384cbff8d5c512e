//! Table IV — nDCG@10 of CML / MAR / MARS over the number of facet spaces K.
//!
//! ```text
//! cargo run -p mars-bench --release --bin table4 \
//!     [-- --scale small --datasets delicious,lastfm,ciao,bookx --kmax 6]
//! ```
//!
//! CML is the fixed single-space reference (the paper's `MarsConfig::cml_like`
//! row); MAR and MARS sweep K = 1..=kmax. Imp1 = MAR over CML, Imp2 = MARS
//! over CML, Imp3 = MARS over MAR — the paper's three improvement columns.

use mars_bench::{datasets, fmt_improvement, fmt_metric, print_table, Args, DEFAULT_EPOCHS};
use mars_core::{MarsConfig, Trainer};
use mars_data::profiles::Profile;
use mars_metrics::RankingEvaluator;

fn main() {
    let args = Args::from_env();
    let scale = args.scale();
    let profiles = args.profiles(&Profile::ABLATION);
    let dim = args.get_or("dim", 32usize);
    let kmax = args.get_or("kmax", 6usize);
    let epochs = args.get_or("epochs", DEFAULT_EPOCHS);
    let seed = args.get_or("seed", 7u64);
    args.reject_unknown();
    let ev = RankingEvaluator::paper();

    for data in datasets(&profiles, scale) {
        let d = &data.dataset;
        eprintln!("[table4] {}...", d.name);

        // CML reference (K=1 single Euclidean space, fixed margin).
        let mut cml_cfg = MarsConfig::cml_like(dim);
        cml_cfg.epochs = epochs;
        cml_cfg.seed = seed;
        let cml = ev
            .evaluate(&Trainer::new(cml_cfg).fit(d).model, d)
            .ndcg_at(10);

        let mut rows = Vec::new();
        for k in 1..=kmax {
            let mut mar_cfg = MarsConfig::mar(k, dim);
            mar_cfg.epochs = epochs;
            mar_cfg.seed = seed;
            let mar = ev
                .evaluate(&Trainer::new(mar_cfg).fit(d).model, d)
                .ndcg_at(10);
            let mut mars_cfg = MarsConfig::mars(k, dim);
            mars_cfg.epochs = epochs;
            mars_cfg.seed = seed;
            let mars = ev
                .evaluate(&Trainer::new(mars_cfg).fit(d).model, d)
                .ndcg_at(10);
            rows.push(vec![
                format!("K={k}"),
                fmt_metric(cml),
                fmt_metric(mar),
                fmt_metric(mars),
                fmt_improvement(mar, cml),
                fmt_improvement(mars, cml),
                fmt_improvement(mars, mar),
            ]);
            eprintln!("[table4]   K={k}: CML {cml:.4} MAR {mar:.4} MARS {mars:.4}");
        }
        print_table(
            &format!("Table IV — nDCG@10 vs K on {} ({scale:?})", d.name),
            &["K spaces", "CML", "MAR", "MARS", "Imp1.", "Imp2.", "Imp3."],
            &rows,
        );
    }
    println!(
        "\nPaper shape to check: MAR/MARS > CML for all K; gains grow then saturate\n\
         (optimum usually K=3 or 4); MARS > MAR throughout (Imp3 positive)."
    );
}
