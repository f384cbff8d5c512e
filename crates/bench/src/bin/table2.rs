//! Table II — overall performance comparison.
//!
//! ```text
//! cargo run -p mars-bench --release --bin table2 \
//!     [-- --scale small --datasets delicious,ciao --dim 32 --k 4 --epochs 15]
//! ```
//!
//! Trains the eight baselines plus MAR and MARS on each dataset and prints
//! HR@{10,20} / nDCG@{10,20} with the paper's `Imp1.` (MAR over best
//! baseline) and `Imp2.` (MARS over best baseline) columns.

use mars_baselines::BaselineKind;
use mars_bench::{
    datasets, fmt_improvement, fmt_metric, print_table, run_model, Args, ModelSpec, DEFAULT_EPOCHS,
};
use mars_data::profiles::Profile;
use mars_metrics::Report;

fn main() {
    let args = Args::from_env();
    let scale = args.scale();
    let profiles = args.profiles(&Profile::ALL);
    let dim = args.get_or("dim", 32usize);
    let k = args.get_or("k", 4usize);
    let epochs = args.get_or("epochs", DEFAULT_EPOCHS);
    let seed = args.get_or("seed", 7u64);
    args.reject_unknown();

    for (profile, data) in profiles.iter().zip(datasets(&profiles, scale)) {
        let d = &data.dataset;
        eprintln!(
            "[table2] {} — {} users × {} items, {} train interactions",
            d.name,
            d.num_users(),
            d.num_items(),
            d.train.num_interactions()
        );

        let mut specs: Vec<ModelSpec> = BaselineKind::ALL
            .iter()
            .map(|&kind| ModelSpec::baseline_paper(kind, dim, k, epochs, seed))
            .collect();
        // MAR/MARS use the per-dataset tuned settings (the paper's grid
        // search protocol); `--k` overrides only apply to the baselines'
        // NMF convention.
        specs.push(ModelSpec::tuned_mar(*profile, dim, seed));
        specs.push(ModelSpec::tuned_mars(*profile, dim, seed));

        let mut reports: Vec<(String, Report)> = Vec::new();
        for spec in &specs {
            let name = spec.name();
            eprintln!("[table2]   training {name}...");
            let report = run_model(spec, d);
            reports.push((name, report));
        }

        // Best baseline per metric (first 8 entries are the baselines).
        let best_baseline = |f: &dyn Fn(&Report) -> f32| -> f32 {
            reports[..8]
                .iter()
                .map(|(_, r)| f(r))
                .fold(f32::NEG_INFINITY, f32::max)
        };
        type MetricFn = Box<dyn Fn(&Report) -> f32>;
        let metrics: [(&str, MetricFn); 4] = [
            ("HR@10", Box::new(|r: &Report| r.hr_at(10))),
            ("HR@20", Box::new(|r: &Report| r.hr_at(20))),
            ("nDCG@10", Box::new(|r: &Report| r.ndcg_at(10))),
            ("nDCG@20", Box::new(|r: &Report| r.ndcg_at(20))),
        ];

        let mut rows = Vec::new();
        for (metric_name, f) in &metrics {
            let mut row = vec![metric_name.to_string()];
            for (_, r) in &reports {
                row.push(fmt_metric(f(r)));
            }
            let best = best_baseline(&**f);
            let mar = f(&reports[8].1);
            let mars = f(&reports[9].1);
            row.push(fmt_improvement(mar, best));
            row.push(fmt_improvement(mars, best));
            rows.push(row);
        }

        let mut headers: Vec<&str> = vec!["Metric"];
        let names: Vec<String> = reports.iter().map(|(n, _)| n.clone()).collect();
        headers.extend(names.iter().map(|s| s.as_str()));
        headers.push("Imp1.");
        headers.push("Imp2.");
        print_table(
            &format!("Table II — {} ({scale:?})", d.name),
            &headers,
            &rows,
        );
    }
    println!("\nImp1. = MAR vs best baseline; Imp2. = MARS vs best baseline (paper's convention).");
}
