//! Difficult-user study — the controlled experiment the paper's conclusion
//! lists as future work: "closely study the behavior of MARS regarding the
//! so-called difficult users and items in controlled experiments (such as
//! with users and items grouped based on the number of interactions)".
//!
//! ```text
//! cargo run -p mars-bench --release --bin difficulty \
//!     [-- --scale small --datasets ciao --edges 10,20,40]
//! ```
//!
//! Trains CML / MAR / MARS and reports nDCG@10 per user-degree bucket. The
//! spherical constraint's purpose (§IV) is to stop the model from wasting
//! capacity by parking *difficult* (low-degree) users on the sphere surface
//! — so the prediction is that MARS's edge over MAR concentrates in the
//! low-degree buckets.

use mars_bench::{datasets, fmt_metric, print_table, Args, ModelSpec, DEFAULT_EPOCHS};
use mars_core::{MarsConfig, Trainer};
use mars_data::profiles::Profile;
use mars_metrics::RankingEvaluator;

fn main() {
    let args = Args::from_env();
    let scale = args.scale();
    let profiles = args.profiles(&[Profile::Ciao]);
    let dim = args.get_or("dim", 32usize);
    let epochs = args.get_or("epochs", DEFAULT_EPOCHS);
    let seed = args.get_or("seed", 7u64);
    let edges = args.ascending_list_or("edges", &[10usize, 20, 40]);
    args.reject_unknown();
    let ev = RankingEvaluator::paper();

    for (profile, data) in profiles.iter().zip(datasets(&profiles, scale)) {
        let d = &data.dataset;
        eprintln!("[difficulty] {}...", d.name);

        let mut cml_cfg = MarsConfig::cml_like(dim);
        cml_cfg.epochs = epochs;
        cml_cfg.seed = seed;
        let cml = Trainer::new(cml_cfg).fit(d).model;
        let mar = match ModelSpec::tuned_mar(*profile, dim, seed) {
            ModelSpec::MultiFacet(cfg) => Trainer::new(cfg).fit(d).model,
            _ => unreachable!(),
        };
        let mars = match ModelSpec::tuned_mars(*profile, dim, seed) {
            ModelSpec::MultiFacet(cfg) => Trainer::new(cfg).fit(d).model,
            _ => unreachable!(),
        };

        let cml_groups = ev.evaluate_by_user_degree(&cml, d, &edges);
        let mar_groups = ev.evaluate_by_user_degree(&mar, d, &edges);
        let mars_groups = ev.evaluate_by_user_degree(&mars, d, &edges);

        let mut rows = Vec::new();
        for i in 0..cml_groups.len() {
            let (label, cml_r) = &cml_groups[i];
            let mar_r = &mar_groups[i].1;
            let mars_r = &mars_groups[i].1;
            if cml_r.cases == 0 {
                continue;
            }
            rows.push(vec![
                label.clone(),
                cml_r.cases.to_string(),
                fmt_metric(cml_r.ndcg_at(10)),
                fmt_metric(mar_r.ndcg_at(10)),
                fmt_metric(mars_r.ndcg_at(10)),
            ]);
        }
        print_table(
            &format!("Difficult-user study — {} ({scale:?})", d.name),
            &["user degree", "#users", "CML", "MAR", "MARS"],
            &rows,
        );
    }
    println!(
        "\nPrediction from §IV: the MARS-over-MAR gap is largest in the low-degree\n\
         (difficult-user) buckets, where the strict sphere constraint prevents\n\
         trivial norm-based fitting."
    );
}
