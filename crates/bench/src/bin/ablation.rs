//! Component ablation for the design choices of §III-C / §IV.
//!
//! ```text
//! cargo run -p mars-bench --release --bin ablation \
//!     [-- --scale small --datasets ciao --dim 32 --k 4]
//! ```
//!
//! Starting from the full MARS configuration, toggles one component at a
//! time:
//!
//! * adaptive margin (Eq. 7, distinct-two-hop) → fixed 0.5 / clamped-sum
//! * explorative sampling (Eq. 10) → uniform users
//! * pull loss (Eq. 9) → off
//! * facet-separating loss (Eq. 6/12) → off
//! * calibrated RSGD (Eq. 21) → plain RSGD (Eq. 20) → projected SGD
//! * uniform negatives → popularity-smoothed negatives
//!
//! This is the controlled-components experiment the reproduction adds
//! beyond the paper's tables.

use mars_bench::{datasets, fmt_improvement, fmt_metric, print_table, Args, DEFAULT_EPOCHS};
use mars_core::{MarsConfig, NegativeSampling, OptimKind, Trainer, UserSampling};
use mars_data::margin::MarginMode;
use mars_data::profiles::Profile;
use mars_metrics::RankingEvaluator;

fn main() {
    let args = Args::from_env();
    let scale = args.scale();
    let profiles = args.profiles(&[Profile::Ciao]);
    let dim = args.get_or("dim", 32usize);
    let k = args.get_or("k", 4usize);
    let epochs = args.get_or("epochs", DEFAULT_EPOCHS);
    let seed = args.get_or("seed", 7u64);
    args.reject_unknown();
    let ev = RankingEvaluator::paper();

    for data in datasets(&profiles, scale) {
        let d = &data.dataset;
        eprintln!("[ablation] {}...", d.name);
        let mut base = MarsConfig::mars(k, dim);
        base.epochs = epochs;
        base.seed = seed;

        let variants: Vec<(&str, MarsConfig)> = vec![
            ("full MARS", base.clone()),
            ("fixed margin 0.5", {
                let mut c = base.clone();
                c.margin = MarginMode::Fixed(0.5);
                c
            }),
            ("clamped-sum margin (Eq.7 verbatim)", {
                let mut c = base.clone();
                c.margin = MarginMode::ClampedSum;
                c
            }),
            ("uniform user sampling", {
                let mut c = base.clone();
                c.user_sampling = UserSampling::Uniform;
                c
            }),
            ("no pull loss (λ_pull=0)", {
                let mut c = base.clone();
                c.lambda_pull = 0.0;
                c
            }),
            ("no facet loss (λ_facet=0)", {
                let mut c = base.clone();
                c.lambda_facet = 0.0;
                c
            }),
            ("plain RSGD (Eq.20)", {
                let mut c = base.clone();
                c.optimizer = OptimKind::Riemannian;
                c
            }),
            ("projected SGD on sphere", {
                let mut c = base.clone();
                c.optimizer = OptimKind::Sgd;
                c
            }),
            ("popularity negatives", {
                let mut c = base.clone();
                c.negative_sampling = NegativeSampling::Popularity;
                c
            }),
        ];

        let mut rows = Vec::new();
        let mut full_ndcg = 0.0f32;
        for (label, cfg) in variants {
            let r = ev.evaluate(&Trainer::new(cfg).fit(d).model, d);
            let ndcg = r.ndcg_at(10);
            if label == "full MARS" {
                full_ndcg = ndcg;
            }
            eprintln!("[ablation]   {label}: nDCG@10 {ndcg:.4}");
            rows.push(vec![
                label.to_string(),
                fmt_metric(r.hr_at(10)),
                fmt_metric(ndcg),
                if label == "full MARS" {
                    "—".to_string()
                } else {
                    fmt_improvement(ndcg, full_ndcg)
                },
            ]);
        }
        print_table(
            &format!("Component ablation — {} ({scale:?})", d.name),
            &["Variant", "HR@10", "nDCG@10", "Δ vs full"],
            &rows,
        );
    }
    println!("\nNegative Δ values confirm the corresponding component contributes.");
}
