//! Table III — performance under different embedding dimensions (Ciao).
//!
//! ```text
//! cargo run -p mars-bench --release --bin table3 \
//!     [-- --scale small --epochs 15 --dims 16,32,64,128]
//! ```
//!
//! Paper setting: TransCF and SML sweep the single-space dimension d while
//! MARS sweeps the *per-facet* dimension with K=4 (total dimension d×k).
//! The paper's claim: multiple spaces beat one big space at equal total
//! dimension, and the single-space models overfit at the largest d while
//! MARS keeps improving.

use mars_baselines::BaselineKind;
use mars_bench::{datasets, fmt_metric, print_table, run_model, Args, ModelSpec, DEFAULT_EPOCHS};
use mars_data::profiles::Profile;

fn main() {
    let args = Args::from_env();
    let scale = args.scale();
    let epochs = args.get_or("epochs", DEFAULT_EPOCHS);
    let seed = args.get_or("seed", 7u64);
    let k = args.get_or("k", 4usize);
    let dims = args.list_or("dims", &[16usize, 32, 64, 128]);
    args.reject_unknown();

    let data = &datasets(&[Profile::Ciao], scale)[0].dataset;
    eprintln!(
        "[table3] Ciao stand-in: {} users × {} items",
        data.num_users(),
        data.num_items()
    );

    let mut rows = Vec::new();
    for &kind in &[BaselineKind::TransCf, BaselineKind::Sml] {
        for &d in &dims {
            eprintln!("[table3] {} d={d}...", kind.name());
            let r = run_model(&ModelSpec::baseline(kind, d, epochs, seed), data);
            rows.push(vec![
                kind.name().to_string(),
                fmt_metric(r.hr_at(10)),
                fmt_metric(r.hr_at(20)),
                fmt_metric(r.ndcg_at(10)),
                fmt_metric(r.ndcg_at(20)),
                d.to_string(),
                "1".to_string(),
            ]);
        }
    }
    for &d in &dims {
        // MARS per-facet dimension d/k keeps the total comparable to the
        // single-space rows (paper: d×k total for MARS). Uses the
        // dev-tuned Ciao learning rate like Table II.
        let per_facet = (d / k).max(4);
        eprintln!("[table3] MARS d={per_facet} k={k}...");
        let spec = match ModelSpec::tuned_mars(Profile::Ciao, per_facet, seed) {
            ModelSpec::MultiFacet(mut cfg) => {
                cfg.facets = k;
                cfg.epochs = epochs;
                ModelSpec::MultiFacet(cfg)
            }
            other => other,
        };
        let r = run_model(&spec, data);
        rows.push(vec![
            "MARS".to_string(),
            fmt_metric(r.hr_at(10)),
            fmt_metric(r.hr_at(20)),
            fmt_metric(r.ndcg_at(10)),
            fmt_metric(r.ndcg_at(20)),
            per_facet.to_string(),
            k.to_string(),
        ]);
    }
    print_table(
        &format!("Table III — embedding-dimension sweep on Ciao ({scale:?})"),
        &["Model", "HR@10", "HR@20", "nDCG@10", "nDCG@20", "d", "k"],
        &rows,
    );
    println!(
        "\nPaper shape to check: MARS rows beat TransCF/SML rows at comparable total\n\
         dimension d×k, and single-space models plateau or dip at the largest d."
    );
}
