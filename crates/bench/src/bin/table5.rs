//! Table V — top categories with proportions in each facet space of MARS.
//!
//! ```text
//! cargo run -p mars-bench --release --bin table5 [-- --scale small --top 5]
//! ```
//!
//! Trains MARS on the Ciao stand-in and prints, per facet space, the top-N
//! ground-truth categories among the items that space claims (the synthetic
//! generator's planted categories play the role of Ciao's category labels).

use mars_bench::{datasets, print_table, train_multifacet, Args, DEFAULT_EPOCHS};
use mars_core::analysis::category_proportions;
use mars_core::MarsConfig;
use mars_data::profiles::Profile;

fn main() {
    let args = Args::from_env();
    let scale = args.scale();
    let dim = args.get_or("dim", 32usize);
    let k = args.get_or("k", 4usize);
    let top = args.get_or("top", 5usize);
    let epochs = args.get_or("epochs", DEFAULT_EPOCHS);
    let seed = args.get_or("seed", 7u64);
    args.reject_unknown();

    let data = &datasets(&[Profile::Ciao], scale)[0].dataset;
    let mut cfg = MarsConfig::mars(k, dim);
    cfg.epochs = epochs;
    cfg.seed = seed;
    eprintln!("[table5] training MARS(K={k}, D={dim})...");
    let model = train_multifacet(cfg, data);

    let props = category_proportions(&model, data, top);
    let mut rows = Vec::new();
    for (facet, shares) in props.iter().enumerate() {
        for (rank, s) in shares.iter().enumerate() {
            rows.push(vec![
                if rank == 0 {
                    format!("k={}", facet + 1)
                } else {
                    String::new()
                },
                format!("category-{}", s.category),
                format!("{:.2}", s.proportion * 100.0),
            ]);
        }
    }
    print_table(
        &format!("Table V — top-{top} categories per facet space ({scale:?})"),
        &["Facet", "Category", "Prop (%)"],
        &rows,
    );
    println!(
        "\nPaper shape to check: each facet space concentrates on a different\n\
         subset of categories (the paper manually labels these as user\n\
         stereotypes, e.g. 'Internet celebrity', 'software engineer')."
    );
}
