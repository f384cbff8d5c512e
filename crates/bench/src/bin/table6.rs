//! Table VI — example user profiles modeled by MARS.
//!
//! ```text
//! cargo run -p mars-bench --release --bin table6 [-- --scale small --users 2]
//! ```
//!
//! Trains MARS on the Ciao stand-in, picks the most active users, and prints
//! their learned facet weights θ_u next to their interacted categories —
//! the paper's "Bob / Mary" case study.

use mars_bench::{datasets, print_table, train_multifacet, Args, DEFAULT_EPOCHS};
use mars_core::analysis::user_profile;
use mars_core::MarsConfig;
use mars_data::profiles::Profile;
use mars_data::UserId;

fn main() {
    let args = Args::from_env();
    let scale = args.scale();
    let dim = args.get_or("dim", 32usize);
    let k = args.get_or("k", 4usize);
    let num_users = args.get_or("users", 2usize);
    let epochs = args.get_or("epochs", DEFAULT_EPOCHS);
    let seed = args.get_or("seed", 7u64);
    args.reject_unknown();

    let data = &datasets(&[Profile::Ciao], scale)[0].dataset;
    let mut cfg = MarsConfig::mars(k, dim);
    cfg.epochs = epochs;
    cfg.seed = seed;
    eprintln!("[table6] training MARS(K={k}, D={dim})...");
    let model = train_multifacet(cfg, data);

    // Most-active users make the most legible profiles (as in the paper).
    let mut users: Vec<UserId> = (0..data.num_users() as UserId).collect();
    users.sort_by_key(|&u| std::cmp::Reverse(data.train.user_degree(u)));
    users.truncate(num_users);

    let mut rows = Vec::new();
    for &u in &users {
        let p = user_profile(&model, data, u);
        for (facet, &theta) in p.theta.iter().enumerate() {
            let cats: Vec<String> = p
                .category_counts
                .iter()
                .take(3)
                .map(|(c, n)| format!("category-{c}: {n}"))
                .collect();
            rows.push(vec![
                if facet == 0 {
                    format!("user-{u}")
                } else {
                    String::new()
                },
                format!("k={}", facet + 1),
                format!("{theta:.2}"),
                if facet == 0 {
                    cats.join("; ")
                } else {
                    String::new()
                },
            ]);
        }
    }
    print_table(
        &format!("Table VI — example user profiles ({scale:?})"),
        &["User", "Facet", "θ_u^k", "Interacted categories: count"],
        &rows,
    );
    println!(
        "\nPaper shape to check: θ_u concentrates on few facets per user, and\n\
         different users weight different facets."
    );
}
