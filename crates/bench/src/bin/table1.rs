//! Table I — statistics of the (stand-in) benchmark datasets.
//!
//! ```text
//! cargo run -p mars-bench --release --bin table1 [-- --scale paper|small]
//! ```
//!
//! Prints user/item/interaction counts and density of each generated
//! stand-in next to the paper's reported numbers.

use mars_bench::{print_table, Args};
use mars_data::profiles::{table_one_row, Profile};

/// The paper's Table I reference rows: (users, items, interactions, density%).
const PAPER: [(&str, &str, &str, &str, &str); 6] = [
    ("Delicious", "1K", "1K", "8K", "0.61"),
    ("Lastfm", "2K", "175K", "92K", "0.28"),
    ("Ciao", "7K", "11K", "147K", "0.19"),
    ("BookX", "20K", "40K", "605K", "0.08"),
    ("ML-1M", "6K", "4K", "1M", "4.52"),
    ("ML-20M", "62K", "27K", "17M", "1.02"),
];

fn main() {
    let args = Args::from_env();
    let scale = args.scale();
    let profiles = args.profiles(&Profile::ALL);
    args.reject_unknown();

    let mut rows = Vec::new();
    for p in profiles {
        let data = p.generate(scale);
        let row = table_one_row(&data);
        let paper = PAPER
            .iter()
            .find(|(name, ..)| *name == p.name())
            .expect("profile missing from reference table");
        rows.push(vec![
            row.name,
            row.users.to_string(),
            row.items.to_string(),
            row.interactions.to_string(),
            format!("{:.3}", row.density_pct),
            format!("{} / {} / {} / {}%", paper.1, paper.2, paper.3, paper.4),
        ]);
    }
    print_table(
        &format!("Table I — dataset statistics ({scale:?} scale stand-ins)"),
        &[
            "Dataset",
            "#User",
            "#Item",
            "#Interaction",
            "Density(%)",
            "paper (users/items/inter/density)",
        ],
        &rows,
    );
    println!(
        "\nNote: stand-ins are generated by the synthetic multi-facet generator\n\
         (mars_data::synthetic); at --scale small the axes are divided per profile while\n\
         preserving the density ordering across datasets."
    );
}
