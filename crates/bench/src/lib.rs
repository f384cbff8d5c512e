//! # mars-bench
//!
//! The paper-reproduction harness: regenerates every table and figure of
//! the MARS paper. The library holds the shared plumbing — model zoo,
//! dataset cache, table printing, a tiny `--flag value` argument parser —
//! and each binary in `src/bin/` is one table/figure:
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `table1` | Table I — dataset statistics |
//! | `table2` | Table II — overall comparison, 10 models × 6 datasets |
//! | `table3` | Table III — embedding-dimension sweep on Ciao |
//! | `table4` | Table IV — K sweep of CML/MAR/MARS on 4 datasets |
//! | `fig5`   | Figure 5 — λ_pull sweep |
//! | `fig6`   | Figure 6 — λ_facet sweep |
//! | `fig7`   | Figure 7 — item-embedding visualisation (CSV + separation stats) |
//! | `table5` | Table V — top categories per facet space |
//! | `table6` | Table VI — example user profiles |
//! | `ablation` | §III-C component ablation (margins, sampling, optimizer, losses) |
//! | `tune` | §V-A4 dev-split grid search (source of the `tuned_*` specs) |
//! | `difficulty` | nDCG@10 of CML / MAR / MARS per user-degree bucket (the conclusion's "difficult users" study) |
//!
//! Nothing here measures speed: the repository's one benchmark is the
//! `marsbench/` package (`BENCHMARK.json` at the root has the command).

// This crate is part of the deterministic numeric core: no unsafe
// anywhere (the vetted unsafe surface lives in mars-tensor::simd
// and mars-runtime; see `cargo run -p mars-audit -- check`).
#![forbid(unsafe_code)]
use mars_baselines::{
    bpr::Bpr, cml::Cml, lrml::Lrml, metricf::MetricF, neumf::NeuMf, nmf::Nmf, sml::Sml,
    transcf::TransCf, BaselineConfig, BaselineKind, ImplicitRecommender,
};
use mars_core::{MarsConfig, Trainer};
use mars_data::dataset::Dataset;
use mars_data::profiles::{Profile, Scale};
use mars_data::SyntheticDataset;
use mars_metrics::{RankingEvaluator, Report};
use std::cell::RefCell;
use std::collections::BTreeSet;

/// Which model to run — baselines by kind, MAR/MARS by config.
#[derive(Clone, Debug)]
pub enum ModelSpec {
    Baseline(BaselineKind, BaselineConfig),
    MultiFacet(MarsConfig),
}

impl ModelSpec {
    /// Display name for tables.
    pub fn name(&self) -> String {
        match self {
            ModelSpec::Baseline(kind, _) => kind.name().to_string(),
            ModelSpec::MultiFacet(cfg) => match cfg.geometry {
                mars_core::Geometry::Spherical => "MARS".to_string(),
                mars_core::Geometry::Euclidean => "MAR".to_string(),
            },
        }
    }

    /// A baseline spec with harness-default budgets for `dim`.
    pub fn baseline(kind: BaselineKind, dim: usize, epochs: usize, seed: u64) -> Self {
        let mut cfg = BaselineConfig {
            dim,
            epochs,
            seed,
            ..BaselineConfig::default()
        };
        // NeuMF's BCE tower prefers a gentler rate than the hinge models.
        if kind == BaselineKind::NeuMf {
            cfg.lr = 0.02;
        }
        ModelSpec::Baseline(kind, cfg)
    }

    /// A baseline spec following the paper's per-model conventions: NMF's
    /// latent-factor count equals the number of metric spaces K (§V-A3:
    /// "The number of latent factors is set to the same as the number of
    /// metric spaces in our proposed models"); everything else uses `dim`.
    pub fn baseline_paper(
        kind: BaselineKind,
        dim: usize,
        k: usize,
        epochs: usize,
        seed: u64,
    ) -> Self {
        let dim = if kind == BaselineKind::Nmf { k } else { dim };
        Self::baseline(kind, dim, epochs, seed)
    }

    /// MAR spec with harness budgets.
    pub fn mar(k: usize, dim: usize, epochs: usize, seed: u64) -> Self {
        let mut cfg = MarsConfig::mar(k, dim);
        cfg.epochs = epochs;
        cfg.seed = seed;
        ModelSpec::MultiFacet(cfg)
    }

    /// MARS spec with harness budgets.
    pub fn mars(k: usize, dim: usize, epochs: usize, seed: u64) -> Self {
        let mut cfg = MarsConfig::mars(k, dim);
        cfg.epochs = epochs;
        cfg.seed = seed;
        ModelSpec::MultiFacet(cfg)
    }

    /// Per-dataset tuned MAR spec — the paper tunes lr (and K, D, λ's) per
    /// dataset by grid search on the dev split (§V-A4); these are the
    /// dev-selected optima of the `tune` binary at small scale with K=4.
    pub fn tuned_mar(profile: Profile, dim: usize, seed: u64) -> Self {
        let (k, lr, epochs) = match profile {
            Profile::Delicious => (4, 0.05, 30),
            Profile::Lastfm => (4, 0.1, 30),
            Profile::Ciao => (4, 0.05, 30),
            Profile::BookX => (4, 0.1, 30),
            Profile::Ml1m => (4, 0.02, 60),
            Profile::Ml20m => (3, 0.02, 60),
        };
        let mut cfg = MarsConfig::mar(k, dim);
        cfg.lr = lr;
        cfg.epochs = epochs;
        cfg.seed = seed;
        ModelSpec::MultiFacet(cfg)
    }

    /// Per-dataset tuned MARS spec (see [`ModelSpec::tuned_mar`]).
    pub fn tuned_mars(profile: Profile, dim: usize, seed: u64) -> Self {
        let (k, lr, epochs) = match profile {
            Profile::Delicious => (4, 0.05, 30),
            Profile::Lastfm => (4, 0.1, 30),
            Profile::Ciao => (4, 0.1, 30),
            Profile::BookX => (4, 0.05, 30),
            Profile::Ml1m => (3, 0.05, 60),
            Profile::Ml20m => (3, 0.05, 60),
        };
        let mut cfg = MarsConfig::mars(k, dim);
        cfg.lr = lr;
        cfg.epochs = epochs;
        cfg.seed = seed;
        ModelSpec::MultiFacet(cfg)
    }
}

/// Trains the spec on the dataset and evaluates with the paper protocol.
pub fn run_model(spec: &ModelSpec, data: &Dataset) -> Report {
    let ev = RankingEvaluator::paper();
    match spec {
        ModelSpec::Baseline(kind, cfg) => {
            let n = data.num_users();
            let m = data.num_items();
            macro_rules! run {
                ($ty:ident) => {{
                    let mut model = $ty::new(cfg.clone(), n, m);
                    model.fit(data);
                    ev.evaluate(&model, data)
                }};
            }
            match kind {
                BaselineKind::Bpr => run!(Bpr),
                BaselineKind::Nmf => run!(Nmf),
                BaselineKind::NeuMf => run!(NeuMf),
                BaselineKind::Cml => run!(Cml),
                BaselineKind::MetricF => run!(MetricF),
                BaselineKind::TransCf => run!(TransCf),
                BaselineKind::Lrml => run!(Lrml),
                BaselineKind::Sml => run!(Sml),
            }
        }
        ModelSpec::MultiFacet(cfg) => {
            let out = Trainer::new(cfg.clone()).fit(data);
            ev.evaluate(&out.model, data)
        }
    }
}

/// Trains a multi-facet model and returns it (for the analysis binaries).
pub fn train_multifacet(cfg: MarsConfig, data: &Dataset) -> mars_core::MultiFacetModel {
    Trainer::new(cfg).fit(data).model
}

// ---------------------------------------------------------------------------
// Dataset handling
// ---------------------------------------------------------------------------

/// Generates (or returns cached) stand-in datasets for the named profiles.
pub fn datasets(profiles: &[Profile], scale: Scale) -> Vec<SyntheticDataset> {
    profiles.iter().map(|p| p.generate(scale)).collect()
}

// ---------------------------------------------------------------------------
// Table formatting
// ---------------------------------------------------------------------------

/// Prints a fixed-width text table to stdout (one locked writer — the
/// perf-book I/O guidance; these tables are the binaries' entire output).
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    use std::io::Write;
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let _ = writeln!(out, "\n== {title} ==");
    let header_line: Vec<String> = headers
        .iter()
        .zip(&widths)
        .map(|(h, w)| format!("{h:<w$}"))
        .collect();
    let _ = writeln!(out, "{}", header_line.join("  "));
    let total: usize = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
    let _ = writeln!(out, "{}", "-".repeat(total));
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect();
        let _ = writeln!(out, "{}", line.join("  "));
    }
}

/// Formats a metric to the paper's 4-decimal convention.
pub fn fmt_metric(v: f32) -> String {
    format!("{v:.4}")
}

/// Relative improvement `(a − b)/b` as a percentage string.
pub fn fmt_improvement(a: f32, b: f32) -> String {
    if b <= 0.0 {
        return "n/a".to_string();
    }
    format!("{:+.2}%", (a - b) / b * 100.0)
}

// ---------------------------------------------------------------------------
// Argument parsing (tiny, dependency-free)
// ---------------------------------------------------------------------------

/// A flag whose value is not of the type the binary expects.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArgError {
    /// Flag name without the leading `--`.
    pub flag: String,
    /// The offending value as given.
    pub value: String,
    /// What the binary would have accepted.
    pub expected: &'static str,
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid value '{}' for --{}: expected {}",
            self.value, self.flag, self.expected
        )
    }
}

fn parse_value<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, ArgError> {
    value.parse().map_err(|_| ArgError {
        flag: flag.to_string(),
        value: value.to_string(),
        expected: std::any::type_name::<T>(),
    })
}

fn or_exit<T>(parsed: Result<T, ArgError>) -> T {
    parsed.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

/// Parses `--key value` pairs from `std::env::args`.
#[derive(Clone, Debug, Default)]
pub struct Args {
    pairs: Vec<(String, String)>,
    /// Every key an accessor has been asked for — what the binary knows.
    known: RefCell<BTreeSet<String>>,
}

impl Args {
    /// Reads the process arguments.
    pub fn from_env() -> Self {
        Self::from_iter(std::env::args().skip(1))
    }

    /// Parses from an explicit iterator (testable).
    #[allow(clippy::should_implement_trait)] // not an Iterator collection
    pub fn from_iter<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut pairs = Vec::new();
        let mut iter = args.into_iter().peekable();
        while let Some(a) = iter.next() {
            if let Some(key) = a.strip_prefix("--") {
                let value = if iter.peek().map(|v| !v.starts_with("--")).unwrap_or(false) {
                    iter.next().unwrap()
                } else {
                    "true".to_string()
                };
                pairs.push((key.to_string(), value));
            }
        }
        Self {
            pairs,
            known: RefCell::default(),
        }
    }

    /// String value of a flag.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.known.borrow_mut().insert(key.to_string());
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Parsed value of a flag: `Ok(None)` when the flag is absent, `Err`
    /// when its value does not parse as `T`.
    pub fn try_get<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, ArgError> {
        self.get(key).map(|v| parse_value(key, v)).transpose()
    }

    /// Parsed value with a default. A value that does not parse is reported
    /// on stderr and ends the process: a table for a configuration nobody
    /// asked for is worse than no table.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        or_exit(self.try_get(key)).unwrap_or(default)
    }

    /// Comma-separated values of a flag (`--dims 16,32`): `Ok(None)` when
    /// the flag is absent, `Err` on the first element that does not parse.
    pub fn try_list<T: std::str::FromStr>(&self, key: &str) -> Result<Option<Vec<T>>, ArgError> {
        self.get(key)
            .map(|spec| {
                spec.split(',')
                    .map(|v| parse_value(key, v.trim()))
                    .collect()
            })
            .transpose()
    }

    /// Comma-separated list with a default; exits like [`Args::get_or`].
    pub fn list_or<T: std::str::FromStr + Clone>(&self, key: &str, default: &[T]) -> Vec<T> {
        or_exit(self.try_list(key)).unwrap_or_else(|| default.to_vec())
    }

    /// [`Args::try_list`] for a list that must be strictly ascending
    /// (`difficulty --edges`): any other order is an error.
    pub fn try_ascending_list<T: std::str::FromStr + PartialOrd>(
        &self,
        key: &str,
    ) -> Result<Option<Vec<T>>, ArgError> {
        let list = self.try_list::<T>(key)?;
        match (&list, self.get(key)) {
            (Some(v), Some(spec)) if !v.windows(2).all(|w| w[0] < w[1]) => Err(ArgError {
                flag: key.to_string(),
                value: spec.to_string(),
                expected: "strictly ascending values",
            }),
            _ => Ok(list),
        }
    }

    /// Strictly ascending list with a default; exits like [`Args::get_or`].
    pub fn ascending_list_or<T: std::str::FromStr + PartialOrd + Clone>(
        &self,
        key: &str,
        default: &[T],
    ) -> Vec<T> {
        or_exit(self.try_ascending_list(key)).unwrap_or_else(|| default.to_vec())
    }

    /// Value of a flag that takes one of the `|`-separated words of
    /// `expected` (`default` when the flag is absent); anything else is an
    /// error.
    pub fn try_choice<'a>(
        &'a self,
        key: &str,
        default: &'a str,
        expected: &'static str,
    ) -> Result<&'a str, ArgError> {
        let value = self.get(key).unwrap_or(default);
        if expected.split('|').any(|word| word == value) {
            Ok(value)
        } else {
            Err(ArgError {
                flag: key.to_string(),
                value: value.to_string(),
                expected,
            })
        }
    }

    /// One-of-a-set flag; exits like [`Args::get_or`] on an unknown word.
    pub fn choice<'a>(&'a self, key: &str, default: &'a str, expected: &'static str) -> &'a str {
        or_exit(self.try_choice(key, default, expected))
    }

    /// Scale flag (`--scale paper|small`, default small); anything else is
    /// an error.
    pub fn try_scale(&self) -> Result<Scale, ArgError> {
        Ok(match self.try_choice("scale", "small", "paper|small")? {
            "paper" => Scale::Paper,
            _ => Scale::Small,
        })
    }

    /// Scale flag; exits like [`Args::get_or`] on an unknown scale.
    pub fn scale(&self) -> Scale {
        or_exit(self.try_scale())
    }

    /// The first flag on the command line that no accessor has asked for.
    /// Meaningful once the binary has read every flag it knows.
    pub fn unknown_flag(&self) -> Option<&str> {
        let known = self.known.borrow();
        let unknown = self.pairs.iter().find(|(k, _)| !known.contains(k));
        unknown.map(|(k, _)| k.as_str())
    }

    /// Call after reading every flag: a flag nothing asked for (a typo, a
    /// flag a later version dropped) is reported on stderr and ends the
    /// process like a bad value does, instead of silently running the
    /// defaults.
    pub fn reject_unknown(&self) {
        if let Some(flag) = self.unknown_flag() {
            eprintln!("error: unknown flag --{flag}");
            std::process::exit(2)
        }
    }

    /// Dataset list (`--datasets ciao,bookx`), default = given fallback.
    pub fn profiles(&self, default: &[Profile]) -> Vec<Profile> {
        match self.get("datasets") {
            None => default.to_vec(),
            Some(spec) => spec
                .split(',')
                .filter_map(|s| {
                    let p = Profile::parse(s.trim());
                    if p.is_none() {
                        eprintln!("warning: unknown dataset '{s}' skipped");
                    }
                    p
                })
                .collect(),
        }
    }
}

/// Harness-default training budget: generous enough for the ordering
/// between models to stabilize, small enough for the whole Table II run to
/// finish in minutes.
pub const DEFAULT_EPOCHS: usize = 30;

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Args {
        Args::from_iter(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn args_parse_pairs_and_flags() {
        let a = args(&["--scale", "paper", "--k", "4", "--verbose"]);
        assert_eq!(a.get("scale"), Some("paper"));
        assert_eq!(a.get_or("k", 0usize), 4);
        assert_eq!(a.get("verbose"), Some("true"));
        assert_eq!(a.get("missing"), None);
        assert_eq!(a.try_get::<usize>("missing"), Ok(None));
        assert_eq!(a.scale(), Scale::Paper);

        // A value of the wrong type names the flag, the value and the type.
        let bad = args(&["--epochs", "3O", "--k", "4x", "--lr", "fast"]);
        let err = bad.try_get::<usize>("epochs").unwrap_err();
        assert_eq!((err.flag.as_str(), err.value.as_str()), ("epochs", "3O"));
        assert_eq!(
            err.to_string(),
            "invalid value '3O' for --epochs: expected usize"
        );
        assert!(bad.try_get::<usize>("k").is_err());
        assert_eq!(bad.try_get::<f32>("lr").unwrap_err().expected, "f32");
        // A bare flag reads as "true", which is not a number either.
        assert!(a.try_get::<u64>("verbose").is_err());

        // Every flag above was asked for; a leftover one nothing reads is
        // named (the first, in command-line order), known or not to others.
        assert_eq!(a.unknown_flag(), None);
        let leftover = args(&["--k", "4", "--direct", "true", "--epochz", "3"]);
        assert_eq!(leftover.unknown_flag(), Some("k"));
        assert_eq!(leftover.get_or("k", 0usize), 4);
        assert_eq!(leftover.unknown_flag(), Some("direct"));
        assert_eq!(leftover.get("missing"), None);
        assert_eq!(leftover.unknown_flag(), Some("direct"));
    }

    #[test]
    fn args_default_scale_is_small() {
        assert_eq!(args(&[]).scale(), Scale::Small);
        assert_eq!(args(&["--scale", "small"]).try_scale(), Ok(Scale::Small));
        let err = args(&["--scale", "papr"]).try_scale().unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid value 'papr' for --scale: expected paper|small"
        );
        // Any one-of-a-set flag (`tune --model`) goes the same way.
        let words = "mars|mar|cml";
        assert_eq!(args(&[]).try_choice("model", "mars", words), Ok("mars"));
        let cml = args(&["--model", "cml"]);
        assert_eq!(cml.try_choice("model", "mars", words), Ok("cml"));
        let marz = args(&["--model", "marz"]);
        assert_eq!(
            marz.try_choice("model", "mars", words)
                .unwrap_err()
                .to_string(),
            "invalid value 'marz' for --model: expected mars|mar|cml"
        );
    }

    #[test]
    fn args_profiles_parses_lists() {
        let a = args(&["--datasets", "ciao,bookx", "--dims", "16, 32"]);
        let p = a.profiles(&Profile::ALL);
        assert_eq!(p, vec![Profile::Ciao, Profile::BookX]);
        assert_eq!(args(&[]).profiles(&[Profile::Ciao]), vec![Profile::Ciao]);
        // Unknown datasets warn and are skipped (documented probe behaviour).
        let skip = args(&["--datasets", "ciao,nope"]);
        assert_eq!(skip.profiles(&Profile::ALL), vec![Profile::Ciao]);

        assert_eq!(a.list_or("dims", &[64usize]), vec![16, 32]);
        assert_eq!(a.list_or("edges", &[10usize, 20]), vec![10, 20]);
        let err = args(&["--dims", "16,3z"]).try_list::<usize>("dims");
        assert_eq!(err.unwrap_err().value, "3z");

        // Bucket edges must ascend strictly, or the labels lie.
        assert_eq!(a.ascending_list_or("dims", &[64usize]), vec![16, 32]);
        for bad in ["40,20,10", "10,10"] {
            let err = args(&["--edges", bad]).try_ascending_list::<usize>("edges");
            assert_eq!(
                err.unwrap_err().to_string(),
                format!("invalid value '{bad}' for --edges: expected strictly ascending values")
            );
        }
    }

    #[test]
    fn improvement_formatting() {
        assert_eq!(fmt_improvement(0.12, 0.10), "+20.00%");
        assert_eq!(fmt_improvement(0.10, 0.0), "n/a");
    }

    #[test]
    fn end_to_end_smoke_baseline_vs_mars() {
        // Smallest possible end-to-end: one tiny dataset, one baseline, one
        // MARS run, all through the public harness API.
        let data = mars_data::SyntheticDataset::generate(
            "harness-smoke",
            &mars_data::SyntheticConfig {
                num_users: 50,
                num_items: 40,
                num_interactions: 900,
                num_categories: 3,
                seed: 5,
                ..Default::default()
            },
        );
        let bpr = run_model(
            &ModelSpec::baseline(BaselineKind::Bpr, 8, 3, 1),
            &data.dataset,
        );
        let mars = run_model(&ModelSpec::mars(2, 8, 3, 1), &data.dataset);
        assert!(bpr.cases > 0 && mars.cases > 0);
        assert!(bpr.hr_at(10) >= 0.0 && mars.hr_at(10) >= 0.0);
    }
}
