//! `marsbench compare <a.jsonl> <b.jsonl>`: the regression rule of
//! `BENCHMARK.json` applied to two sets of runs (`runs.jsonl` files, or
//! any file with one result object per line). One row per (workload,
//! end-to-end metric): both medians, the ratio with its base, each side's
//! own spread, and a verdict.

use crate::harness::{median, spread};
use crate::json::{self, Value};
use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// The new median is worse than the base by more than the bound.
    Regression,
    /// A side's own spread exceeds the bound and the runs interleave, so
    /// neither "unchanged" nor "regressed" can be said.
    Unresolved,
}

/// The rule for one (workload, metric): `base` and `new` are the values of
/// each side's runs, `higher_is_better` and `bound` come from the spec.
pub fn judge(base: &[f64], new: &[f64], higher_is_better: bool, bound: f64) -> (f64, f64, Verdict) {
    let (mb, mn) = (median(base), median(new));
    let worse_by = if higher_is_better {
        (mb - mn) / mb.abs()
    } else {
        (mn - mb) / mb.abs()
    };
    let noisy = [base, new]
        .iter()
        .any(|side| spread(side).is_some_and(|s| s > bound));
    let better = |n: f64, b: f64| if higher_is_better { n > b } else { n < b };
    let all_better = new.iter().all(|&n| base.iter().all(|&b| better(n, b)));
    let verdict = if noisy && !all_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    };
    (mb, mn, verdict)
}

/// `(workload, metric) -> values`, from a file of result objects. Traced
/// runs carry no end-to-end metrics and contribute nothing.
fn read_runs(path: &str) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let run = json::parse(line).map_err(|e| format!("{path}: {e}"))?;
        let workload = run
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}: a run has no workload"))?;
        for (name, m) in run.get("metrics").map_or(&[][..], Value::members) {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                out.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(out)
}

/// Runs the comparison and prints the table. Exit code: 0 all within
/// bounds, 1 at least one regression, 2 none regressed but some unresolved.
pub fn run(spec_path: &str, base_path: &str, new_path: &str) -> Result<i32, String> {
    let spec_text = std::fs::read_to_string(spec_path).map_err(|e| format!("{spec_path}: {e}"))?;
    let spec = json::parse(&spec_text).map_err(|e| format!("{spec_path}: {e}"))?;
    let (base, new) = (read_runs(base_path)?, read_runs(new_path)?);
    let workloads = spec.get("workloads").and_then(Value::as_arr).unwrap_or(&[]);
    let metrics = spec
        .get("end_to_end")
        .and_then(Value::as_arr)
        .unwrap_or(&[]);
    println!(
        "{:<10} {:<24} {:>14} {:>14} {:>22} {:>7} {:>7} {:>6}  verdict",
        "workload",
        "metric",
        "base median",
        "new median",
        "new/base (base)",
        "spr.b",
        "spr.n",
        "bound"
    );
    let (mut regressions, mut unresolved, mut missing) = (0, 0, 0);
    for w in workloads
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str))
    {
        for m in metrics {
            let name = m.get("name").and_then(Value::as_str).unwrap_or("?");
            let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
            let higher = m.get("better").and_then(Value::as_str) == Some("higher");
            let bound = m.get("bound").and_then(Value::as_f64).unwrap_or(0.0);
            let key = (w.to_string(), name.to_string());
            let (Some(b), Some(n)) = (base.get(&key), new.get(&key)) else {
                println!("{w:<10} {name:<24} missing on one side");
                missing += 1;
                continue;
            };
            let (mb, mn, verdict) = judge(b, n, higher, bound);
            let show = |s: Option<f64>| s.map_or("n/a".to_string(), |s| format!("{s:.3}"));
            println!(
                "{w:<10} {name:<24} {mb:>14.5} {mn:>14.5} {:>22} {:>7} {:>7} {bound:>6.2}  {}",
                format!("{:.4} ({mb:.4} {unit})", mn / mb),
                show(spread(b)),
                show(spread(n)),
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regression => "REGRESSION",
                    Verdict::Unresolved => "unresolved",
                }
            );
            regressions += i32::from(verdict == Verdict::Regression);
            unresolved += i32::from(verdict == Verdict::Unresolved);
        }
    }
    println!("{regressions} regression(s), {unresolved} unresolved, {missing} missing");
    Ok(if regressions > 0 || missing > 0 {
        1
    } else if unresolved > 0 {
        2
    } else {
        0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let base = [100.0, 101.0, 99.0];
        // Higher is better, bound 10 %: 5 % down is fine, 15 % down is not.
        assert_eq!(judge(&base, &[95.0, 96.0, 94.0], true, 0.10).2, Verdict::Ok);
        assert_eq!(
            judge(&base, &[85.0, 86.0, 84.0], true, 0.10).2,
            Verdict::Regression
        );
        // Lower is better: 15 % up regresses, any improvement is fine.
        assert_eq!(
            judge(&base, &[115.0, 116.0, 114.0], false, 0.10).2,
            Verdict::Regression
        );
        assert_eq!(
            judge(&base, &[50.0, 51.0, 49.0], false, 0.10).2,
            Verdict::Ok
        );
        // A side whose own spread exceeds the bound cannot be judged …
        assert_eq!(
            judge(&[100.0, 140.0, 60.0], &[95.0, 96.0, 94.0], true, 0.10).2,
            Verdict::Unresolved
        );
        // … unless every new run beats every base run.
        assert_eq!(
            judge(&[100.0, 140.0, 60.0], &[150.0, 151.0, 149.0], true, 0.10).2,
            Verdict::Ok
        );
        // Single runs have no spread and are judged on the medians alone.
        assert_eq!(judge(&[100.0], &[80.0], true, 0.10).2, Verdict::Regression);
    }
}
