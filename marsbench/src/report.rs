//! What a run leaves behind: the metric table on standard output, the
//! driver's one-line JSON, `result.json` with provenance, and one line
//! appended to `runs.jsonl` for `marsbench compare`.

use crate::json::{obj, str, Value};
use crate::pipeline::{Outcome, RunConfig};
use crate::spec::{MetricDef, END_TO_END, PER_LAYER};
use std::io::Write as _;
use std::process::Command;

/// The metrics a run of this kind must report, in table order.
pub fn expected_metrics(trace: bool) -> Vec<MetricDef> {
    if trace {
        PER_LAYER.iter().map(|l| l.def).collect()
    } else {
        END_TO_END.to_vec()
    }
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Where and on what the numbers were taken — so no row can say
/// "parallel" while running on one worker, or hide its compiler.
pub fn provenance() -> Value {
    let unknown = || "unknown".to_string();
    let dirty = command_line("git", &["status", "--porcelain"]).map(|s| !s.is_empty());
    obj(vec![
        ("nproc", Value::Num(mars_runtime::resolve_threads(0) as f64)),
        ("cpu_model", str(cpu_model())),
        (
            "simd_tier",
            str(format!("{:?}", mars_tensor::simd::active_path())),
        ),
        (
            "rustc",
            str(command_line("rustc", &["-V"]).unwrap_or_else(unknown)),
        ),
        (
            "git_sha",
            str(command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown)),
        ),
        ("git_dirty", dirty.map_or(Value::Null, Value::Bool)),
    ])
}

fn metric_values(defs: &[MetricDef], out: &Outcome) -> Value {
    Value::Obj(
        defs.iter()
            .filter_map(|d| {
                let value = *out.metrics.get(d.name)?;
                Some((
                    d.name.to_string(),
                    obj(vec![("value", Value::Num(value)), ("unit", str(d.unit))]),
                ))
            })
            .collect(),
    )
}

/// The object the driver reads from the last line of standard output.
pub fn driver_line(cfg: &RunConfig, out: &Outcome) -> Value {
    // `result` repeats these four members; keep the two in step.
    obj(vec![
        ("correct", Value::Bool(out.failures.is_empty())),
        ("attempted", Value::Num(out.attempted.max(1) as f64)),
        ("failed", Value::Num(out.failed as f64)),
        ("metrics", metric_values(&expected_metrics(cfg.trace), out)),
    ])
}

/// The full record of a run: what was asked, where it ran, the driver's
/// line, the notes and the failed checks.
pub fn result(cfg: &RunConfig, out: &Outcome) -> Value {
    let mut members = vec![
        ("workload", str(cfg.workload.name)),
        ("seed", Value::Num(cfg.seed as f64)),
        ("scale", str(cfg.scale.name())),
        ("seconds", Value::Num(cfg.seconds)),
        ("trace", Value::Bool(cfg.trace)),
        ("provenance", provenance()),
        ("correct", Value::Bool(out.failures.is_empty())),
        ("attempted", Value::Num(out.attempted.max(1) as f64)),
        ("failed", Value::Num(out.failed as f64)),
        ("metrics", metric_values(&expected_metrics(cfg.trace), out)),
    ];
    let notes = out
        .notes
        .iter()
        .map(|(k, v)| (k.to_string(), Value::Num(*v)))
        .collect();
    members.push(("notes", Value::Obj(notes)));
    members.push((
        "failures",
        Value::Arr(out.failures.iter().map(str).collect()),
    ));
    obj(members)
}

/// Prints every metric by name with its unit, then the notes and any
/// failed check.
pub fn print_table(cfg: &RunConfig, out: &Outcome) {
    println!(
        "marsbench {} seed {} scale {} seconds {} trace {}\n  why: {}",
        cfg.workload.name,
        cfg.seed,
        cfg.scale.name(),
        cfg.seconds,
        u8::from(cfg.trace),
        cfg.workload.why
    );
    let row = |d: &MetricDef, tail: String| match out.metrics.get(d.name) {
        Some(v) => println!(
            "  {:<40} {:>16.6} {:<6} {} is better{tail}",
            d.name,
            v,
            d.unit,
            d.better.name()
        ),
        None => println!("  {:<40} {:>16} {:<6}", d.name, "MISSING", d.unit),
    };
    if cfg.trace {
        for l in &PER_LAYER {
            row(
                &l.def,
                format!("; should move {} (most on {})", l.moves, l.most_on),
            );
        }
    } else {
        for d in &END_TO_END {
            row(d, String::new());
        }
    }
    for (k, v) in &out.notes {
        println!("  note {k:<35} {v:>16.6}");
    }
    for f in &out.failures {
        println!("  CHECK FAILED: {f}");
    }
}

/// Writes `result.json` (this run) and appends to `runs.jsonl` (every run).
pub fn write_files(cfg: &RunConfig, out: &Outcome) -> std::io::Result<()> {
    let record = result(cfg, out).render();
    std::fs::write(cfg.out_dir.join("result.json"), format!("{record}\n"))?;
    let mut runs = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(cfg.out_dir.join("runs.jsonl"))?;
    writeln!(runs, "{record}")
}
