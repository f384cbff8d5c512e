//! `marsbench` — the repository's one benchmark: generate dataset → fit →
//! evaluate → snapshot load + IVF build + publish → direct retrieval →
//! `RecService` closed loop → open loop, on three workloads, with named
//! metrics and a traced per-layer run. See `README.md` beside the manifest.
//!
//! ```text
//! marsbench [run] [--workload <name>|all] [--seed <u64>] [--seconds <s>]
//!                 [--trace 0|1] [--scale full|smoke]
//! marsbench compare <base.jsonl> <new.jsonl> [--spec <BENCHMARK.json>]
//! ```
//!
//! A run prints every metric by name with its unit and, as its last line,
//! the JSON object the driver reads; it exits non-zero if a correctness
//! check failed.

#![forbid(unsafe_code)]

mod compare;
mod harness;
mod inputs;
mod json;
mod layers;
mod load;
mod pipeline;
mod report;
mod spec;
mod trace;

use pipeline::{Outcome, RunConfig};
use spec::{Scale, Workload, WORKLOADS};
use std::process::ExitCode;

const USAGE: &str =
    "usage: marsbench [run] [--workload <dense|wide|mar_churn|all>] [--seed <u64>] \
[--seconds <1..=60>] [--trace 0|1] [--scale full|smoke]\n       \
marsbench compare <base.jsonl> <new.jsonl> [--spec <BENCHMARK.json>]";

struct RunArgs {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    tamper: bool,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut out = RunArgs {
        workloads: WORKLOADS.to_vec(),
        seed: spec::DEFAULT_SEED,
        seconds: spec::DEFAULT_SECONDS,
        trace: false,
        scale: Scale::Full,
        tamper: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        // Test-only switch (see tests/marsbench_smoke.rs): takes no value.
        if flag == "--tamper" {
            out.tamper = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => {}
            "--workload" => {
                out.workloads = vec![Workload::by_name(value)
                    .ok_or_else(|| format!("unknown workload {value:?}"))?]
            }
            "--seed" => out.seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                out.seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (0.5..=60.0).contains(s))
                    .ok_or_else(|| format!("--seconds must be within 0.5..=60, got {value:?}"))?
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            "--scale" => {
                out.scale = match value.as_str() {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    _ => return Err(format!("--scale takes full or smoke, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(out)
}

/// One workload, start to finish; `Ok(true)` when every check passed.
fn run_workload(cfg: &RunConfig) -> std::io::Result<bool> {
    let mut log = trace::SpanLog::new(cfg.trace);
    let mut out = Outcome::default();
    let artifacts = pipeline::run(cfg, &mut log, &mut out);
    if cfg.trace {
        layers::measure(cfg, &artifacts, &mut log, &mut out);
        out.set("trace.spans", log.spans().len() as f64);
        std::fs::write(cfg.out_dir.join("trace.jsonl"), log.to_jsonl())?;
    }
    drop(artifacts);
    for d in report::expected_metrics(cfg.trace) {
        out.check(out.metrics.contains_key(d.name), || {
            format!("metric {} was not measured", d.name)
        });
    }
    report::print_table(cfg, &out);
    report::write_files(cfg, &out)?;
    println!("{}", report::driver_line(cfg, &out).render());
    Ok(out.failures.is_empty())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fail = |message: String| {
        eprintln!("marsbench: {message}\n{USAGE}");
        ExitCode::from(2)
    };
    if args.first().map(String::as_str) == Some("compare") {
        let (mut paths, mut spec_path) = (Vec::new(), "BENCHMARK.json".to_string());
        let mut it = args[1..].iter();
        while let Some(a) = it.next() {
            if a == "--spec" {
                match it.next() {
                    Some(p) => spec_path = p.clone(),
                    None => return fail("--spec needs a value".into()),
                }
            } else {
                paths.push(a.clone());
            }
        }
        let [base, new] = paths.as_slice() else {
            return fail("compare takes exactly two result files".into());
        };
        return match compare::run(&spec_path, base, new) {
            Ok(code) => ExitCode::from(code as u8),
            Err(e) => fail(e),
        };
    }

    let rest = if args.first().map(String::as_str) == Some("run") {
        &args[1..]
    } else {
        &args[..]
    };
    let run = match parse_run(rest) {
        Ok(r) => r,
        Err(e) => return fail(e),
    };
    let mut all_ok = true;
    for workload in run.workloads {
        let out_dir = match pipeline::default_out_dir(workload.name) {
            Ok(d) => d,
            Err(e) => return fail(format!("cannot create the output directory: {e}")),
        };
        let cfg = RunConfig {
            workload,
            scale: run.scale,
            seed: run.seed,
            seconds: run.seconds,
            trace: run.trace,
            tamper: run.tamper,
            out_dir,
        };
        match run_workload(&cfg) {
            Ok(ok) => all_ok &= ok,
            Err(e) => return fail(format!("cannot write results: {e}")),
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
