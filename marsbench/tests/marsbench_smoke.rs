//! Runs the real binary on all three workloads at `--scale smoke`, traced
//! and untraced, and holds it to `BENCHMARK.json`: every declared metric
//! emitted exactly once, legal names, counts within the contract's limits,
//! and a tampered expected response must fail the run.
//!
//! `cargo test --manifest-path marsbench/Cargo.toml`

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use json::Value;
use std::path::PathBuf;
use std::process::Command;

fn spec() -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(spec: &Value, key: &str) -> Vec<String> {
    spec.get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

fn legal_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Runs the binary in its own output directory; returns (exit ok, stdout).
fn run(tag: &str, args: &[&str]) -> (bool, String) {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(tag);
    let output = Command::new(env!("CARGO_BIN_EXE_marsbench"))
        .args(args)
        .args(["--scale", "smoke", "--seconds", "1", "--seed", "5"])
        .env("CARGO_TARGET_DIR", &out_dir)
        .output()
        .expect("marsbench starts");
    (
        output.status.success(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
    )
}

fn last_line(stdout: &str) -> Value {
    let line = stdout.lines().last().expect("some output");
    json::parse(line).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {line}"))
}

#[test]
fn spec_stays_within_the_contract() {
    let spec = spec();
    let workloads = names(&spec, "workloads");
    let end_to_end = names(&spec, "end_to_end");
    let per_layer = names(&spec, "per_layer");
    assert!(
        (2..=8).contains(&workloads.len()),
        "{} workloads",
        workloads.len()
    );
    assert!(
        (1..=16).contains(&end_to_end.len()),
        "{} end-to-end metrics",
        end_to_end.len()
    );
    assert!(
        (1..=128).contains(&per_layer.len()),
        "{} per-layer metrics",
        per_layer.len()
    );
    let mut all: Vec<&String> = workloads
        .iter()
        .chain(&end_to_end)
        .chain(&per_layer)
        .collect();
    for name in &all {
        assert!(legal_name(name), "illegal name {name:?}");
    }
    all.sort();
    let before = all.len();
    all.dedup();
    assert_eq!(all.len(), before, "a name is used twice");
    let setup = spec
        .get("end_to_end")
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .find(|m| m.get("name").and_then(Value::as_str) == Some("setup_s"));
    let setup = setup.expect("setup_s is an end-to-end metric");
    assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
    assert_eq!(setup.get("better").and_then(Value::as_str), Some("lower"));
    for m in spec.get("end_to_end").and_then(Value::as_arr).unwrap() {
        let bound = m.get("bound").and_then(Value::as_f64).expect("a bound");
        assert!((0.0..=0.25).contains(&bound), "bound {bound} out of range");
    }
}

#[test]
fn every_declared_metric_is_emitted_exactly_once_per_workload() {
    let spec = spec();
    for workload in names(&spec, "workloads") {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let tag = format!("{workload}-{trace}");
            let (ok, stdout) = run(&tag, &["--workload", &workload, "--trace", trace]);
            assert!(ok, "{tag} failed:\n{stdout}");
            let line = last_line(&stdout);
            let keys: Vec<&str> = line.members().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"], "{tag}");
            assert_eq!(line.get("correct"), Some(&Value::Bool(true)), "{tag}");
            assert_eq!(
                line.get("failed").and_then(Value::as_f64),
                Some(0.0),
                "{tag}"
            );
            assert!(
                line.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0,
                "{tag}"
            );
            let mut emitted: Vec<String> = line
                .get("metrics")
                .unwrap()
                .members()
                .iter()
                .map(|(k, _)| k.clone())
                .collect();
            let mut declared = names(&spec, key);
            emitted.sort();
            declared.sort();
            assert_eq!(
                emitted, declared,
                "{tag}: emitted vs declared in BENCHMARK.json"
            );
            for (name, m) in line.get("metrics").unwrap().members() {
                let value = m.get("value").and_then(Value::as_f64);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{tag}: {name} = {value:?}"
                );
                let declared_unit = spec
                    .get(key)
                    .and_then(Value::as_arr)
                    .unwrap()
                    .iter()
                    .find(|d| d.get("name").and_then(Value::as_str) == Some(name))
                    .and_then(|d| d.get("unit"));
                assert_eq!(m.get("unit"), declared_unit, "{tag}: unit of {name}");
            }
            // The human-readable table names every metric too.
            for name in &declared {
                assert_eq!(
                    stdout
                        .lines()
                        .filter(|l| l.split_whitespace().next() == Some(name))
                        .count(),
                    1,
                    "{tag}: {name} in the table"
                );
            }
            if trace == "1" {
                let spans = std::fs::read_to_string(
                    PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
                        .join(&tag)
                        .join("marsbench")
                        .join(&workload)
                        .join("trace.jsonl"),
                )
                .expect("trace.jsonl written");
                let parsed: Vec<Value> = spans
                    .lines()
                    .map(|l| json::parse(l).expect("a span per line"))
                    .collect();
                assert!(parsed.len() > 100, "{tag}: only {} spans", parsed.len());
                let ids: std::collections::BTreeSet<u64> = parsed
                    .iter()
                    .map(|s| s.get("id").and_then(Value::as_f64).unwrap() as u64)
                    .collect();
                assert_eq!(ids.len(), parsed.len(), "{tag}: span ids repeat");
                let linked = parsed
                    .iter()
                    .filter(|s| {
                        ids.contains(&(s.get("parent").and_then(Value::as_f64).unwrap() as u64))
                    })
                    .count();
                assert!(
                    linked * 10 > parsed.len() * 9,
                    "{tag}: only {linked} of {} spans name a recorded parent",
                    parsed.len()
                );
            }
        }
    }
}

#[test]
fn a_tampered_expected_response_fails_the_run() {
    let (ok, stdout) = run(
        "tamper",
        &["--workload", "dense", "--trace", "0", "--tamper"],
    );
    assert!(!ok, "a wrong answer must fail the run:\n{stdout}");
    let line = last_line(&stdout);
    assert_eq!(line.get("correct"), Some(&Value::Bool(false)));
    assert_eq!(line.get("failed").and_then(Value::as_f64), Some(1.0));
    assert!(stdout.contains("CHECK FAILED"), "{stdout}");
}

#[test]
fn bad_arguments_are_refused() {
    for args in [
        &["--workload", "nope"][..],
        &["--trace", "2"],
        &["--seconds", "0"],
        &["--bogus", "1"],
        &["compare", "only-one"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_marsbench"))
            .args(args)
            .output()
            .expect("marsbench starts");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
