//! Fixture-driven red/green tests for each audit rule, plus the integration
//! test that the real workspace passes its own audit clean.

use std::path::{Path, PathBuf};

use mars_audit::{check_workspace, orphan_pub, scan_source, Finding, Rule};

fn fixture_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn fixture(name: &str) -> String {
    let path = fixture_path(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn rules_of(findings: &[Finding]) -> Vec<Rule> {
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn unsafe_safety_red_green() {
    // Red: naked unsafe block, even inside the module allowlist.
    let red = scan_source(
        "crates/runtime/src/pool.rs",
        &fixture("unsafe_safety_violation.rs"),
    );
    assert!(
        rules_of(&red).contains(&Rule::UnsafeSafety),
        "expected unsafe-safety finding, got {red:?}"
    );

    // Green: fully documented unsafe inside the allowlist.
    let green = scan_source(
        "crates/runtime/src/pool.rs",
        &fixture("unsafe_safety_clean.rs"),
    );
    assert!(green.is_empty(), "clean fixture flagged: {green:?}");

    // Confinement: the same documented code outside the allowlist fails.
    let misplaced = scan_source(
        "crates/metrics/src/lib.rs",
        &fixture("unsafe_safety_clean.rs"),
    );
    assert!(
        rules_of(&misplaced).contains(&Rule::UnsafeSafety),
        "expected confinement finding, got {misplaced:?}"
    );
}

#[test]
fn nan_ordering_red_green() {
    let red = scan_source(
        "crates/core/src/analysis.rs",
        &fixture("nan_ordering_violation.rs"),
    );
    assert!(
        rules_of(&red).contains(&Rule::NanOrdering),
        "expected nan-ordering finding, got {red:?}"
    );

    let green = scan_source(
        "crates/core/src/analysis.rs",
        &fixture("nan_ordering_clean.rs"),
    );
    assert!(green.is_empty(), "clean fixture flagged: {green:?}");

    // The total-order comparator itself is exempt.
    let exempt = scan_source(
        "crates/serve/src/order.rs",
        &fixture("nan_ordering_violation.rs"),
    );
    assert!(exempt.is_empty(), "order.rs should be exempt: {exempt:?}");
}

#[test]
fn determinism_red_green() {
    let red = scan_source(
        "crates/data/src/sampler.rs",
        &fixture("determinism_violation.rs"),
    );
    let red_rules = rules_of(&red);
    assert!(
        red_rules.contains(&Rule::Determinism),
        "expected determinism findings, got {red:?}"
    );
    // Both the StdRng sites and the Instant::now site are caught.
    assert!(
        red.iter().filter(|f| f.rule == Rule::Determinism).count() >= 3,
        "expected StdRng x2 + Instant::now, got {red:?}"
    );

    let green = scan_source(
        "crates/data/src/sampler.rs",
        &fixture("determinism_clean.rs"),
    );
    assert!(green.is_empty(), "clean fixture flagged: {green:?}");

    // Outside the deterministic crates the same code is fine.
    let out_of_scope = scan_source(
        "crates/bench/src/bin/fig5.rs",
        &fixture("determinism_violation.rs"),
    );
    assert!(
        !rules_of(&out_of_scope).contains(&Rule::Determinism),
        "bench is out of determinism scope: {out_of_scope:?}"
    );
}

#[test]
fn lemire_only_red_green() {
    let red = scan_source(
        "crates/data/src/sampler.rs",
        &fixture("lemire_only_violation.rs"),
    );
    assert!(
        rules_of(&red).contains(&Rule::LemireOnly),
        "expected lemire-only finding, got {red:?}"
    );

    let green = scan_source(
        "crates/data/src/sampler.rs",
        &fixture("lemire_only_clean.rs"),
    );
    assert!(green.is_empty(), "clean fixture flagged: {green:?}");
}

#[test]
fn relaxed_ordering_red_green() {
    let red = scan_source(
        "crates/serve/src/service.rs",
        &fixture("relaxed_ordering_violation.rs"),
    );
    assert!(
        rules_of(&red).contains(&Rule::RelaxedOrdering),
        "expected relaxed-ordering finding, got {red:?}"
    );

    let green = scan_source(
        "crates/serve/src/service.rs",
        &fixture("relaxed_ordering_clean.rs"),
    );
    assert!(green.is_empty(), "clean fixture flagged: {green:?}");
}

#[test]
fn orphan_pub_red_green() {
    // Red: a multi-file tree whose `pub` items are named only by their
    // definition, a `pub use`, a `#[cfg(test)]` module, a `tests/` tree, a
    // comment or a string.
    let red = check_workspace(&fixture_path("orphan_pub_violation")).unwrap();
    let mut items: Vec<&str> = red
        .iter()
        .filter(|f| f.rule == Rule::OrphanPub)
        .map(|f| f.message.split('`').nth(1).unwrap())
        .collect();
    items.sort_unstable();
    assert_eq!(
        items,
        [
            "pub fn comment_only",
            "pub fn no_caller",
            "pub fn reexported_only",
            "pub fn string_only",
            "pub fn test_only",
            "pub struct TestsDirOnly",
        ]
    );

    // Green: callers in a sibling fn (after a `#[cfg(test)]` item), an
    // example, a bench bin and `marsbench/src`; a pragma for the rest.
    let green = check_workspace(&fixture_path("orphan_pub_clean")).unwrap();
    assert!(green.is_empty(), "clean fixture flagged: {green:?}");

    // The pragma, not the tree, is what clears a caller-less item.
    let file = |src: &str| [("crates/x/src/lib.rs".to_string(), src.to_string())];
    assert_eq!(orphan_pub(&file("pub fn twin() {}\n")).len(), 1);
    let tagged = "// audit:allow(orphan-pub) — reference twin\npub fn twin() {}\n";
    assert!(orphan_pub(&file(tagged)).is_empty());
}

#[test]
fn pragma_suppression_is_rule_specific() {
    // A pragma for one rule must not silence another rule on the same line.
    let src = "\
let x = a.partial_cmp(&b); // audit:allow(determinism) — wrong rule
";
    let findings = scan_source("crates/core/src/x.rs", src);
    assert!(
        rules_of(&findings).contains(&Rule::NanOrdering),
        "pragma for a different rule must not suppress: {findings:?}"
    );
}

#[test]
fn findings_render_as_file_line_rule_message() {
    let findings = scan_source(
        "crates/core/src/analysis.rs",
        &fixture("nan_ordering_violation.rs"),
    );
    let rendered = findings[0].to_string();
    assert!(
        rendered.starts_with("crates/core/src/analysis.rs:"),
        "{rendered}"
    );
    assert!(rendered.contains(": nan-ordering: "), "{rendered}");
}

/// The whole point: the real workspace passes its own audit.
#[test]
fn workspace_passes_its_own_audit() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let findings = check_workspace(root).expect("walk workspace");
    assert!(
        findings.is_empty(),
        "workspace audit found {} violation(s):\n{}",
        findings.len(),
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
