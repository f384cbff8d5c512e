//! Repo-invariant static analysis for the MARS workspace.
//!
//! The engine's headline guarantees are *contracts*, not emergent properties:
//! bit-identical training results at any worker count, NaN-total ordering in
//! every ranking path, counter-keyed sampling, Lemire-only range mapping.
//! Property tests only catch a violation they happen to exercise; this crate
//! makes each contract a named, greppable rule that fails the build the moment
//! a future change reintroduces an already-eradicated bug class.
//!
//! Run as `cargo run -p mars-audit -- check` (CI does the same). Findings
//! print as `file:line: rule: message` and `check` exits nonzero on any hit.
//!
//! # Rules
//!
//! - **`unsafe-safety`** — every `unsafe` block or fn must be covered by a
//!   `// SAFETY:` comment (or a `# Safety` doc section), and `unsafe` in
//!   `src/` is confined to the modules that own the lock-free/SIMD surface:
//!   `tensor::simd`, `runtime::{pool,oneshot,rng}`, `serve::service`.
//!   Established when PR 3 introduced the SIMD tiers and allocation-free
//!   `WorkerPool::scatter`; the allowlist is the review boundary for
//!   ROADMAP item 3 (lock-free training scale-out).
//! - **`nan-ordering`** — no `partial_cmp` float comparisons outside
//!   `serve::order`. PR 5 eradicated the NaN-unsound
//!   `partial_cmp(..).unwrap()` sort from `MultiFacetModel::recommend` and
//!   introduced `rank_cmp` (NaN ranks strictly last, ties break by item id);
//!   everything else uses `f32::total_cmp`. This rule flags *any*
//!   `partial_cmp` in code — stricter than the original bug shape on
//!   purpose, since `.unwrap_or(Equal)` variants are just as order-unsound.
//! - **`determinism`** — the deterministic crates (`data`, `tensor`, `core`,
//!   `optim`, `metrics`, `baselines`) must not touch wall clocks or OS
//!   entropy: `Instant::now`, `SystemTime`, `StdRng`, `thread_rng` are
//!   banned in their `src/` (PR 4: no baseline `fit()` uses `StdRng`;
//!   batches are pure functions of `(seed, batch_index)`). `core::io` is
//!   allowlisted for fsync timing, and `runtime`/`serve`/`bench` are out of
//!   scope (they own clocks by design). Trailing `#[cfg(test)]` modules are
//!   exempt — property tests legitimately compare against `StdRng`
//!   reference streams.
//! - **`lemire-only`** — no `%` range reduction on raw RNG words. PR 9 moved
//!   every draw path onto `mars_runtime::rng::lemire_map` (widening-multiply
//!   mapping); modulo reduction is both biased and slower. The heuristic is
//!   line-granular: a `%` on the same line as a raw-word draw
//!   (`next_u64`/`next_u32`/`next_word`) is a finding.
//! - **`relaxed-ordering`** — every `Ordering::Relaxed` must be covered by
//!   an `// ORDERING:` comment explaining why relaxed suffices (what the
//!   site synchronizes with, or why it doesn't need to). PR 5/7 established
//!   the publish/consume discipline (`Release` publish, `Acquire` read) for
//!   `SnapshotCell` and the one-shot slots; an unexplained `Relaxed` is
//!   either a latent reorder bug or missing documentation — both fail.
//! - **`orphan-pub`** — every `pub` item in `crates/*/src` has a real
//!   caller. The only rule that needs the whole tree: one pass indexes
//!   every identifier in code, then reports each `pub fn`/`struct`/`enum`/
//!   `trait`/`type`/`const`/`static` whose name appears nowhere but in
//!   definitions, `pub use` re-exports, `#[cfg(test)]` items, `tests/`
//!   trees and comments or strings (which the lexer already drops).
//!   `examples/`, `crates/bench/src/bin` and `marsbench/src` are ordinary
//!   code and count as callers. Name-based, so it under-reports on common
//!   names. Dead forks used to be found by grepping by hand; this finds
//!   them mechanically, and its pragmas are the checked list of items kept
//!   public on purpose (reference twins, test support).
//!
//! # Suppression
//!
//! Explicit and greppable: `// audit:allow(<rule>) — <reason>` on the
//! finding's line (trailing) or the line directly above it. Example:
//!
//! ```text
//! use rand::rngs::StdRng; // audit:allow(determinism) — seeded reference stream
//! ```
//!
//! # Coverage model
//!
//! `// SAFETY:` and `// ORDERING:` comments cover their *paragraph*: every
//! following line until the next blank line. A comment block above a
//! multi-line statement therefore covers the whole statement, and one block
//! may justify a contiguous run of sites (e.g. a struct literal loading
//! eight stats counters). A blank line ends the covered region, so an
//! unrelated site further down needs its own comment.
//!
//! # Scope
//!
//! All `.rs` files in the workspace are scanned except `crates/shims/`
//! (vendored API stand-ins with pinned streams — their internals are frozen
//! by golden tests, and rewriting the shim's modulo `gen_range` would shift
//! every `StdRng`-derived golden), `target/`, and `fixtures/` directories
//! (seeded rule violations for the audit's own test suite).

#![forbid(unsafe_code)]

use std::collections::HashSet;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The named contracts enforced by the audit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Rule {
    UnsafeSafety,
    NanOrdering,
    Determinism,
    LemireOnly,
    RelaxedOrdering,
    OrphanPub,
}

/// All rules, in reporting order.
pub const ALL_RULES: [Rule; 6] = [
    Rule::UnsafeSafety,
    Rule::NanOrdering,
    Rule::Determinism,
    Rule::LemireOnly,
    Rule::RelaxedOrdering,
    Rule::OrphanPub,
];

impl Rule {
    /// The kebab-case name used in findings and `audit:allow(..)` pragmas.
    pub fn name(self) -> &'static str {
        match self {
            Rule::UnsafeSafety => "unsafe-safety",
            Rule::NanOrdering => "nan-ordering",
            Rule::Determinism => "determinism",
            Rule::LemireOnly => "lemire-only",
            Rule::RelaxedOrdering => "relaxed-ordering",
            Rule::OrphanPub => "orphan-pub",
        }
    }

    /// One-line statement of the contract the rule guards.
    pub fn contract(self) -> &'static str {
        match self {
            Rule::UnsafeSafety => {
                "unsafe is documented (// SAFETY:) and confined to \
                 tensor::simd, runtime::{pool,oneshot,rng}, serve::service"
            }
            Rule::NanOrdering => {
                "float ranking uses f32::total_cmp or serve::rank_cmp, \
                 never partial_cmp (NaN-total ordering, PR 5)"
            }
            Rule::Determinism => {
                "deterministic crates never read wall clocks or OS entropy \
                 (bit-identical results are a pure function of the seed)"
            }
            Rule::LemireOnly => "range reduction of RNG words uses lemire_map, never % (PR 9)",
            Rule::RelaxedOrdering => {
                "every Ordering::Relaxed carries an // ORDERING: justification"
            }
            Rule::OrphanPub => {
                "every pub item in crates/*/src is named by code outside \
                 tests, re-exports and comments"
            }
        }
    }

    fn from_name(name: &str) -> Option<Rule> {
        ALL_RULES.iter().copied().find(|r| r.name() == name)
    }
}

/// One rule violation at a specific source line.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-indexed line number.
    pub line: usize,
    pub rule: Rule,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file,
            self.line,
            self.rule.name(),
            self.message
        )
    }
}

// ---------------------------------------------------------------------------
// Policy tables. Paths are workspace-relative, `/`-separated.
// ---------------------------------------------------------------------------

/// `src/` files allowed to contain `unsafe` (still requiring `// SAFETY:`).
/// Test and bench targets may call the allowlisted crates' `unsafe fn`s
/// directly (cross-tier SIMD equivalence tests) — confinement applies to
/// `src/` only, but the SAFETY-comment requirement applies everywhere.
const UNSAFE_ALLOWED_SRC: [&str; 5] = [
    "crates/tensor/src/simd.rs",
    "crates/runtime/src/pool.rs",
    "crates/runtime/src/oneshot.rs",
    "crates/runtime/src/rng.rs",
    "crates/serve/src/service.rs",
];

/// Files allowed to call `partial_cmp` on floats: the total-order comparator
/// itself (it filters NaN before delegating, property-tested in PR 5).
const NAN_ORDERING_ALLOWED: [&str; 1] = ["crates/serve/src/order.rs"];

/// `src/` trees whose code must be a pure function of the seed.
const DETERMINISTIC_SRC: [&str; 6] = [
    "crates/data/src/",
    "crates/tensor/src/",
    "crates/core/src/",
    "crates/optim/src/",
    "crates/metrics/src/",
    "crates/baselines/src/",
];

/// Deterministic-crate files exempt from the determinism rule:
/// `core::io` times fsync for the atomic snapshot publish (PR 8).
const DETERMINISM_ALLOWED: [&str; 1] = ["crates/core/src/io.rs"];

/// Tokens the determinism rule bans inside deterministic `src/`.
const DETERMINISM_TOKENS: [&str; 4] = ["Instant::now", "SystemTime", "StdRng", "thread_rng"];

/// Raw-word draw tokens; `%` on the same code line is a lemire-only finding.
const RNG_WORD_TOKENS: [&str; 3] = ["next_u64", "next_u32", "next_word"];

// ---------------------------------------------------------------------------
// Line lexer: split each physical line into code text and comment text, with
// string/char literal contents removed from the code text. State (block
// comments, multi-line strings) persists across lines.
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum LexState {
    Code,
    /// Inside `/* .. */`, with nesting depth.
    Block(u32),
    /// Inside a `"…"` string literal.
    Str,
    /// Inside a raw string literal closed by `"` plus this many `#`s.
    RawStr(u32),
}

#[derive(Clone, Debug)]
struct LineInfo {
    /// Code with comments removed and literal contents blanked.
    code: String,
    /// Concatenated comment text on this line (line + block comments).
    comment: String,
    /// True when the raw line is empty/whitespace-only.
    blank: bool,
}

fn lex_lines(source: &str) -> Vec<LineInfo> {
    let mut out = Vec::new();
    let mut state = LexState::Code;
    for raw in source.lines() {
        let chars: Vec<char> = raw.chars().collect();
        let mut code = String::new();
        let mut comment = String::new();
        let mut i = 0;
        while i < chars.len() {
            match state {
                LexState::Code => {
                    let c = chars[i];
                    let next = chars.get(i + 1).copied();
                    if c == '/' && next == Some('/') {
                        // Line comment (incl. doc comments) — rest of line.
                        comment.extend(&chars[i..]);
                        i = chars.len();
                    } else if c == '/' && next == Some('*') {
                        state = LexState::Block(1);
                        i += 2;
                    } else if c == '"' {
                        code.push('"');
                        state = LexState::Str;
                        i += 1;
                    } else if c == 'r'
                        && matches!(next, Some('"') | Some('#'))
                        && !prev_is_ident(&chars, i)
                    {
                        // Raw string r"…", r#"…"#, …
                        let mut hashes = 0;
                        let mut j = i + 1;
                        while chars.get(j) == Some(&'#') {
                            hashes += 1;
                            j += 1;
                        }
                        if chars.get(j) == Some(&'"') {
                            code.push('"');
                            state = LexState::RawStr(hashes);
                            i = j + 1;
                        } else {
                            code.push(c);
                            i += 1;
                        }
                    } else if c == '\'' {
                        // Char literal vs lifetime. `'\…'` and `'x'` are
                        // literals (skip, so a quote char can't open a fake
                        // string); anything else is a lifetime.
                        if next == Some('\\') {
                            let mut j = i + 2;
                            while j < chars.len() && chars[j] != '\'' {
                                if chars[j] == '\\' {
                                    j += 1;
                                }
                                j += 1;
                            }
                            code.push_str("' '");
                            i = j + 1;
                        } else if chars.get(i + 2) == Some(&'\'') {
                            code.push_str("' '");
                            i += 3;
                        } else {
                            code.push(c);
                            i += 1;
                        }
                    } else {
                        code.push(c);
                        i += 1;
                    }
                }
                LexState::Block(depth) => {
                    let c = chars[i];
                    let next = chars.get(i + 1).copied();
                    if c == '*' && next == Some('/') {
                        state = if depth == 1 {
                            LexState::Code
                        } else {
                            LexState::Block(depth - 1)
                        };
                        i += 2;
                    } else if c == '/' && next == Some('*') {
                        state = LexState::Block(depth + 1);
                        i += 2;
                    } else {
                        comment.push(c);
                        i += 1;
                    }
                }
                LexState::Str => {
                    let c = chars[i];
                    if c == '\\' {
                        i += 2;
                    } else if c == '"' {
                        code.push('"');
                        state = LexState::Code;
                        i += 1;
                    } else {
                        i += 1;
                    }
                }
                LexState::RawStr(hashes) => {
                    if chars[i] == '"' {
                        let h = hashes as usize;
                        let closed = (1..=h).all(|k| chars.get(i + k) == Some(&'#'));
                        if closed {
                            code.push('"');
                            state = LexState::Code;
                            i += 1 + h;
                        } else {
                            i += 1;
                        }
                    } else {
                        i += 1;
                    }
                }
            }
        }
        out.push(LineInfo {
            code,
            comment,
            blank: raw.trim().is_empty(),
        });
    }
    out
}

fn prev_is_ident(chars: &[char], i: usize) -> bool {
    i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_')
}

/// Find `word` in `code` at identifier boundaries; returns the byte offset.
fn find_word(code: &str, word: &str) -> Option<usize> {
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(pos) = code[from..].find(word) {
        let start = from + pos;
        let end = start + word.len();
        let ok_before =
            start == 0 || !(bytes[start - 1].is_ascii_alphanumeric() || bytes[start - 1] == b'_');
        let ok_after =
            end >= bytes.len() || !(bytes[end].is_ascii_alphanumeric() || bytes[end] == b'_');
        if ok_before && ok_after {
            return Some(start);
        }
        from = end;
    }
    None
}

/// `unsafe` in type position (`run: unsafe fn(..)`, transmute targets) is a
/// fn-pointer type, not an unsafe operation: `unsafe` directly followed by
/// `fn` and then `(` — declarations always have a name between `fn` and `(`.
fn is_fn_pointer_type(code: &str, unsafe_pos: usize) -> bool {
    let rest = code[unsafe_pos + "unsafe".len()..].trim_start();
    if let Some(after_fn) = rest.strip_prefix("fn") {
        return after_fn.trim_start().starts_with('(');
    }
    false
}

/// Pragmas: `audit:allow(rule)` in a comment suppresses that rule on the
/// pragma's line and the line directly below it.
fn pragmas(lines: &[LineInfo]) -> Vec<Vec<Rule>> {
    let mut allowed = vec![Vec::new(); lines.len()];
    for (idx, li) in lines.iter().enumerate() {
        let mut rest = li.comment.as_str();
        while let Some(pos) = rest.find("audit:allow(") {
            rest = &rest[pos + "audit:allow(".len()..];
            let Some(close) = rest.find(')') else { break };
            if let Some(rule) = Rule::from_name(rest[..close].trim()) {
                allowed[idx].push(rule);
            }
            rest = &rest[close + 1..];
        }
    }
    allowed
}

fn allows(allowed: &[Vec<Rule>], idx: usize, rule: Rule) -> bool {
    allowed[idx].contains(&rule) || (idx > 0 && allowed[idx - 1].contains(&rule))
}

/// Per line: inside an item gated by `#[cfg(test)]`, from the attribute to
/// the item's closing brace (or its `;` when it has no body).
fn cfg_test_lines(lines: &[LineInfo]) -> Vec<bool> {
    let mut out = vec![false; lines.len()];
    let (mut gated, mut opened, mut depth) = (false, false, 0i32);
    for (idx, li) in lines.iter().enumerate() {
        if !gated && li.code.contains("#[cfg(test)]") {
            (gated, opened, depth) = (true, false, 0);
        }
        if !gated {
            continue;
        }
        out[idx] = true;
        for c in li.code.chars() {
            match c {
                '{' => (depth, opened) = (depth + 1, true),
                '(' | '[' => depth += 1,
                ')' | ']' | '}' => depth -= 1,
                ';' if depth == 0 => opened = true,
                _ => {}
            }
        }
        gated = !(opened && depth == 0);
    }
    out
}

// ---------------------------------------------------------------------------
// Scanner
// ---------------------------------------------------------------------------

/// Scan one file's source. `rel_path` is the workspace-relative path and
/// selects which policy tables apply; it must use `/` separators.
pub fn scan_source(rel_path: &str, source: &str) -> Vec<Finding> {
    let lines = lex_lines(source);
    let n = lines.len();
    let allowed = pragmas(&lines);
    let is_allowed = |idx: usize, rule: Rule| allows(&allowed, idx, rule);

    // Paragraph coverage for SAFETY/ORDERING annotations: a marker covers
    // every following line until the next blank line.
    let mut safety_cov = vec![false; n];
    let mut ordering_cov = vec![false; n];
    let mut s = false;
    let mut o = false;
    for (idx, li) in lines.iter().enumerate() {
        if li.blank {
            s = false;
            o = false;
        }
        if li.comment.contains("SAFETY:") || li.comment.contains("# Safety") {
            s = true;
        }
        if li.comment.contains("ORDERING:") {
            o = true;
        }
        safety_cov[idx] = s;
        ordering_cov[idx] = o;
    }

    let is_src = rel_path.contains("/src/");
    let unsafe_confined = !is_src || UNSAFE_ALLOWED_SRC.contains(&rel_path);
    let nan_exempt = NAN_ORDERING_ALLOWED.contains(&rel_path);
    let deterministic = DETERMINISTIC_SRC
        .iter()
        .any(|prefix| rel_path.starts_with(prefix))
        && !DETERMINISM_ALLOWED.contains(&rel_path);

    let mut findings = Vec::new();
    let mut push = |idx: usize, rule: Rule, message: String| {
        findings.push(Finding {
            file: rel_path.to_string(),
            line: idx + 1,
            rule,
            message,
        });
    };

    // Determinism exempts `#[cfg(test)]` items: property tests compare
    // against StdRng reference streams by design.
    let test_only = cfg_test_lines(&lines);

    for idx in 0..n {
        let code = lines[idx].code.as_str();

        // unsafe-safety
        if let Some(pos) = find_word(code, "unsafe") {
            if !is_fn_pointer_type(code, pos) && !is_allowed(idx, Rule::UnsafeSafety) {
                if !unsafe_confined {
                    push(
                        idx,
                        Rule::UnsafeSafety,
                        "`unsafe` outside the allowlisted modules \
                         (tensor::simd, runtime::{pool,oneshot,rng}, \
                         serve::service)"
                            .to_string(),
                    );
                } else if !safety_cov[idx] {
                    push(
                        idx,
                        Rule::UnsafeSafety,
                        "`unsafe` without a covering `// SAFETY:` comment".to_string(),
                    );
                }
            }
        }

        // nan-ordering
        if !nan_exempt
            && find_word(code, "partial_cmp").is_some()
            && !is_allowed(idx, Rule::NanOrdering)
        {
            push(
                idx,
                Rule::NanOrdering,
                "float comparison via `partial_cmp` — use `f32::total_cmp` \
                 or `serve::rank_cmp` (NaN-total ordering contract)"
                    .to_string(),
            );
        }

        // determinism
        if deterministic && !test_only[idx] {
            for tok in DETERMINISM_TOKENS {
                if find_word(code, tok.split("::").next().unwrap()).is_some()
                    && code.contains(tok)
                    && !is_allowed(idx, Rule::Determinism)
                {
                    push(
                        idx,
                        Rule::Determinism,
                        format!(
                            "`{tok}` in a deterministic crate — results \
                             must be a pure function of the seed"
                        ),
                    );
                }
            }
        }

        // lemire-only
        if code.contains('%')
            && RNG_WORD_TOKENS.iter().any(|t| find_word(code, t).is_some())
            && !is_allowed(idx, Rule::LemireOnly)
        {
            push(
                idx,
                Rule::LemireOnly,
                "`%` range reduction on an RNG word — use \
                 `mars_runtime::rng::lemire_map` (Lemire-only contract)"
                    .to_string(),
            );
        }

        // relaxed-ordering
        if code.contains("Ordering::Relaxed")
            && !ordering_cov[idx]
            && !is_allowed(idx, Rule::RelaxedOrdering)
        {
            push(
                idx,
                Rule::RelaxedOrdering,
                "`Ordering::Relaxed` without a covering `// ORDERING:` \
                 justification"
                    .to_string(),
            );
        }
    }
    findings
}

// ---------------------------------------------------------------------------
// orphan-pub: the one rule that reads the whole tree before it can report
// ---------------------------------------------------------------------------

/// Item keywords: the identifier after one is a definition, not a use.
const ITEM_KEYWORDS: [&str; 7] = ["fn", "struct", "enum", "trait", "type", "const", "static"];

fn idents(code: &str) -> impl Iterator<Item = &str> {
    code.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|t| t.starts_with(|c: char| c.is_alphabetic() || c == '_'))
}

/// `(kind, name)` of a `pub` item declared on this code line.
fn pub_item(code: &str) -> Option<(&str, &str)> {
    let mut toks = idents(code.trim_start().strip_prefix("pub ")?);
    let mut kind = toks.next()?;
    while matches!(kind, "const" | "unsafe") {
        let next = toks.next()?;
        if kind == "const" && !matches!(next, "fn" | "unsafe") {
            return Some((kind, next));
        }
        kind = next;
    }
    if !ITEM_KEYWORDS.contains(&kind) {
        return None;
    }
    Some((kind, toks.next()?))
}

/// Reports every `pub` item in `crates/*/src` that no code names outside
/// definitions, `pub use` re-exports, `#[cfg(test)]` items and `tests/`
/// trees. `files` holds `(workspace-relative path, source)` pairs.
pub fn orphan_pub(files: &[(String, String)]) -> Vec<Finding> {
    let mut used = HashSet::new();
    let mut items = Vec::new();
    for (rel, source) in files {
        if rel.starts_with("tests/") || rel.contains("/tests/") {
            continue;
        }
        let lines = lex_lines(source);
        let test_only = cfg_test_lines(&lines);
        let allowed = pragmas(&lines);
        let subject = rel
            .strip_prefix("crates/")
            .and_then(|r| r.split_once('/'))
            .is_some_and(|(_, r)| r.starts_with("src/"));
        let mut in_pub_use = false;
        for (idx, li) in lines.iter().enumerate() {
            in_pub_use |= li.code.trim_start().starts_with("pub use ");
            if test_only[idx] || in_pub_use {
                in_pub_use &= !li.code.contains(';');
                continue;
            }
            let mut prev = "";
            for tok in idents(&li.code) {
                if !ITEM_KEYWORDS.contains(&prev) && !used.contains(tok) {
                    used.insert(tok.to_string());
                }
                prev = tok;
            }
            if let Some((kind, name)) = pub_item(&li.code) {
                if subject && !allows(&allowed, idx, Rule::OrphanPub) {
                    items.push((rel, idx, kind.to_string(), name.to_string()));
                }
            }
        }
    }
    items
        .into_iter()
        .filter(|(.., name)| !used.contains(name))
        .map(|(rel, idx, kind, name)| Finding {
            file: rel.clone(),
            line: idx + 1,
            rule: Rule::OrphanPub,
            message: format!(
                "`pub {kind} {name}` is named only by its definition, \
                 re-exports, tests or comments — delete it, or say why it \
                 stays with `audit:allow(orphan-pub)`"
            ),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Workspace walk
// ---------------------------------------------------------------------------

/// Collect every `.rs` file under `root`, skipping `target/`, `.git/`,
/// vendored shims, and `fixtures/` directories (seeded violations).
pub fn collect_rs_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name == ".git" || name == "fixtures" {
                    continue;
                }
                if name == "shims" && dir.file_name().is_some_and(|d| d == "crates") {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Scan the whole workspace rooted at `root`. Findings are sorted by
/// `(file, line)` for stable output.
pub fn check_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    for path in collect_rs_files(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        files.push((rel, fs::read_to_string(&path)?));
    }
    let mut findings = orphan_pub(&files);
    for (rel, source) in &files {
        findings.extend(scan_source(rel, source));
    }
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexer_strips_line_comments_and_strings() {
        let lines = lex_lines("let x = \"unsafe % next_u64\"; // unsafe\n");
        assert_eq!(lines.len(), 1);
        assert!(!lines[0].code.contains("unsafe"));
        assert!(!lines[0].code.contains('%'));
        assert!(lines[0].comment.contains("unsafe"));
    }

    #[test]
    fn lexer_handles_quote_char_literal() {
        // A '"' char literal must not open a phantom string that swallows
        // the rest of the file.
        let src = "if c == '\"' { x % rng.next_u64() }\n";
        let lines = lex_lines(src);
        assert!(lines[0].code.contains("next_u64"));
        assert!(lines[0].code.contains('%'));
    }

    #[test]
    fn lexer_tracks_block_comments_across_lines() {
        let src = "/* unsafe\nstill comment */ let a = 1;\n";
        let lines = lex_lines(src);
        assert!(!lines[0].code.contains("unsafe"));
        assert!(lines[1].code.contains("let a"));
        assert!(lines[1].comment.contains("still comment"));
    }

    #[test]
    fn fn_pointer_type_is_not_an_unsafe_site() {
        let src = "struct H { run: unsafe fn(*const (), usize) }\n";
        let f = scan_source("crates/runtime/src/pool.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn paragraph_coverage_ends_at_blank_line() {
        let src = "\
// SAFETY: covered paragraph.
let a = unsafe { f() };
let b = unsafe { g() };

let c = unsafe { h() };
";
        let f = scan_source("crates/runtime/src/pool.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 5);
        assert_eq!(f[0].rule, Rule::UnsafeSafety);
    }

    #[test]
    fn pragma_suppresses_same_and_next_line() {
        let src = "\
// audit:allow(nan-ordering) — reference comparison
let o = a.partial_cmp(&b);
let p = a.partial_cmp(&b);
";
        let f = scan_source("crates/core/src/x.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn determinism_skips_cfg_test_tail() {
        let src = "\
fn run(seed: u64) -> u64 { seed }

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
}
";
        let f = scan_source("crates/data/src/x.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn determinism_only_applies_to_deterministic_src() {
        let src = "use std::time::Instant;\nlet t = Instant::now();\n";
        assert!(!scan_source("crates/serve/src/service.rs", src)
            .iter()
            .any(|f| f.rule == Rule::Determinism));
        assert!(scan_source("crates/metrics/src/lib.rs", src)
            .iter()
            .any(|f| f.rule == Rule::Determinism));
    }
}
