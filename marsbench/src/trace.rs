//! Spans recorded by the benchmark's own files around each call into a
//! layer. Nothing inside the engine is instrumented: a span is the wall
//! time of one call into a public function, with the span that caused it
//! and a batch/request identifier.
//!
//! Spans are kept in memory — one [`SpanLog`] per thread, so recording
//! never synchronizes — and written to `trace.jsonl` when the run ends. A
//! disabled log records nothing and reads no clock, which is what the
//! untraced repetitions of the traced run use.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Span identifier; `0` is "no span" (a root's parent, or a disabled log).
pub type SpanId = u64;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    /// `crate.module.function` of the call the span wraps.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Batch index or request index the span belongs to.
    pub tag: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's spans. `lane` keeps ids of different threads apart.
pub struct SpanLog {
    epoch: Instant,
    enabled: bool,
    lane: u64,
    forks: u64,
    spans: Vec<Span>,
}

impl SpanLog {
    /// The run's root log; its clock starts now.
    pub fn new(enabled: bool) -> Self {
        Self {
            epoch: Instant::now(),
            enabled,
            lane: 0,
            forks: 0,
            spans: Vec::new(),
        }
    }

    /// A log on the same clock for another thread, on a lane of its own.
    /// Only the root log forks.
    pub fn fork(&mut self) -> Self {
        debug_assert_eq!(self.lane, 0, "fork from the root log");
        self.forks += 1;
        Self {
            epoch: self.epoch,
            enabled: self.enabled,
            lane: self.forks,
            forks: 0,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switches recording on or off; spans already recorded stay.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span now; close it with [`SpanLog::close`].
    pub fn open(&mut self, name: &'static str, parent: SpanId, tag: u64) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let id = (self.lane << 40) | (self.spans.len() as u64 + 1);
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns: now,
            end_ns: now,
            tag,
        });
        id
    }

    pub fn close(&mut self, id: SpanId) {
        if id == 0 {
            return;
        }
        let now = self.now_ns();
        let index = (id & ((1 << 40) - 1)) as usize - 1;
        self.spans[index].end_ns = now;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        tag: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, tag);
        let out = f();
        self.close(id);
        out
    }

    /// Takes over another log's spans (a client thread's, after its join).
    pub fn absorb(&mut self, other: SpanLog) {
        self.spans.extend(other.spans);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per span, one per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"tag\": {}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns, s.tag
            );
        }
        out
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for (s, e) in intervals {
        let s = s.max(reach);
        let e = e.min(hi);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// Total and self time per span name. A span's self time is its duration
/// minus the part of that interval its child spans cover — children that
/// overlap each other (shards running side by side) are counted once.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let covered = children
            .remove(&s.id)
            .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += s.dur_ns() - covered;
    }
    out
}

/// The decomposed training loop's consistency check: the stage self times
/// (children of the batch spans, plus the batch spans' own glue) over the
/// wall time the untraced engine needs for the same batches. Far from 1
/// means the decomposition measures something the engine does not do.
pub fn stage_sum_ratio(stage_self_ns: u64, batches: u64, untraced_batch_ns: f64) -> f64 {
    stage_self_ns as f64 / (batches as f64 * untraced_batch_ns)
}

/// The band [`stage_sum_ratio`] must land in.
pub fn stage_sum_ok(ratio: f64) -> bool {
    (0.85..=1.15).contains(&ratio)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
            tag: 0,
        }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = [
            span(1, 0, "batch", 0, 100),
            // Two shards running side by side over [10, 60] and [20, 70]:
            // their union covers 60, not 100.
            span(2, 1, "shard", 10, 60),
            span(3, 1, "shard", 20, 70),
            span(4, 1, "apply", 80, 95),
            // A grandchild takes from its own parent only.
            span(5, 4, "row", 82, 90),
        ];
        let t = totals_by_name(&spans);
        assert_eq!(t["batch"].total_ns, 100);
        assert_eq!(t["batch"].self_ns, 100 - 60 - 15);
        assert_eq!(t["shard"].count, 2);
        assert_eq!(t["shard"].self_ns, 100);
        assert_eq!(t["apply"].self_ns, 15 - 8);
        assert_eq!(t["row"].self_ns, 8);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = [
            span(1, 0, "p", 10, 20),
            span(2, 1, "c", 0, 15),
            span(3, 1, "c", 18, 40),
        ];
        assert_eq!(totals_by_name(&spans)["p"].self_ns, 10 - 5 - 2);
    }

    #[test]
    fn log_links_parents_and_a_disabled_log_records_nothing() {
        let mut log = SpanLog::new(true);
        let root = log.open("phase", 0, 7);
        let child = log.span("call", root, 3, log_free_work);
        assert_eq!(child, 42);
        log.close(root);
        let mut other = log.fork();
        let o = other.open("client", root, 0);
        other.close(o);
        log.absorb(other);
        let spans = log.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, spans[0].id);
        assert_eq!(spans[2].parent, spans[0].id);
        assert_ne!(spans[2].id, spans[1].id, "lanes keep ids apart");
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert_eq!(log.to_jsonl().lines().count(), 3);
        assert!(log
            .to_jsonl()
            .starts_with("{\"id\": 1, \"parent\": 0, \"name\": \"phase\""));

        log.set_enabled(false);
        let id = log.open("x", 0, 0);
        log.close(id);
        assert_eq!(id, 0);
        assert_eq!(log.spans().len(), 3);
    }

    fn log_free_work() -> u32 {
        42
    }

    #[test]
    fn stage_sum_band() {
        // 10 batches of 1000 ns each; stages summing to 9 500 ns.
        let r = stage_sum_ratio(9_500, 10, 1_000.0);
        assert!((r - 0.95).abs() < 1e-12);
        assert!(stage_sum_ok(r));
        assert!(stage_sum_ok(0.85) && stage_sum_ok(1.15));
        assert!(!stage_sum_ok(0.84) && !stage_sum_ok(1.16));
    }
}
