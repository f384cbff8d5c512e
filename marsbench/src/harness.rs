//! Timing and load-generation parts shared by the pipeline and the
//! per-layer measurements: order statistics, the window-median tail, the
//! seeded arrival schedule, the sleep-only pacer and the repetition loop.

use mars_runtime::CounterRng;
use std::thread;
use std::time::{Duration, Instant};

/// Uniform tick in [0, 1) — 53 mantissa bits of one counter draw.
pub fn unit_f64(rng: &mut CounterRng) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile: the smallest sample with at least `q` of the
/// samples at or below it.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    let s = sorted(xs);
    assert!(!s.is_empty(), "percentile of an empty sample");
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    assert!(!s.is_empty(), "median of an empty sample");
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// The quartiles Python's `statistics.quantiles(values, n=4)` returns
/// (its default "exclusive" method), so the spreads printed here are the
/// ones the driver computes.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let len = data.len();
    if len < 2 {
        return None;
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Distance between the first and third quartile as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// The highest percentile of the reporting ladder that still has at least
/// ten samples beyond it in a sample of `n` (0.5 when even p90 has not).
pub fn supported_percentile(n: usize) -> f64 {
    // (percentile, samples beyond it per 10 000) — integers, so a sample of
    // exactly 100 has exactly ten beyond its p90.
    const LADDER: [(f64, usize); 5] = [
        (0.9999, 1),
        (0.999, 10),
        (0.99, 100),
        (0.95, 500),
        (0.9, 1_000),
    ];
    LADDER
        .into_iter()
        .find(|&(_, beyond)| n * beyond >= 10 * 10_000)
        .map_or(0.5, |(q, _)| q)
}

/// How many equal windows a run of `n` samples is cut into so that each
/// has at least `min_per_segment` (never fewer than one, never more than
/// `max_segments`).
pub fn segment_count(n: usize, min_per_segment: usize, max_segments: usize) -> usize {
    (n / min_per_segment.max(1)).clamp(1, max_segments.max(1))
}

/// Median of the `q`-percentiles of the non-empty `windows`: one
/// noisy-neighbour burst lands in one window and cannot move the result.
pub fn median_percentile(windows: &[Vec<f64>], q: f64) -> f64 {
    let each: Vec<f64> = windows
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| percentile(w, q))
        .collect();
    median(&each)
}

/// `n` arrival offsets with exponential gaps at `rate_qps`, a pure
/// function of `(seed, stream)`.
pub fn arrival_schedule(seed: u64, stream: u64, rate_qps: f64, n: usize) -> Vec<Duration> {
    assert!(rate_qps > 0.0, "open-loop rate must be positive");
    let mut rng = CounterRng::keyed(seed, stream);
    let mut at = 0.0f64;
    (0..n)
        .map(|_| {
            at += -(1.0 - unit_f64(&mut rng)).ln() / rate_qps;
            Duration::from_secs_f64(at)
        })
        .collect()
}

/// Sleeps until `deadline` without spinning — the load generator shares
/// the cores with the service, so a spin-wait would take the time it is
/// trying to measure. Returns how late the caller woke; a deadline already
/// past returns its lateness at once.
pub fn wait_until(deadline: Instant) -> Duration {
    loop {
        let now = Instant::now();
        if now >= deadline {
            return now - deadline;
        }
        thread::sleep(deadline - now);
    }
}

/// Calls `rep` until `budget` has elapsed and at least `min_reps` calls
/// were made; returns each call's wall time in seconds with its result.
pub fn repeat_for<T>(
    budget: Duration,
    min_reps: usize,
    mut rep: impl FnMut() -> T,
) -> Vec<(f64, T)> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_reps.max(1) || start.elapsed() < budget {
        let t = Instant::now();
        let r = rep();
        out.push((t.elapsed().as_secs_f64(), r));
    }
    out
}

/// Per-repetition values of one phase, with whether the repetition was
/// recorded as spans. The untraced run has only unrecorded repetitions.
#[derive(Default)]
pub struct Reps {
    values: Vec<(f64, bool)>,
}

impl Reps {
    pub fn push(&mut self, value: f64, recorded: bool) {
        self.values.push((value, recorded));
    }
    fn pick(&self, recorded: Option<bool>) -> Vec<f64> {
        self.values
            .iter()
            .filter(|(_, r)| recorded.is_none_or(|want| *r == want))
            .map(|(v, _)| *v)
            .collect()
    }
    /// Median over all repetitions.
    pub fn median(&self) -> f64 {
        median(&self.pick(None))
    }
    /// Median over the recorded (`true`) or unrecorded repetitions only.
    pub fn median_of(&self, recorded: bool) -> f64 {
        median(&self.pick(Some(recorded)))
    }
    pub fn len(&self) -> usize {
        self.values.len()
    }
    /// Quartile distance over median of all repetitions (needs two).
    pub fn spread(&self) -> Option<f64> {
        spread(&self.pick(None))
    }
}

/// Median wall time, in seconds, of [`repeat_for`]'s repetitions.
pub fn median_secs<T>(reps: &[(f64, T)]) -> f64 {
    median(&reps.iter().map(|(s, _)| *s).collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_function_of_the_seed() {
        let a = arrival_schedule(7, 1, 1_000.0, 500);
        let b = arrival_schedule(7, 1, 1_000.0, 500);
        let c = arrival_schedule(8, 1, 1_000.0, 500);
        let d = arrival_schedule(7, 2, 1_000.0, 500);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert!(
            a.windows(2).all(|w| w[0] <= w[1]),
            "arrivals must not go back"
        );
        // 500 arrivals at 1000/s take about half a second.
        let total = a.last().unwrap().as_secs_f64();
        assert!((0.4..0.6).contains(&total), "total {total}");
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3.0, 1.0, 2.0], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&ten).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&[3.0], 0.99), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        assert_eq!(supported_percentile(99), 0.5);
        assert_eq!(supported_percentile(100), 0.9);
        assert_eq!(supported_percentile(200), 0.95);
        assert_eq!(supported_percentile(999), 0.95);
        assert_eq!(supported_percentile(1_000), 0.99);
        assert_eq!(supported_percentile(10_000), 0.999);
        assert_eq!(supported_percentile(100_000), 0.9999);
    }

    #[test]
    fn segments_hold_enough_samples_for_their_tail() {
        assert_eq!(segment_count(400, 1_000, 5), 1);
        assert_eq!(segment_count(2_999, 1_000, 5), 2);
        assert_eq!(segment_count(4_160, 1_000, 5), 4);
        assert_eq!(segment_count(50_000, 1_000, 5), 5);
    }

    #[test]
    fn one_burst_does_not_move_the_window_median() {
        // Five windows of 1 000 samples at 1.0, a burst of 100 slow ones in
        // the second.
        let mut windows = vec![vec![1.0; 1_000]; 5];
        for x in &mut windows[1][200..300] {
            *x = 50.0;
        }
        let pooled: Vec<f64> = windows.iter().flatten().copied().collect();
        assert_eq!(
            percentile(&pooled, 0.99),
            50.0,
            "the pooled p99 sees the burst"
        );
        assert_eq!(median_percentile(&windows, 0.99), 1.0);
        // A tail present in every window does move it.
        for w in &mut windows {
            for x in w.iter_mut().step_by(50) {
                *x = 9.0;
            }
        }
        assert_eq!(median_percentile(&windows, 0.99), 9.0);
        // Empty windows (nothing answered) are skipped.
        windows.push(Vec::new());
        assert_eq!(median_percentile(&windows, 0.99), 9.0);
    }

    #[test]
    fn wait_until_sleeps_and_accounts_lateness() {
        let t = Instant::now();
        let late = wait_until(t + Duration::from_millis(20));
        let waited = t.elapsed();
        assert!(
            waited >= Duration::from_millis(20),
            "woke early: {waited:?}"
        );
        // Lateness is exactly the overshoot past the deadline.
        assert!(late <= waited - Duration::from_millis(20) + Duration::from_micros(50));
        // A deadline already in the past returns its lateness without sleeping.
        let past = Instant::now() - Duration::from_millis(5);
        let t = Instant::now();
        let late = wait_until(past);
        assert!(late >= Duration::from_millis(5));
        assert!(t.elapsed() < Duration::from_millis(5));
    }

    #[test]
    fn repeat_for_honours_minimum_and_budget() {
        let reps = repeat_for(Duration::ZERO, 3, || 1);
        assert_eq!(reps.len(), 3);
        let reps = repeat_for(Duration::from_millis(30), 1, || {
            thread::sleep(Duration::from_millis(4));
        });
        assert!(reps.len() >= 3 && reps.len() <= 9, "{} reps", reps.len());
        assert!(median_secs(&reps) >= 0.004);
    }
}
