//! Deterministic fault injection for the serving layer.
//!
//! [`FaultScorer`] wraps any inner [`Scorer`] and injects the three
//! failure families the fault-tolerance layer must absorb, each on a
//! reproducible schedule:
//!
//! * **Panics** — a poisoned score call unwinds, exercising the
//!   dispatcher's `catch_unwind` + supervisor restart path.
//! * **NaN storms** — scores replaced by `NaN` for a deterministic subset
//!   of `(user, item)` pairs, exercising the NaN-total-order ranking
//!   contract (`order::rank_cmp` places NaN strictly last).
//! * **Latency** — injected sleeps, exercising deadline drops and the
//!   degradation ladder's latency trigger.
//!
//! ## Determinism discipline
//!
//! The two *value-affecting* faults are pure functions of the injection
//! seed and the score call's arguments: whether `(user, item)` scores as
//! NaN depends only on `(seed, user, item)` — never on call order — so a
//! `FaultScorer` still satisfies the [`Scorer`] purity contract and the
//! service's bit-identity guarantee holds against a *reference*
//! `FaultScorer` built with the same seed. The *timing* faults (panics,
//! sleeps) key off a global call counter through a [`CounterRng`]-derived
//! schedule: reproducible for a single-threaded caller, and in the
//! concurrent chaos test simply "a panic happens roughly every N calls",
//! which is all the invariants need.
//!
//! Injection is armed per-family at runtime ([`FaultScorer::arm`]), so a
//! chaos test can drive distinct fault phases through one scorer instance
//! (and its already-published snapshots).

use mars_data::{ItemId, UserId};
use mars_metrics::Scorer;
use mars_runtime::CounterRng;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// Which fault family to arm/disarm.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Panic in `score` on scheduled calls.
    Panic,
    /// Score a deterministic subset of `(user, item)` pairs as NaN.
    Nan,
    /// Sleep in `score` on scheduled calls.
    Latency,
}

/// Fault-injection schedule knobs (see the module docs).
#[derive(Clone, Copy, Debug)]
pub struct FaultConfig {
    /// Injection seed: keys both the NaN subset and the call-counter
    /// schedules.
    pub seed: u64,
    /// Roughly one panic per this many score calls while `Panic` is
    /// armed (min 1).
    pub panic_every: u64,
    /// NaN probability per `(user, item)` pair while `Nan` is armed,
    /// as a numerator over 2^16.
    pub nan_per_2_16: u64,
    /// Roughly one injected sleep per this many score calls while
    /// `Latency` is armed (min 1).
    pub sleep_every: u64,
    /// Duration of each injected sleep.
    pub sleep_for: Duration,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self {
            seed: 0x5eed_fa17,
            panic_every: 5_000,
            nan_per_2_16: 6_554, // ~10% of pairs
            sleep_every: 64,
            sleep_for: Duration::from_millis(2),
        }
    }
}

/// A [`Scorer`] wrapper that injects panics, NaNs, and latency on a
/// deterministic schedule (see the module docs). Only `score` is
/// implemented, so the block/many/single default-agreement of the inner
/// scorer is preserved fault-for-fault.
pub struct FaultScorer<S> {
    inner: S,
    cfg: FaultConfig,
    /// Global score-call counter driving the panic/sleep schedules.
    calls: AtomicU64,
    panic_armed: AtomicBool,
    nan_armed: AtomicBool,
    latency_armed: AtomicBool,
}

impl<S: Scorer> FaultScorer<S> {
    /// Wraps `inner` with all fault families disarmed.
    pub fn new(inner: S, cfg: FaultConfig) -> Self {
        Self {
            inner,
            cfg,
            calls: AtomicU64::new(0),
            panic_armed: AtomicBool::new(false),
            nan_armed: AtomicBool::new(false),
            latency_armed: AtomicBool::new(false),
        }
    }

    /// Arms or disarms one fault family. Takes effect on the next score
    /// call; safe to flip from any thread while serving.
    // audit:allow(orphan-pub) — test support: the chaos suite arms faults through it
    pub fn arm(&self, fault: Fault, on: bool) {
        match fault {
            Fault::Panic => self.panic_armed.store(on, Ordering::SeqCst),
            Fault::Nan => self.nan_armed.store(on, Ordering::SeqCst),
            Fault::Latency => self.latency_armed.store(on, Ordering::SeqCst),
        }
    }

    /// Total score calls observed so far.
    pub fn calls(&self) -> u64 {
        // ORDERING: a monotone statistics counter — readers only need an
        // eventually-consistent total, never cross-variable ordering.
        self.calls.load(Ordering::Relaxed)
    }

    /// Whether `(user, item)` scores as NaN under this seed while `Nan`
    /// is armed — pure in `(seed, user, item)`, so a reference scorer
    /// with the same seed agrees call-for-call.
    pub fn is_nan_pair(&self, user: UserId, item: ItemId) -> bool {
        let mut rng = CounterRng::keyed(self.cfg.seed, (user as u64) << 32 | item as u64);
        rng.gen_below(1 << 16) < self.cfg.nan_per_2_16
    }

    /// Whether the call-counter schedule fires at `call` for a period of
    /// `every` (decorrelated from other schedules by `stream`).
    fn scheduled(&self, call: u64, every: u64, stream: u64) -> bool {
        let every = every.max(1);
        // One deterministic "hit" offset per period, drawn per-period so
        // hits don't align across periods.
        let period = call / every;
        let mut rng = CounterRng::keyed(self.cfg.seed ^ stream, period);
        call % every == rng.gen_below(every)
    }
}

impl<S: Scorer> Scorer for FaultScorer<S> {
    fn score(&self, user: UserId, item: ItemId) -> f32 {
        // ORDERING: each armed flag is an independent on/off latch and the
        // call counter only tickets the fault schedule; no load below
        // synchronizes-with any other memory, so Relaxed suffices — arming
        // takes effect "on the next call", not at a synchronized instant.
        let call = self.calls.fetch_add(1, Ordering::Relaxed);
        if self.latency_armed.load(Ordering::Relaxed)
            && self.scheduled(call, self.cfg.sleep_every, 0x1a7e)
        {
            std::thread::sleep(self.cfg.sleep_for);
        }
        if self.panic_armed.load(Ordering::Relaxed)
            && self.scheduled(call, self.cfg.panic_every, 0xdead)
        {
            panic!("injected fault: scorer panic at call {call}");
        }
        if self.nan_armed.load(Ordering::Relaxed) && self.is_nan_pair(user, item) {
            return f32::NAN;
        }
        self.inner.score(user, item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Unit;
    impl Scorer for Unit {
        fn score(&self, user: UserId, item: ItemId) -> f32 {
            (user as f32) + (item as f32) / 1024.0
        }
    }

    #[test]
    fn disarmed_scorer_is_transparent() {
        let f = FaultScorer::new(Unit, FaultConfig::default());
        for u in 0..20 {
            for i in 0..20 {
                assert_eq!(f.score(u, i).to_bits(), Unit.score(u, i).to_bits());
            }
        }
        assert_eq!(f.calls(), 400);
    }

    #[test]
    fn nan_subset_is_pure_in_user_item() {
        let a = FaultScorer::new(Unit, FaultConfig::default());
        let b = FaultScorer::new(Unit, FaultConfig::default());
        a.arm(Fault::Nan, true);
        b.arm(Fault::Nan, true);
        let mut nans = 0;
        // Different call orders, identical verdicts.
        for u in 0..32u32 {
            for i in 0..32u32 {
                let sa = a.score(u, i);
                let sb = b.score(31 - u, 31 - i); // b visits in reverse
                assert_eq!(sa.is_nan(), a.is_nan_pair(u, i));
                assert_eq!(sb.is_nan(), b.is_nan_pair(31 - u, 31 - i));
                if sa.is_nan() {
                    nans += 1;
                }
            }
        }
        // ~10% of 1024 pairs; generous band.
        assert!(nans > 30 && nans < 300, "nan count {nans} out of band");
        // And the two instances agree pair-for-pair.
        for u in 0..32u32 {
            for i in 0..32u32 {
                assert_eq!(a.is_nan_pair(u, i), b.is_nan_pair(u, i));
            }
        }
    }

    #[test]
    fn panic_schedule_fires_at_the_configured_rate() {
        let f = FaultScorer::new(
            Unit,
            FaultConfig {
                panic_every: 50,
                ..FaultConfig::default()
            },
        );
        f.arm(Fault::Panic, true);
        let mut panics = 0;
        for u in 0..10u32 {
            for i in 0..100u32 {
                if std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f.score(u, i))).is_err()
                {
                    panics += 1;
                }
            }
        }
        // 1000 calls at one-per-50: exactly one hit per full period.
        assert_eq!(panics, 20);
    }
}
