//! A single-use completion slot: one value, one waiter, park/unpark.
//!
//! The service dispatcher (`mars-serve`) completes each queued request by
//! writing its response into a slot the submitting thread is blocked on.
//! A channel would allocate a node per request; [`OneShotSlot`] instead
//! lives on the **submitter's stack frame** — the same dep-free,
//! allocation-free publish discipline as [`WorkerPool::scatter`]'s
//! `TaskHeader` (publish = release store + `unpark`), just pointed the
//! other way: there the caller publishes work to workers, here a worker
//! publishes a result back to the caller.
//!
//! ## Protocol
//!
//! * The **waiting thread** constructs the slot (capturing its own
//!   [`Thread`] handle), hands out a reference, and blocks in
//!   [`OneShotSlot::wait`] (spin briefly, then park).
//! * Exactly **one** other party calls [`OneShotSlot::fill`] exactly once:
//!   it writes the value, flips the state `EMPTY → FULL` with release
//!   ordering, and unparks the waiter. The filler clones the waiter handle
//!   *before* the store lands — the moment the state reads `FULL`, the
//!   waiter may return and the slot's frame may die, exactly like the
//!   scatter header's final `fetch_sub`.
//! * `wait` consumes the value. Spurious unparks are absorbed by
//!   re-checking the state.
//!
//! [`WorkerPool::scatter`]: crate::WorkerPool::scatter

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU8, Ordering};
use std::thread::{self, Thread};

use crate::pool::SPIN_BEFORE_PARK;

const EMPTY: u8 = 0;
const FULL: u8 = 1;
const TAKEN: u8 = 2;

/// A one-value, one-waiter completion slot (see the module docs).
pub struct OneShotSlot<T> {
    state: AtomicU8,
    value: UnsafeCell<Option<T>>,
    /// The constructing (waiting) thread, unparked by `fill`.
    waiter: Thread,
}

// SAFETY: the state machine serializes all access to `value` — `fill`
// writes it strictly before the `EMPTY → FULL` release store, `wait`
// reads it strictly after acquiring `FULL` — so distinct threads never
// touch the cell concurrently. `T: Send` because the value crosses from
// the filling thread to the waiting thread.
unsafe impl<T: Send> Sync for OneShotSlot<T> {}

impl<T> OneShotSlot<T> {
    /// An empty slot whose waiter is the calling thread. Only that thread
    /// may [`wait`](Self::wait) on it.
    pub fn new() -> Self {
        Self {
            state: AtomicU8::new(EMPTY),
            value: UnsafeCell::new(None),
            waiter: thread::current(),
        }
    }

    /// Completes the slot with `value` and wakes the waiter. Must be
    /// called at most once; the slot (and its stack frame) may be gone
    /// the instant the state store lands, so nothing touches `self`
    /// afterwards.
    pub fn fill(&self, value: T) {
        // Clone the handle BEFORE publishing: after the store below the
        // waiter may return from `wait` and free the slot's frame.
        let waiter = self.waiter.clone();
        // SAFETY: state is still EMPTY (single-fill contract), so the
        // waiter is parked/spinning and not reading the cell.
        unsafe { *self.value.get() = Some(value) };
        let prev = self.state.swap(FULL, Ordering::Release);
        debug_assert_eq!(prev, EMPTY, "OneShotSlot filled twice");
        waiter.unpark();
    }

    /// Blocks until the slot is filled and returns the value. Must be
    /// called from the constructing thread (the one `unpark` targets),
    /// at most once.
    pub fn wait(&self) -> T {
        self.wait_bounded(None)
    }

    /// [`wait`](Self::wait) with a bounded park interval: past `wake_by`,
    /// the thread re-checks the slot at a coarse cadence instead of
    /// parking indefinitely.
    ///
    /// This does **not** time out — it cannot: the filler holds a raw
    /// pointer to this slot's stack frame, so abandoning the wait before
    /// the fill would be a use-after-free. The deadline's *semantics* live
    /// with the producer (e.g. the service dispatcher completes expired
    /// requests with a typed error at dequeue time); this bound only
    /// guards the waiter against a lost wakeup once its deadline has
    /// passed and the producer's fill is imminent.
    pub fn wait_bounded(&self, wake_by: Option<std::time::Instant>) -> T {
        debug_assert_eq!(
            thread::current().id(),
            self.waiter.id(),
            "OneShotSlot::wait must run on the constructing thread"
        );
        let mut spins = 0;
        while self.state.load(Ordering::Acquire) != FULL {
            if spins < SPIN_BEFORE_PARK {
                spins += 1;
                std::hint::spin_loop();
            } else {
                match wake_by {
                    None => thread::park(),
                    Some(deadline) => {
                        let now = std::time::Instant::now();
                        let slice = if now < deadline {
                            deadline - now
                        } else {
                            // Past deadline: the fill is the producer's
                            // (imminent) responsibility; poll coarsely.
                            std::time::Duration::from_millis(1)
                        };
                        thread::park_timeout(slice);
                    }
                }
            }
        }
        // SAFETY: FULL acquired ⇒ the filler's write happens-before this
        // read, and the filler never touches the cell again.
        let value = unsafe { (*self.value.get()).take() };
        // ORDERING: relaxed suffices — TAKEN only feeds same-thread
        // debug assertions (`is_full`, double-wait detection); no other
        // thread reads the state after FULL, and the filler is done.
        self.state.store(TAKEN, Ordering::Relaxed);
        value.expect("OneShotSlot waited twice")
    }

    /// Whether the slot has been filled (and not yet consumed).
    // audit:allow(orphan-pub) — test support: slot state in the one-shot protocol tests
    pub fn is_full(&self) -> bool {
        self.state.load(Ordering::Acquire) == FULL
    }
}

impl<T> Default for OneShotSlot<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn fill_then_wait_same_thread() {
        let slot = OneShotSlot::new();
        slot.fill(41u32);
        assert!(slot.is_full());
        assert_eq!(slot.wait(), 41);
        assert!(!slot.is_full());
    }

    #[test]
    fn cross_thread_fill_wakes_a_parked_waiter() {
        // Arc'd only so the test can move it into the filler; the service
        // uses a stack slot plus a raw pointer under its own protocol.
        let slot = Arc::new(OneShotSlot::new());
        let filler = {
            let slot = Arc::clone(&slot);
            thread::spawn(move || {
                // Let the waiter run past its spin phase into park.
                thread::sleep(Duration::from_millis(20));
                slot.fill(String::from("done"));
            })
        };
        assert_eq!(slot.wait(), "done");
        filler.join().unwrap();
    }

    #[test]
    fn many_slots_complete_under_contention() {
        // Stress the publish/consume ordering: a filler thread completes
        // slots as fast as the waiter creates them. Shortened under Miri —
        // its state-machine checks fire on the first crossing, and each
        // interpreted round is ~1000x slower than native.
        let rounds: u64 = if cfg!(miri) { 8 } else { 200 };
        for round in 0..rounds {
            let slot = Arc::new(OneShotSlot::new());
            let filler = {
                let slot = Arc::clone(&slot);
                thread::spawn(move || slot.fill(round * 3))
            };
            assert_eq!(slot.wait(), round * 3);
            filler.join().unwrap();
        }
    }
}
