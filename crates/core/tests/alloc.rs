//! The batched engine's steady state allocates nothing.
//!
//! Every buffer a mini-batch needs lives in the [`Scratch`] and the
//! [`BatchAccum`] and is reused: the accumulators' direct index grows to the
//! largest entity number, their block storage to the most entities one batch
//! ever touched, and from then on `train_batch` must not reach the heap —
//! no per-user `Vec`, no hash-table growth, no temporary per row. This file
//! installs a counting global allocator (its own test binary, so the counter
//! sees nothing else) and holds the engine to that.

use mars_core::{BatchAccum, MarsConfig, MultiFacetModel, Scratch};
use mars_data::batch::Triplet;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set on the measuring thread only, so the test harness's own threads
    /// cannot disturb the count.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

struct CountingAllocator;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; the only extra
// work is a relaxed counter bump and a read of a `const`-initialized,
// destructor-free thread-local, neither of which allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.with(Cell::get) {
            // ORDERING: relaxed — a statistic read after the measured
            // section on the same thread; it publishes nothing.
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: same contract as ours, forwarded verbatim.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: (trait signature) the caller passes a `ptr` this allocator
    // returned for `layout`, and every pointer it returns is `System`'s.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: (trait signature) same forwarding argument as `dealloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.with(Cell::get) {
            // ORDERING: relaxed — see `alloc`.
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: same contract as ours, forwarded verbatim.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

const USERS: u32 = 40;
const ITEMS: u32 = 90;

/// Batch `b`: runs of three negatives per (user, positive), entities drawn
/// by a small LCG so batches differ and entities repeat within one.
fn batch(b: u32, runs: u32) -> Vec<(Triplet, f32)> {
    let mut state = 0x9E37_79B9u32.wrapping_mul(b + 1);
    let mut next = |below: u32| {
        state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        (state >> 8) % below
    };
    (0..runs)
        .flat_map(|_| {
            let (user, positive) = (next(USERS), next(ITEMS));
            [next(ITEMS), next(ITEMS), next(ITEMS)].map(|negative| {
                (
                    Triplet {
                        user,
                        positive,
                        negative,
                    },
                    0.4,
                )
            })
        })
        .collect()
}

#[test]
fn steady_state_train_batch_does_not_allocate() {
    let mut plain_rsgd = MarsConfig::mars(3, 8);
    plain_rsgd.optimizer = mars_core::OptimKind::Riemannian;
    for cfg in [MarsConfig::mars(3, 8), MarsConfig::mar(3, 8), plain_rsgd] {
        let mut model = MultiFacetModel::new(cfg.clone(), USERS as usize, ITEMS as usize);
        let mut scratch = Scratch::new(cfg.facets, cfg.dim);
        let mut acc = BatchAccum::new(&cfg);
        // The first batch is the largest: it touches (nearly) every entity,
        // so the accumulator reaches its final size here.
        let warm_up = batch(0, 400);
        let steady: Vec<_> = (1..6).map(|b| batch(b, 30)).collect();
        model.train_batch(&warm_up, 0.05, &mut scratch, &mut acc);

        COUNTING.with(|c| c.set(true));
        for b in &steady {
            model.train_batch(b, 0.05, &mut scratch, &mut acc);
        }
        COUNTING.with(|c| c.set(false));
        // ORDERING: relaxed — same-thread read of the statistic.
        let allocations = ALLOCATIONS.swap(0, Ordering::Relaxed);
        assert_eq!(
            allocations,
            0,
            "{}: train_batch allocated in steady state",
            cfg.tag()
        );
        assert!(model.norm_report().finite);
    }
}
