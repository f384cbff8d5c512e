//! The batched engine's and the scoring path's steady states allocate
//! nothing.
//!
//! Every buffer a mini-batch needs lives in the [`Scratch`] and the
//! [`BatchAccum`] and is reused: the accumulators' direct index grows to the
//! largest entity number, their block storage to the most entities one batch
//! ever touched, and from then on `train_batch` must not reach the heap —
//! no per-user `Vec`, no hash-table growth, no temporary per row. Likewise
//! `score_block` (thread-local scratch, the model's item-norm table) and
//! `rank_into` with a warm `RetrievalScratch`. This file installs a counting
//! global allocator (its own test binary, so the counter sees nothing else)
//! and holds both to that.

use mars_core::{BatchAccum, MarsConfig, MultiFacetModel, Scratch};
use mars_data::batch::Triplet;
use mars_data::ItemId;
use mars_metrics::Scorer;
use mars_serve::{rank_into, RecQuery, RetrievalScratch};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread while it is measuring (`None`
    /// otherwise): per thread, so neither the test harness's own threads nor
    /// the other test in this binary can disturb a count.
    static ALLOCATIONS: Cell<Option<usize>> = const { Cell::new(None) };
}

fn count_one() {
    ALLOCATIONS.with(|a| a.set(a.get().map(|n| n + 1)));
}

/// Allocations (and reallocations) `f` performs on the calling thread.
fn allocations_in(f: impl FnOnce()) -> usize {
    ALLOCATIONS.with(|a| a.set(Some(0)));
    f();
    ALLOCATIONS
        .with(|a| a.replace(None))
        .expect("set to Some above")
}

struct CountingAllocator;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; the only extra
// work is a read and a write of a `const`-initialized, destructor-free
// thread-local, neither of which allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
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
        count_one();
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

        let allocations = allocations_in(|| {
            for b in &steady {
                model.train_batch(b, 0.05, &mut scratch, &mut acc);
            }
        });
        assert_eq!(
            allocations,
            0,
            "{}: train_batch allocated in steady state",
            cfg.tag()
        );
        assert!(model.norm_report().finite);
    }
}

#[test]
fn steady_state_scoring_and_ranking_do_not_allocate() {
    for cfg in [MarsConfig::mars(3, 8), MarsConfig::mar(3, 8)] {
        let model = MultiFacetModel::new(cfg.clone(), USERS as usize, ITEMS as usize);
        let items: Vec<ItemId> = (0..ITEMS).collect();
        let seen = [3, 4, 50, ITEMS - 1];
        let query = |user| RecQuery::top_k(user, 10).excluding(&seen);
        let mut scores = Vec::new();
        let mut scratch = RetrievalScratch::new();
        let mut ranked = Vec::new();
        // One call of each sizes the caller's buffers, this thread's
        // scoring scratch and (MARS) the model's item-norm table.
        model.score_block(0, &items, &mut scores);
        rank_into(
            &model,
            items.len(),
            32,
            &query(0),
            &mut scratch,
            &mut ranked,
        );

        let score_block = allocations_in(|| {
            for user in 0..USERS {
                model.score_block(user, &items, &mut scores);
            }
        });
        assert_eq!(score_block, 0, "{}: score_block allocated", cfg.tag());
        let ranking = allocations_in(|| {
            for user in 0..USERS {
                rank_into(
                    &model,
                    items.len(),
                    32,
                    &query(user),
                    &mut scratch,
                    &mut ranked,
                );
            }
        });
        assert_eq!(ranking, 0, "{}: rank_into allocated", cfg.tag());
        assert_eq!(ranked.len(), 10);
    }
}
