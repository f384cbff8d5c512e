//! Persistent worker pool with allocation-free job-slot dispatch.
//!
//! PR 1's engines re-spawned a `std::thread::scope` for every mini-batch, so
//! the spawn/join cost recurred once per batch (and the evaluator had no
//! parallelism at all). [`WorkerPool`] replaces that: worker threads are
//! created **once** — typically for the whole `fit()` or the whole
//! evaluation — and every [`WorkerPool::scatter`] call reuses them.
//!
//! ## Allocation-free job-slot dispatch
//!
//! Through PR 2, every `scatter` boxed one closure per worker per call and
//! shipped it over an `mpsc` channel (a second channel collected
//! completions), so the per-batch hot path allocated `O(workers)` times.
//! Dispatch now uses a **preallocated job slot** per worker: one
//! `AtomicPtr` that the caller points at a per-call `TaskHeader` living
//! on the `scatter` stack frame (publish = one release store + `unpark`),
//! and that the worker consumes, runs, and acknowledges by decrementing the
//! header's remaining-counter and unparking the caller. Worker `i − 1`
//! always executes shard `i`, so the slot carries no payload beyond the
//! header pointer; results are written straight into the caller's output
//! buffer through the header. Steady-state dispatch therefore performs
//! **zero heap allocations** — no boxed jobs, no channel nodes (the only
//! remaining allocation is the caller's result `Vec`, which is free for
//! zero-sized results, i.e. for every engine hot loop). Panic payloads are
//! the one exception: unwinding already allocates, so the panic path may
//! too.
//!
//! `scatter` takes `&self` and serializes concurrent calls internally; it
//! must not be called **re-entrantly** from inside a shard closure of the
//! same pool (the outer call holds the dispatch slots — same as the
//! channel-based dispatch, where a nested call would deadlock on its own
//! worker).
//!
//! ## Determinism contract
//!
//! Parallel callers stay reproducible because of two ordering guarantees
//! that this module provides and the engines rely on:
//!
//! 1. **Shard-order scatter/merge.** [`WorkerPool::scatter`] runs one
//!    closure per shard and returns the results **in shard order**,
//!    regardless of which worker finished first. Callers that fold shard
//!    accumulators (`BatchAccum::merge_from`, `GradAccumulator::merge_from`,
//!    the evaluator's per-pair records) therefore always merge in the same
//!    fixed order, so float summation order — and every downstream apply —
//!    is a pure function of the sharding, never of thread scheduling.
//! 2. **Scheduling-independent sharding.** [`shard_items`] and
//!    [`chunk_ranges`] partition work by *value* (`shard_fn(item) % shards`)
//!    or by *position* (contiguous chunks), both independent of the worker
//!    count actually available. Together with (1), a run is bit-identical
//!    for a fixed seed and shard count on any machine.
//!
//! Downstream, the optimizer applies each shard-merged batch in
//! **first-touch order** (see `mars-optim::GradAccumulator`); this module's
//! shard-order guarantee is what makes that first-touch order well defined
//! under parallelism. The batched evaluator instead records per-pair results
//! into positional slots and reduces them serially in pair order, which
//! makes parallel evaluation bit-identical to the sequential protocol — and
//! its negative pre-draw keys one [`crate::rng::CounterRng`] stream per
//! pair, so the drawn candidate sets are the same at every worker count too.
//!
//! ## Degenerate single-thread mode
//!
//! A pool built with one thread spawns **no** background workers: `scatter`
//! runs every shard inline on the caller, in shard order. One-core CI and
//! `threads = 1` configs therefore execute exactly the code path of a
//! multi-core run minus the thread hops — same sharding, same merge order,
//! same results.
//!
//! Shutdown is graceful: dropping the pool publishes a shutdown sentinel to
//! every slot and joins every worker.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, Thread};

/// Resolves a configured worker-thread count: `0` means "all available
/// cores", anything else is taken literally (min 1). Shared by every
/// sharded engine in the workspace so the auto-detection rule cannot
/// drift between them.
pub fn resolve_threads(configured: usize) -> usize {
    match configured {
        0 => thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        n => n,
    }
    .max(1)
}

/// Worker-side job outcome recorded in its slot; the caller reads these on
/// the panic path to know which result slots were initialized.
const OUTCOME_PENDING: u8 = 0;
const OUTCOME_OK: u8 = 1;
const OUTCOME_PANICKED: u8 = 2;

/// Iterations a worker spins on its slot before parking. Kept small: the
/// pool also runs on single-core machines, where spinning only delays the
/// publisher. Shared with [`crate::oneshot`], which uses the same
/// spin-then-park discipline on the response side.
pub(crate) const SPIN_BEFORE_PARK: usize = 64;

/// The shutdown sentinel published to a slot by `Drop`: the canonical
/// dangling (aligned, never-allocated) address, which cannot alias a real
/// [`TaskHeader`] — those live in the publishing `scatter` frame, and no
/// allocation ever sits in the null page.
fn shutdown_sentinel() -> *mut TaskHeader {
    std::ptr::dangling_mut::<TaskHeader>()
}

/// Per-`scatter` dispatch header, living on the `scatter` stack frame. The
/// `'static`-free raw pointers are sound because `scatter` never returns
/// (or unwinds) before `remaining` reaches zero — no worker can touch the
/// header or the buffers it points into after the frame is gone.
struct TaskHeader {
    /// Monomorphized trampoline: runs shard `i` against the erased context
    /// and writes the result into the caller's output buffer at slot `i`.
    run: unsafe fn(*const (), usize),
    /// Type-erased pointer to the monomorphized context (closure + shard
    /// and result base pointers).
    ctx: *const (),
    /// Background shards still running; the caller's barrier.
    remaining: AtomicUsize,
    /// The caller, unparked by each worker acknowledgement.
    caller: Thread,
    /// First panic payload from a worker shard (allocates only when a shard
    /// actually panics — unwinding allocates anyway).
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
}

/// A worker's preallocated job slot: the only channel between caller and
/// worker, reused for the lifetime of the pool.
struct JobSlot {
    /// Published task: null = idle, [`shutdown_sentinel`] = terminate,
    /// anything else = a live [`TaskHeader`] for one `scatter` call.
    task: AtomicPtr<TaskHeader>,
    /// Outcome of the worker's shard in the current `scatter` call.
    outcome: AtomicU8,
}

struct Worker {
    slot: Arc<JobSlot>,
    /// Handle for `unpark` (cloned from the `JoinHandle` at spawn).
    thread: Thread,
    handle: Option<thread::JoinHandle<()>>,
}

/// A fixed set of persistent worker threads plus the caller's own thread.
///
/// The pool holds `threads − 1` background workers; the calling thread
/// always executes shard 0 (and any shards beyond the worker count), so a
/// pool of `n` threads gives `n`-way parallelism without idling the caller.
pub struct WorkerPool {
    workers: Vec<Worker>,
    /// Serializes `scatter` calls: each worker has exactly one job slot, so
    /// only one dispatch may be in flight (uncontended in every engine —
    /// scatters are barriers).
    dispatch: Mutex<()>,
}

/// The background worker loop: wait on the slot (spin, then park), run the
/// published shard, acknowledge through the header. `index` is the shard
/// this worker always executes (worker `i − 1` → shard `i`).
fn worker_loop(slot: Arc<JobSlot>, index: usize) {
    loop {
        let mut task = slot.task.load(Ordering::Acquire);
        let mut spins = 0;
        while task.is_null() {
            if spins < SPIN_BEFORE_PARK {
                spins += 1;
                std::hint::spin_loop();
            } else {
                thread::park();
            }
            task = slot.task.load(Ordering::Acquire);
        }
        if task == shutdown_sentinel() {
            return;
        }
        // Consume the slot before running; the caller cannot publish again
        // until this call's barrier has passed, so the store cannot race a
        // new task.
        // ORDERING: relaxed suffices — the null store publishes no data;
        // the next publisher's release store on this same slot is what
        // orders the following task's header against this worker's load.
        slot.task.store(ptr::null_mut(), Ordering::Relaxed);
        // SAFETY: the publishing `scatter` frame blocks until `remaining`
        // hits zero — the `fetch_sub` below is therefore the *last* access
        // to the header (and everything it points into) this worker may
        // make: the moment it lands, the frame is free to die. The caller
        // handle for the final wake-up is cloned out beforehand (a refcount
        // bump, not an allocation) for exactly that reason.
        let header = unsafe { &*task };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            // SAFETY: `run` is the monomorphized trampoline for exactly the
            // `Ctx` that `ctx` points to (both set together in `scatter`),
            // and worker `index − 1` is the only executor of shard `index`.
            unsafe { (header.run)(header.ctx, index) }
        }));
        match outcome {
            Ok(()) => slot.outcome.store(OUTCOME_OK, Ordering::Release),
            Err(payload) => {
                slot.outcome.store(OUTCOME_PANICKED, Ordering::Release);
                header
                    .panic
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner())
                    .get_or_insert(payload);
            }
        }
        let caller = header.caller.clone();
        header.remaining.fetch_sub(1, Ordering::AcqRel);
        caller.unpark();
    }
}

impl WorkerPool {
    /// A pool of exactly `threads` workers (min 1, including the caller).
    /// `threads <= 1` spawns nothing — the degenerate serial mode.
    pub fn new(threads: usize) -> Self {
        let workers = (1..threads.max(1))
            .map(|i| {
                let slot = Arc::new(JobSlot {
                    task: AtomicPtr::new(ptr::null_mut()),
                    outcome: AtomicU8::new(OUTCOME_PENDING),
                });
                let worker_slot = Arc::clone(&slot);
                let handle = thread::Builder::new()
                    .name(format!("mars-runtime-{i}"))
                    .spawn(move || worker_loop(worker_slot, i))
                    .expect("failed to spawn mars-runtime worker");
                let thread = handle.thread().clone();
                Worker {
                    slot,
                    thread,
                    handle: Some(handle),
                }
            })
            .collect();
        Self {
            workers,
            dispatch: Mutex::new(()),
        }
    }

    /// A pool sized by the shared `threads` convention ([`resolve_threads`]:
    /// `0` = all cores).
    pub fn with_threads(configured: usize) -> Self {
        Self::new(resolve_threads(configured))
    }

    /// Total parallelism: background workers + the calling thread.
    pub fn workers(&self) -> usize {
        self.workers.len() + 1
    }

    /// Runs `f(i, &mut shards[i])` for every shard and returns the results
    /// **in shard order** — the scatter half of the engines'
    /// scatter → merge protocol (the caller merges, in that same order).
    ///
    /// Shard 0 (and any shards beyond the worker count) run on the calling
    /// thread; shards `1..=workers` run on the background workers (worker
    /// `i − 1` always executes shard `i`). The call blocks until every
    /// shard has finished. Shard counts may differ from the pool size:
    /// extra shards are executed serially by the caller, so the result —
    /// including float summation order inside any shard-order merge — is
    /// independent of how many workers the pool actually has.
    ///
    /// Dispatch is allocation-free in steady state (see the module docs);
    /// must not be called re-entrantly from inside a shard closure.
    ///
    /// # Panics
    /// If a shard closure panics, the panic is re-raised on the caller
    /// *after* every other shard has completed (no job ever outlives the
    /// call frame).
    pub fn scatter<T, R, F>(&self, shards: &mut [T], f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, &mut T) -> R + Sync,
    {
        let n = shards.len();
        if n == 0 {
            return Vec::new();
        }
        // Results are written in place through raw slots and the length is
        // set only on the fully-successful path. For `R = ()` — every
        // engine hot loop — this Vec never allocates.
        let mut results: Vec<R> = Vec::with_capacity(n);

        // Background shards 1..=bg; everything else runs on the caller.
        let bg = self.workers.len().min(n - 1);
        if bg == 0 {
            for (i, shard) in shards.iter_mut().enumerate() {
                results.push(f(i, shard));
            }
            return results;
        }

        let _dispatch = self
            .dispatch
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());

        /// Monomorphized context the trampoline recovers from the erased
        /// header pointer.
        struct Ctx<T, R, F> {
            f: *const F,
            shards: *mut T,
            results: *mut R,
        }

        /// Runs shard `i`.
        ///
        /// # Safety
        /// `ctx` must point to the live `Ctx<T, R, F>` of the current
        /// `scatter` frame, and each shard index must be executed exactly
        /// once per call (worker `i − 1` owns shard `i`, the caller owns
        /// the rest), so the `shards[i]` / `results[i]` accesses are
        /// disjoint across threads.
        unsafe fn trampoline<T, R, F: Fn(usize, &mut T) -> R>(ctx: *const (), i: usize) {
            // SAFETY: caller contract above — `ctx` is the live frame's
            // `Ctx`, `i < n`, and no other thread touches index `i`.
            unsafe {
                let ctx = &*(ctx as *const Ctx<T, R, F>);
                let result = (*ctx.f)(i, &mut *ctx.shards.add(i));
                ctx.results.add(i).write(result);
            }
        }

        let ctx = Ctx::<T, R, F> {
            f: &f,
            shards: shards.as_mut_ptr(),
            results: results.as_mut_ptr(),
        };
        let header = TaskHeader {
            run: trampoline::<T, R, F>,
            ctx: &ctx as *const Ctx<T, R, F> as *const (),
            remaining: AtomicUsize::new(bg),
            caller: thread::current(),
            panic: Mutex::new(None),
        };
        let header_ptr = &header as *const TaskHeader as *mut TaskHeader;
        for worker in &self.workers[..bg] {
            // ORDERING: relaxed suffices — the reset is ordered before the
            // worker's next read by the release store of the task pointer
            // below (the worker acquires the task before reading outcome).
            worker
                .slot
                .outcome
                .store(OUTCOME_PENDING, Ordering::Relaxed);
            // Publish: the release store makes the header (and the frozen
            // `shards`/`results` pointers inside it) visible to the worker.
            worker.slot.task.store(header_ptr, Ordering::Release);
            worker.thread.unpark();
        }

        // The caller's own shards: 0 first, then everything past the
        // workers, in order. `caller_done` counts completed entries of that
        // sequence so the panic path knows which result slots it filled.
        let caller_done = Cell::new(0usize);
        let caller_outcome = catch_unwind(AssertUnwindSafe(|| {
            // SAFETY: same trampoline contract — the caller owns shard 0
            // and every shard past the background workers, each run once.
            unsafe {
                trampoline::<T, R, F>(header.ctx, 0);
                caller_done.set(1);
                for i in bg + 1..n {
                    trampoline::<T, R, F>(header.ctx, i);
                    caller_done.set(caller_done.get() + 1);
                }
            }
        }));

        // Unconditional barrier: every published job must acknowledge
        // before this frame can be left, whether by return or by unwind.
        while header.remaining.load(Ordering::Acquire) != 0 {
            thread::park();
        }

        let mut panic_payload = caller_outcome.err();
        if panic_payload.is_none() {
            panic_payload = header
                .panic
                .into_inner()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
        if let Some(payload) = panic_payload {
            // Some result slots were initialized before the panic; drop
            // them (the Vec's length is still 0, so it won't).
            if std::mem::needs_drop::<R>() {
                // SAFETY: a slot is dropped iff its shard completed — the
                // caller's slots are counted by `caller_done` (slot 0, then
                // `bg + 1 ..`), a worker's slot iff its outcome is
                // OUTCOME_OK (acquire-paired with the worker's release
                // store) — and each is dropped exactly once.
                unsafe {
                    let base = results.as_mut_ptr();
                    let done = caller_done.get();
                    if done >= 1 {
                        ptr::drop_in_place(base);
                    }
                    for k in 1..done {
                        ptr::drop_in_place(base.add(bg + k));
                    }
                    for (w, worker) in self.workers[..bg].iter().enumerate() {
                        if worker.slot.outcome.load(Ordering::Acquire) == OUTCOME_OK {
                            ptr::drop_in_place(base.add(w + 1));
                        }
                    }
                }
            }
            resume_unwind(payload);
        }

        // SAFETY: no panic anywhere ⇒ every shard index 0..n ran its
        // trampoline exactly once and wrote its slot.
        unsafe { results.set_len(n) };
        results
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Publish the shutdown sentinel to every slot (all idle — `Drop`
        // has `&mut self`, so no scatter is in flight)…
        for w in &self.workers {
            w.slot.task.store(shutdown_sentinel(), Ordering::Release);
            w.thread.unpark();
        }
        // …then join them.
        for w in &mut self.workers {
            if let Some(handle) = w.handle.take() {
                let _ = handle.join();
            }
        }
    }
}

/// Distributes `items` into the buffers by `shard_fn(item) % buffer count`,
/// clearing the buffers first (capacity is kept across batches). Buffers
/// are taken as an iterator of `&mut Vec` so callers can shard straight
/// into per-worker state structs.
///
/// The assignment depends only on the item and the shard count — never on
/// worker availability — which is half of the determinism contract (see the
/// module docs).
pub fn shard_items<'a, I: Copy + 'a>(
    items: &[I],
    bufs: impl IntoIterator<Item = &'a mut Vec<I>>,
    mut shard_fn: impl FnMut(&I) -> usize,
) {
    let mut bufs: Vec<&mut Vec<I>> = bufs.into_iter().collect();
    let n = bufs.len();
    assert!(n > 0, "shard_items needs at least one buffer");
    for buf in bufs.iter_mut() {
        buf.clear();
    }
    for item in items {
        bufs[shard_fn(item) % n].push(*item);
    }
}

/// Splits `0..len` into at most `shards` contiguous, near-equal, in-order
/// ranges (the first `len % shards` ranges get one extra element). Used by
/// positional engines — the batched evaluator — where shard `i`'s slots in
/// the output are exactly its input positions, so a serial in-order
/// reduction is bit-identical to a fully sequential run.
pub fn chunk_ranges(len: usize, shards: usize) -> Vec<std::ops::Range<usize>> {
    let shards = shards.max(1).min(len.max(1));
    let base = len / shards;
    let extra = len % shards;
    let mut out = Vec::with_capacity(shards);
    let mut start = 0;
    for i in 0..shards {
        let size = base + usize::from(i < extra);
        out.push(start..start + size);
        start += size;
    }
    debug_assert_eq!(start, len);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Iteration counts shrink under Miri: the interpreter is ~3 orders of
    /// magnitude slower, and the aliasing/UB checks it exists for fire on
    /// the first crossing, not the hundredth.
    const REUSE_ROUNDS: u64 = if cfg!(miri) { 4 } else { 100 };

    fn stagger(ms: u64) {
        // Miri supports sleeping but executes it in real time; keep the
        // stagger symbolic there.
        if !cfg!(miri) {
            std::thread::sleep(std::time::Duration::from_millis(ms));
        } else {
            std::thread::yield_now();
        }
    }

    #[test]
    fn resolve_threads_zero_means_all_cores() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(5), 5);
    }

    #[test]
    fn single_thread_pool_spawns_nothing_and_runs_in_order() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.workers(), 1);
        let mut shards = vec![0u32; 5];
        let order = std::sync::Mutex::new(Vec::new());
        let out = pool.scatter(&mut shards, |i, s| {
            *s = i as u32 * 10;
            order.lock().unwrap().push(i);
            i
        });
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        assert_eq!(shards, vec![0, 10, 20, 30, 40]);
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn scatter_returns_results_in_shard_order() {
        let pool = WorkerPool::new(4);
        let mut shards: Vec<usize> = (0..4).collect();
        let out = pool.scatter(&mut shards, |i, s| {
            // Stagger finish times against the shard order.
            stagger(5 * (4 - i as u64));
            *s += 100;
            i * 2
        });
        assert_eq!(out, vec![0, 2, 4, 6]);
        assert_eq!(shards, vec![100, 101, 102, 103]);
    }

    #[test]
    fn scatter_handles_more_shards_than_workers() {
        let pool = WorkerPool::new(2);
        let mut shards: Vec<u64> = (0..7).collect();
        let out = pool.scatter(&mut shards, |i, s| *s + i as u64);
        assert_eq!(out, vec![0, 2, 4, 6, 8, 10, 12]);
    }

    #[test]
    fn scatter_handles_fewer_shards_than_workers_and_empty() {
        let pool = WorkerPool::new(8);
        let mut one = [41u8];
        assert_eq!(pool.scatter(&mut one, |_, s| *s + 1), vec![42]);
        let mut none: [u8; 0] = [];
        assert!(pool.scatter(&mut none, |_, s| *s).is_empty());
    }

    #[test]
    fn pool_is_reusable_across_many_calls() {
        // The whole point vs. thread::scope: no per-call spawn (and, since
        // PR 3, no per-call boxing either).
        let pool = WorkerPool::new(3);
        let mut shards = vec![0u64; 3];
        for round in 0..REUSE_ROUNDS {
            let sums = pool.scatter(&mut shards, |i, s| {
                *s += round + i as u64;
                *s
            });
            assert_eq!(sums.len(), 3);
        }
        assert_eq!(shards[0], (0..REUSE_ROUNDS).sum::<u64>());
    }

    #[test]
    fn worker_panic_propagates_after_all_shards_finish() {
        let pool = WorkerPool::new(4);
        let finished = std::sync::atomic::AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut shards = vec![0u32; 4];
            pool.scatter(&mut shards, |i, _| {
                if i == 2 {
                    panic!("shard 2 exploded");
                }
                finished.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            });
        }));
        assert!(result.is_err(), "panic must propagate to the caller");
        assert_eq!(finished.load(std::sync::atomic::Ordering::SeqCst), 3);
        // The pool must survive a panicked scatter.
        let mut shards = vec![1u32; 4];
        let out = pool.scatter(&mut shards, |_, s| *s);
        assert_eq!(out, vec![1, 1, 1, 1]);
    }

    #[test]
    fn caller_panic_still_waits_for_workers() {
        // Shard 0 runs on the caller and panics; the background shards must
        // all complete before the panic propagates (their borrows die with
        // the frame).
        let pool = WorkerPool::new(4);
        let finished = std::sync::atomic::AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut shards = vec![0u32; 4];
            pool.scatter(&mut shards, |i, _| {
                if i == 0 {
                    panic!("caller shard exploded");
                }
                stagger(10);
                finished.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            });
        }));
        assert!(result.is_err());
        assert_eq!(finished.load(std::sync::atomic::Ordering::SeqCst), 3);
    }

    #[test]
    fn droppable_results_survive_panics_without_leaking() {
        // Completed shards return heap-owning results; a panicking shard
        // must not leak them (checked directly under Miri, which flags a
        // leak or double-free in the drop bookkeeping).
        let pool = WorkerPool::new(3);
        for panicking in 0..3usize {
            let result = catch_unwind(AssertUnwindSafe(|| {
                let mut shards = vec![0u32; 3];
                pool.scatter(&mut shards, |i, _| {
                    if i == panicking {
                        panic!("boom");
                    }
                    vec![i; 100]
                });
            }));
            assert!(result.is_err());
        }
        let mut shards = vec![0u32; 3];
        let out = pool.scatter(&mut shards, |i, _| vec![i; 2]);
        assert_eq!(out, vec![vec![0, 0], vec![1, 1], vec![2, 2]]);
    }

    #[test]
    fn shard_items_distributes_and_clears() {
        let mut bufs: Vec<Vec<u32>> = vec![vec![99]; 3];
        shard_items(&[0, 1, 2, 3, 4, 5, 6], bufs.iter_mut(), |&v| v as usize);
        assert_eq!(bufs[0], vec![0, 3, 6]);
        assert_eq!(bufs[1], vec![1, 4]);
        assert_eq!(bufs[2], vec![2, 5]);
    }

    #[test]
    fn chunk_ranges_cover_exactly_in_order() {
        assert_eq!(chunk_ranges(10, 3), vec![0..4, 4..7, 7..10]);
        assert_eq!(chunk_ranges(2, 5), vec![0..1, 1..2]);
        assert_eq!(chunk_ranges(0, 4), vec![0..0]);
        let ranges = chunk_ranges(101, 8);
        assert_eq!(ranges.len(), 8);
        assert_eq!(ranges.iter().map(|r| r.len()).sum::<usize>(), 101);
        for w in ranges.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
    }
}
