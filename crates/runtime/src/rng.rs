//! Counter-based random numbers (splitmix64-style), dependency-free.
//!
//! The batched evaluator pre-draws one negative candidate set per held-out
//! pair. With a conventional sequential generator the draws form one shared
//! stream, so the pre-draw cannot parallelize without changing the sets.
//! [`CounterRng`] removes the coupling: the stream is a **pure function of
//! `(seed, stream, draw index)`** — output `i` of `CounterRng::keyed(seed,
//! stream)` is
//!
//! ```text
//! mix64( key(seed, stream) + (i + 1) · GOLDEN )
//! ```
//!
//! where `mix64` is the splitmix64 finalizer and `GOLDEN` is the 64-bit
//! golden-ratio increment. Give every unit of work (the evaluator: every
//! held-out pair) its own `stream` and the draws of different units are
//! independent of each other and of any scheduling: sharding the units
//! across a [`crate::WorkerPool`] at any worker count reproduces exactly
//! the candidate sets a serial walk draws. The golden-value tests below pin
//! the stream so it can never drift silently.
//!
//! # Block draws and the pluggable fill kernel
//!
//! Because output `i` depends only on `(state, i)`, a whole block of draws
//! is one embarrassingly parallel map — [`CounterRng::fill_block`] computes
//! it without a loop-carried dependency and is **defined** to produce
//! exactly the values the same number of [`CounterRng::next_u64`] calls
//! would. That definition is what makes the block form swappable for the
//! sequential form anywhere (the training batcher does so freely), and it
//! is also a contract an accelerated implementation must meet:
//! [`install_fill_block_kernel`] lets a downstream crate (in this workspace
//! `mars-tensor::simd`, which carries the runtime-dispatched 8-wide
//! vectorized tiers) route `fill_block` through a faster kernel **without**
//! this crate gaining a dependency. The hook is a plain `fn` pointer — an
//! installed kernel must be bit-identical to the scalar fallback (the
//! installer's test suite proves it against the golden vector below), so
//! installation affects throughput only, never values: a process that never
//! installs anything draws the exact same streams as one that does.
//!
//! # Range mapping
//!
//! Every bounded draw in the workspace reduces a full 64-bit word to
//! `0..n` through one definition: [`lemire_map`], Lemire's widening
//! multiply `⌊word · n / 2⁶⁴⌋`. Unlike the `%` reduction it costs one
//! multiply instead of a hardware divide, and unlike rejection sampling it
//! consumes exactly one word per draw, so a unit of work's draw count is a
//! pure function of its accept/reject decisions.

/// 64-bit golden-ratio increment (the splitmix64 gamma): the counter step
/// between consecutive draws of a stream. Public so kernel implementations
/// ([`install_fill_block_kernel`]) can reproduce the stream exactly.
pub const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

pub mod seeds {
    //! The workspace's seed-derivation convention, in one place.
    //!
    //! Every model in the workspace draws randomness for two distinct
    //! purposes: **initialization** (embedding tables, tower weights) and
    //! **training-time sampling** (users, positives, negatives). The two must
    //! not share a stream — otherwise adding an init parameter would shift
    //! every triplet drawn afterwards — so each purpose derives its own seed
    //! from the one user-facing `seed` knob. Before PR 4 the derivation
    //! (`seed` for init, `seed.wrapping_add(1)` for sampling) was
    //! copy-pasted across every baseline and the trainer; these helpers are
    //! now the single definition, so the convention cannot drift between
    //! models.

    /// Seed for parameter initialization: the config seed itself.
    #[inline]
    pub fn model_init(seed: u64) -> u64 {
        seed
    }

    /// Seed for training-time sampling (the batcher's counter-keyed streams,
    /// or any remaining sequential sampler): decorrelated from
    /// [`model_init`] by the fixed `+1` offset the baselines always used.
    #[inline]
    pub fn sampling(seed: u64) -> u64 {
        seed.wrapping_add(1)
    }
}

/// The splitmix64 output finalizer (Stafford's mix; also murmur3-strength):
/// a bijection on `u64` that diffuses every input bit to every output bit.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z ^= z >> 30;
    z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    z
}

/// Lemire's multiplicative range reduction: maps a uniform 64-bit `word`
/// to `0..n` as `⌊word · n / 2⁶⁴⌋` — the high half of the widening
/// multiply. Bias is at most `n / 2⁶⁴` (immaterial for catalogue-sized
/// `n`), the cost is one multiply (no hardware divide, unlike `%`), and
/// every call consumes exactly one word. This is the workspace's **single
/// definition** of "uniform index below `n`": `CounterRng::gen_below`, the
/// samplers, and the alias table all bottom out here.
///
/// `n = 0` returns 0 (callers assert their own non-empty ranges).
#[inline]
pub const fn lemire_map(word: u64, n: u64) -> u64 {
    (((word as u128) * (n as u128)) >> 64) as u64
}

/// An accelerated block-fill implementation: must write
/// `out[i] = mix64(base + (i + 1) · GOLDEN)` for every `i` — exactly the
/// scalar fallback inside [`CounterRng::fill_block`], bit for bit.
pub type FillBlockKernel = fn(base: u64, out: &mut [u64]);

/// The installed fill kernel, or null for the scalar fallback. A plain
/// atomic pointer keeps this crate dependency-free while letting the
/// vectorized tiers in `mars-tensor::simd` take over the hot loop.
static FILL_KERNEL: std::sync::atomic::AtomicPtr<()> =
    std::sync::atomic::AtomicPtr::new(std::ptr::null_mut());

/// Routes every [`CounterRng::fill_block`] in the process through `kernel`.
///
/// The kernel **must** be bit-identical to the scalar fallback (see
/// [`FillBlockKernel`]); installing one is therefore a pure throughput
/// decision — values, and hence every recorded stream, are unaffected.
/// Idempotent and thread-safe; last install wins.
pub fn install_fill_block_kernel(kernel: FillBlockKernel) {
    FILL_KERNEL.store(kernel as *mut (), std::sync::atomic::Ordering::Release);
}

/// Fills shorter than this run the inline scalar loop without consulting
/// the kernel hook: below ~half a vector block the atomic load, indirect
/// call, and the kernel's lane setup cost more than the mixes themselves.
/// Routing, like the kernel, is invisible in the values.
const SHORT_FILL: usize = 4;

/// Fills `out[i] = mix64(base + (i + 1) · GOLDEN)` through the installed
/// kernel, or the scalar loop when none is installed (or the fill is too
/// short to amortize the indirect call).
#[inline]
fn fill_words(base: u64, out: &mut [u64]) {
    if out.len() > SHORT_FILL {
        let k = FILL_KERNEL.load(std::sync::atomic::Ordering::Acquire);
        if !k.is_null() {
            // SAFETY: the pointer was stored from a `FillBlockKernel` in
            // `install_fill_block_kernel`; fn pointers round-trip through
            // pointer casts losslessly.
            let kernel: FillBlockKernel = unsafe { std::mem::transmute(k) };
            kernel(base, out);
            return;
        }
    }
    for (i, o) in out.iter_mut().enumerate() {
        *o = mix64(base.wrapping_add((i as u64 + 1).wrapping_mul(GOLDEN)));
    }
}

/// A counter-based generator: splitmix64 over a state keyed by
/// `(seed, stream)`. `Copy`-cheap (one `u64`), construction is two mixes —
/// cheap enough to build one per unit of work.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterRng {
    state: u64,
}

impl CounterRng {
    /// The generator for `stream` under `seed`. Distinct `(seed, stream)`
    /// pairs yield decorrelated sequences; the same pair always yields the
    /// same sequence, on any thread, in any order.
    #[inline]
    pub fn keyed(seed: u64, stream: u64) -> Self {
        Self {
            state: mix64(mix64(seed) ^ stream.wrapping_mul(GOLDEN)),
        }
    }

    /// The per-seed half of [`Self::keyed`]'s key derivation — hoist it
    /// once across many streams of the same seed and finish each with
    /// [`Self::keyed_from_base`], saving one `mix64` per stream. The
    /// batcher keys one stream per (batch, slot), so a fill touches
    /// thousands of streams under a single seed.
    #[inline]
    pub fn stream_base(seed: u64) -> u64 {
        mix64(seed)
    }

    /// The generator [`Self::keyed`] builds, given the hoisted
    /// `base = stream_base(seed)` — bit-identical streams, one mix cheaper.
    #[inline]
    pub fn keyed_from_base(base: u64, stream: u64) -> Self {
        Self {
            state: mix64(base ^ stream.wrapping_mul(GOLDEN)),
        }
    }

    /// Next 64 uniformly distributed bits (draw counter advances by one).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN);
        mix64(self.state)
    }

    /// The same stream advanced by `n` draws, in O(1) — the counter is
    /// position-indexed, so jumping ahead is one multiply-add, no mixing.
    /// `skip(n)` then drawing word 0 yields exactly what the `n`-th
    /// `next_u64` of the unskipped stream would.
    #[inline]
    #[must_use]
    pub fn skip(self, n: u64) -> Self {
        Self {
            state: self.state.wrapping_add(n.wrapping_mul(GOLDEN)),
        }
    }

    /// The next `out.len()` draws of the stream — exactly the values that
    /// many [`Self::next_u64`] calls would return, and the counter advances
    /// the same way. Output `i` is `mix64(state + (i+1)·GOLDEN)`: no
    /// loop-carried dependency, so the mixes pipeline (and vectorize)
    /// instead of serializing on the state update — the batcher refills
    /// its per-slot draw buffer through this. Runs on the installed
    /// vectorized kernel when one is present (see
    /// [`install_fill_block_kernel`]); the values are identical either way.
    #[inline]
    pub fn fill_block(&mut self, out: &mut [u64]) {
        let base = self.state;
        fill_words(base, out);
        self.state = base.wrapping_add((out.len() as u64).wrapping_mul(GOLDEN));
    }

    /// Uniform draw in `0..n` by [`lemire_map`] — the shared widening
    /// multiply reduction. Bias is at most `n / 2⁶⁴` — immaterial for
    /// catalogue-sized `n` — and, unlike rejection sampling, every call
    /// consumes **exactly one** counter tick, so the draw count of a unit
    /// of work is a pure function of its accept/reject decisions.
    #[inline]
    pub fn gen_below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0, "gen_below needs n ≥ 1");
        lemire_map(self.next_u64(), n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pinned stream: these literals are the contract. If any of them
    /// changes, every pre-drawn candidate set in every recorded evaluation
    /// changes with it — bump them only with a deliberate protocol break.
    ///
    /// `keyed(0, 0)` has state 0 (`mix64(0) = 0`), so its stream is plain
    /// splitmix64 seeded with 0 — the first value is the canonical
    /// splitmix64 test vector `0xe220a8397b1dcdaf`, an external
    /// cross-check on the implementation.
    #[test]
    fn golden_values_pin_the_stream() {
        let mut r = CounterRng::keyed(0, 0);
        assert_eq!(
            [r.next_u64(), r.next_u64(), r.next_u64(), r.next_u64()],
            [
                0xe220_a839_7b1d_cdaf,
                0x6e78_9e6a_a1b9_65f4,
                0x06c4_5d18_8009_454f,
                0xf88b_b8a8_724c_81ec,
            ]
        );
        let mut r = CounterRng::keyed(2021, 0);
        assert_eq!(
            [r.next_u64(), r.next_u64()],
            [0x7e30_4ce9_f3ce_dd5f, 0xdb0e_9264_d49d_63ca]
        );
        let mut r = CounterRng::keyed(2021, 1);
        assert_eq!(
            [r.next_u64(), r.next_u64()],
            [0xa7c5_5b48_4d86_da01, 0x50e0_80bf_0ca6_3383]
        );
    }

    #[test]
    fn gen_below_golden_values_and_range() {
        let mut r = CounterRng::keyed(7, 3);
        let draws: Vec<u64> = (0..6).map(|_| r.gen_below(1_000)).collect();
        assert_eq!(draws, [376, 78, 62, 661, 761, 389]);
        let mut r = CounterRng::keyed(123, 456);
        for _ in 0..10_000 {
            assert!(r.gen_below(17) < 17);
        }
        let mut r = CounterRng::keyed(9, 9);
        for _ in 0..100 {
            assert_eq!(r.gen_below(1), 0);
        }
    }

    /// `fill_block` must reproduce the sequential stream exactly — the
    /// batcher swaps between the two forms freely, so any divergence would
    /// silently change every training run.
    #[test]
    fn fill_block_matches_sequential_draws() {
        for (seed, stream, len) in [(0, 0, 1usize), (7, 3, 8), (42, 9, 13), (2021, 1, 64)] {
            let mut seq = CounterRng::keyed(seed, stream);
            let want: Vec<u64> = (0..len).map(|_| seq.next_u64()).collect();
            let mut blk = CounterRng::keyed(seed, stream);
            let mut got = vec![0u64; len];
            blk.fill_block(&mut got);
            assert_eq!(want, got, "block at ({seed},{stream},{len})");
            // And the counter landed in the same place: next draws agree.
            assert_eq!(seq.next_u64(), blk.next_u64());
            // Split refills cross block boundaries without drift.
            let mut split = CounterRng::keyed(seed, stream);
            let (a, b) = got.split_at(len / 2);
            let mut got_a = vec![0u64; a.len()];
            let mut got_b = vec![0u64; b.len()];
            split.fill_block(&mut got_a);
            split.fill_block(&mut got_b);
            assert_eq!(a, got_a);
            assert_eq!(b, got_b);
        }
    }

    /// The hoisted two-step key derivation is the same function as `keyed`.
    #[test]
    fn keyed_from_base_matches_keyed() {
        for seed in [0u64, 1, 42, 2021, u64::MAX] {
            let base = CounterRng::stream_base(seed);
            for stream in [0u64, 1, 7, 1_000_003, u64::MAX] {
                assert_eq!(
                    CounterRng::keyed(seed, stream),
                    CounterRng::keyed_from_base(base, stream),
                    "({seed},{stream})"
                );
            }
        }
    }

    #[test]
    fn lemire_map_bounds_and_golden_values() {
        assert_eq!(lemire_map(0, 1000), 0);
        assert_eq!(lemire_map(u64::MAX, 1000), 999);
        // Midpoint word lands at the midpoint of the range.
        assert_eq!(lemire_map(1 << 63, 1000), 500);
        for n in [1u64, 2, 17, 1000, u64::MAX] {
            let mut r = CounterRng::keyed(5, 5);
            for _ in 0..1000 {
                assert!(lemire_map(r.next_u64(), n) < n);
            }
        }
    }

    /// Installing a (correct) kernel must not change a single value:
    /// the hook is a throughput knob, never a semantics knob. The test
    /// kernel is a hand-written duplicate of the scalar fallback, which is
    /// exactly the contract a real vectorized kernel must meet — and since
    /// the hook is process-global, installing it here also exercises every
    /// other test in this binary against an installed kernel.
    #[test]
    fn installed_kernel_preserves_the_stream() {
        fn duplicate(base: u64, out: &mut [u64]) {
            for (i, o) in out.iter_mut().enumerate() {
                *o = mix64(base.wrapping_add((i as u64 + 1).wrapping_mul(GOLDEN)));
            }
        }
        let mut want = vec![0u64; 67];
        CounterRng::keyed(2021, 7).fill_block(&mut want);
        install_fill_block_kernel(duplicate);
        let mut got = vec![0u64; 67];
        CounterRng::keyed(2021, 7).fill_block(&mut got);
        assert_eq!(want, got);
        // And the golden vector still holds through the hook.
        let mut first = [0u64; 1];
        CounterRng::keyed(0, 0).fill_block(&mut first);
        assert_eq!(first[0], 0xe220_a839_7b1d_cdaf);
    }

    #[test]
    fn streams_are_order_independent() {
        // The whole point: drawing stream 5 first (or on another thread)
        // cannot change stream 2.
        let draw = |stream: u64| -> Vec<u64> {
            let mut r = CounterRng::keyed(42, stream);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let two_then_five = (draw(2), draw(5));
        let five_then_two = (draw(5), draw(2));
        assert_eq!(two_then_five.0, five_then_two.1);
        assert_eq!(two_then_five.1, five_then_two.0);
    }

    #[test]
    fn distinct_keys_give_distinct_streams() {
        let first = |seed, stream| CounterRng::keyed(seed, stream).next_u64();
        let mut seen = std::collections::HashSet::new();
        for seed in 0..30u64 {
            for stream in 0..30u64 {
                assert!(
                    seen.insert(first(seed, stream)),
                    "collision at ({seed},{stream})"
                );
            }
        }
    }

    #[test]
    fn output_bits_look_balanced() {
        // Cheap sanity (not a statistical suite): over 4096 draws each of
        // the 64 output bits should be set roughly half the time.
        let mut r = CounterRng::keyed(1, 0);
        let mut ones = [0u32; 64];
        let n = 4096;
        for _ in 0..n {
            let v = r.next_u64();
            for (b, count) in ones.iter_mut().enumerate() {
                *count += ((v >> b) & 1) as u32;
            }
        }
        for (b, &count) in ones.iter().enumerate() {
            let frac = count as f64 / n as f64;
            assert!((0.44..=0.56).contains(&frac), "bit {b} biased: {frac}");
        }
    }
}
