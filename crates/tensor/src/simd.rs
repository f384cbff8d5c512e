//! Explicitly vectorized kernel layer: the single definition of every hot
//! inner loop in the workspace.
//!
//! Each kernel exists in (up to) three tiers:
//!
//! * [`scalar`] — the PR 2 reference loops (strictly sequential f32
//!   summation). Kept only as the A/B baseline for the agreement tests and
//!   the kernel microbench; nothing in the engine calls them anymore.
//! * [`portable`] — lane-chunked loops over an 8×`f32` accumulator block
//!   ([`LANES`]), written so LLVM vectorizes them on any target without
//!   reassociating float sums.
//! * [`avx2`] (x86-64 only) — hand-written `std::arch` intrinsics using
//!   256-bit loads and FMA, one 8-lane accumulator per reduction.
//!
//! The public functions in this module dispatch at runtime: AVX2 + FMA when
//! `is_x86_feature_detected!` reports both (cached after the first call),
//! the portable tier otherwise. `mars_tensor::ops` and `mars_tensor::rows`
//! forward their hot kernels here, so every layer of the engine — scoring,
//! gradient accumulation, batched evaluation — runs the same code.
//!
//! ## Summation-order / determinism contract
//!
//! Reductions ([`dot`], [`dist_sq`]) accumulate in **8-lane chunked order**:
//! lane `l` of the accumulator sums elements `l, l+8, l+16, …` of the main
//! body, the lanes are folded in a fixed tree (`((l0+l4)+(l1+l5)) +
//! ((l2+l6)+(l3+l7))` — exactly the AVX2 horizontal reduction), and a
//! strictly sequential tail of fewer than 8 elements is added last. This
//! order is *different* from the PR 2 scalar kernels (sequential
//! accumulation), which is allowed: the workspace determinism contract is
//! "bit-identical for a fixed seed at any worker count", **not** "identical
//! to the old scalar summation order". What the contract does require — and
//! what this module guarantees — is:
//!
//! * **One definition per kernel.** Every entry point that must agree
//!   bitwise (`Scorer::score` / `score_many` / `score_block`, the batched
//!   vs. sequential evaluator, the reference vs. batched update) bottoms
//!   out in the same function here, so reorganizing a caller cannot change
//!   float semantics.
//! * **Stable dispatch.** The AVX2/portable decision is a pure function of
//!   the host CPU, resolved once per process and never per call, so a run
//!   never mixes tiers. The two tiers may differ in the last bits (FMA
//!   contracts the multiply-add), which is why cross-tier tests use a
//!   relative tolerance while cross-entry-point tests demand bit equality.
//!
//! The fused optimizer-step kernels ([`calibrated_rsgd_rows`],
//! [`sgd_clip_rows`]) follow the same rules — their reductions use the
//! chunked order above, so `x·g` is bitwise the [`dot`] of the same row —
//! and state their degenerate cases (zero / non-finite gradient, collapsed
//! retraction target) as part of the contract rather than leaving them to
//! whatever the arithmetic does.

use std::sync::atomic::{AtomicU8, Ordering};

/// Accumulator width of the chunked kernels: one 256-bit `f32` vector.
pub const LANES: usize = 8;

/// The kernel tier the runtime dispatcher selected for this process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// Hand-vectorized `std::arch` intrinsics (AVX2 + FMA detected).
    Avx2Fma,
    /// Lane-chunked portable Rust (any target; LLVM auto-vectorizes).
    Portable,
}

const PATH_UNRESOLVED: u8 = 0;
const PATH_AVX2: u8 = 1;
const PATH_PORTABLE: u8 = 2;

static PATH: AtomicU8 = AtomicU8::new(PATH_UNRESOLVED);

/// The tier every dispatched kernel in this module runs on, resolved once
/// per process from the host CPU (so a run never mixes tiers).
#[inline]
pub fn active_path() -> Path {
    // ORDERING: relaxed suffices — the cached tier is a pure function of
    // the host CPU, so every racing resolver stores the same value; no
    // other memory is published through this flag.
    match PATH.load(Ordering::Relaxed) {
        PATH_AVX2 => Path::Avx2Fma,
        PATH_PORTABLE => Path::Portable,
        _ => resolve_path(),
    }
}

#[cold]
fn resolve_path() -> Path {
    #[cfg(target_arch = "x86_64")]
    let path = if avx2::available() {
        Path::Avx2Fma
    } else {
        Path::Portable
    };
    #[cfg(not(target_arch = "x86_64"))]
    let path = Path::Portable;
    let code = match path {
        Path::Avx2Fma => PATH_AVX2,
        Path::Portable => PATH_PORTABLE,
    };
    // ORDERING: relaxed suffices — see `active_path`: idempotent cache of
    // a host-CPU property, carrying no other data.
    PATH.store(code, Ordering::Relaxed);
    path
}

/// Dispatches one kernel call to the active tier.
// SAFETY: the AVX2 arm is `unsafe` only for the `target_feature` contract,
// which `active_path()` has verified on this host before ever returning
// `Path::Avx2Fma`; the safe wrappers checked the length preconditions.
macro_rules! dispatch {
    ($name:ident($($arg:expr),*)) => {
        match active_path() {
            #[cfg(target_arch = "x86_64")]
            Path::Avx2Fma => unsafe { avx2::$name($($arg),*) },
            #[cfg(not(target_arch = "x86_64"))]
            Path::Avx2Fma => unreachable!("AVX2 tier selected off x86-64"),
            Path::Portable => portable::$name($($arg),*),
        }
    };
}

/// Hard (release-mode) length-agreement check. The dispatch wrappers are
/// the safety boundary in front of the raw-pointer AVX2 tier, which sizes
/// its loops by one slice — a mismatch must panic, never read past an
/// allocation (the pre-SIMD iterator kernels merely truncated via `zip`).
#[inline]
fn check_same_len(a: &[f32], b: &[f32]) {
    assert_eq!(
        a.len(),
        b.len(),
        "kernel dimension mismatch: {} vs {}",
        a.len(),
        b.len()
    );
}

/// Dot product `a · b` (chunked summation order, see the module docs).
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    check_same_len(a, b);
    dispatch!(dot(a, b))
}

/// Squared Euclidean distance `‖a − b‖²`.
#[inline]
pub fn dist_sq(a: &[f32], b: &[f32]) -> f32 {
    check_same_len(a, b);
    dispatch!(dist_sq(a, b))
}

/// `y ← y + alpha · x`.
#[inline]
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    check_same_len(x, y);
    dispatch!(axpy(alpha, x, y))
}

/// Per-row dot products over flat `k × dim` buffers:
/// `out[r] = a_r · b_r`. Row `r` is computed by the same per-row kernel as
/// [`dot`], so the two agree bitwise.
#[inline]
pub fn dot_rows(a: &[f32], b: &[f32], dim: usize, out: &mut [f32]) {
    row_kernel_checks(a, b, dim, out);
    dispatch!(dot_rows(a, b, dim, out))
}

/// Per-row squared distances: `out[r] = ‖a_r − b_r‖²` (bitwise equal to
/// [`dist_sq`] per row).
#[inline]
pub fn dist_sq_rows(a: &[f32], b: &[f32], dim: usize, out: &mut [f32]) {
    row_kernel_checks(a, b, dim, out);
    dispatch!(dist_sq_rows(a, b, dim, out))
}

/// One-vs-rows dot products: `out[r] = x · b_r` (bitwise equal to [`dot`]
/// per row).
#[inline]
pub fn dot_one_rows(x: &[f32], b: &[f32], out: &mut [f32]) {
    one_rows_checks(x, b, out);
    dispatch!(dot_one_rows(x, b, out))
}

/// One-vs-rows squared distances: `out[r] = ‖x − b_r‖²` (bitwise equal to
/// [`dist_sq`] per row).
#[inline]
pub fn dist_sq_one_rows(x: &[f32], b: &[f32], out: &mut [f32]) {
    one_rows_checks(x, b, out);
    dispatch!(dist_sq_one_rows(x, b, out))
}

/// Fused multi-row axpy with one coefficient per row:
/// `y_r ← y_r + alpha[r] · x_r`. Rows with `alpha[r] == 0` are skipped
/// entirely (their `x` values are never read — they may be NaN).
#[inline]
pub fn axpy_rows(alpha: &[f32], x: &[f32], y: &mut [f32], dim: usize) {
    assert!(dim > 0, "row kernels need dim ≥ 1");
    check_same_len(x, y);
    assert_eq!(alpha.len() * dim, x.len(), "axpy_rows: alpha mismatch");
    dispatch!(axpy_rows(alpha, x, y, dim))
}

/// The fused three-output Euclidean triplet gradient over one facet row:
/// with `diff_p = u − p` and `diff_q = u − q` elementwise,
///
/// ```text
/// dp[i] =  wp2 · diff_p[i]
/// dq[i] =  wq2 · diff_q[i]
/// du[i] = −wp2 · diff_p[i] − wq2 · diff_q[i]
/// ```
///
/// One pass over the five buffers (this was the fused loop in
/// `mars-core::kernels`; it lives here so the batched trainer's hottest
/// Euclidean section rides the vectorized tier). **Overwrites** the three
/// outputs.
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn euclid_grad_row(
    wp2: f32,
    wq2: f32,
    u: &[f32],
    p: &[f32],
    q: &[f32],
    du: &mut [f32],
    dp: &mut [f32],
    dq: &mut [f32],
) {
    check_same_len(u, p);
    check_same_len(u, q);
    check_same_len(u, du);
    check_same_len(u, dp);
    check_same_len(u, dq);
    dispatch!(euclid_grad_row(wp2, wq2, u, p, q, du, dp, dq))
}

/// Norm floor of the fused step kernels' guards: a gradient, or a
/// retraction target `x + z`, shorter than this is treated as zero.
const STEP_NORM_FLOOR: f32 = 1e-12;

/// What the two gradient reductions of [`calibrated_rsgd_rows`] decide for
/// one row.
enum RowStep {
    /// `g·g` is NaN or infinite: leave the row alone and count it.
    NonFinite,
    /// Numerically zero gradient: the step is a clean no-op.
    Noop,
    /// Step along the tangent with this coefficient, `−η·(1 + xᵀg/‖g‖)`.
    Tangent(f32),
}

/// The scalar middle of the calibrated step, shared by every tier: guards,
/// `‖g‖`, and the calibration multiplier clamped to `[0, 2]`.
#[inline]
fn calibrated_row_step(gg: f32, xg: f32, lr: f32) -> RowStep {
    if !gg.is_finite() {
        return RowStep::NonFinite;
    }
    let gnorm = gg.sqrt();
    if gnorm <= STEP_NORM_FLOOR {
        return RowStep::Noop;
    }
    RowStep::Tangent(-lr * (1.0 + xg / gnorm).clamp(0.0, 2.0))
}

/// `1/‖x + z‖` from the squared norm, or `None` when the retraction target
/// is degenerate (shorter than the floor, or not finite) and the row must
/// stay where it is.
#[inline]
fn retraction_factor(nsq: f32) -> Option<f32> {
    let n = nsq.sqrt();
    (n > STEP_NORM_FLOOR && n.is_finite()).then(|| 1.0 / n)
}

/// The factor that brings a stepped row of squared norm `nsq` back into the
/// ball of radius `max_norm` (`1` inside it), or `None` for a non-finite
/// row.
#[inline]
fn clip_factor(nsq: f32, max_norm: f32) -> Option<f32> {
    if !nsq.is_finite() {
        return None;
    }
    let n = nsq.sqrt();
    Some(if n > max_norm { max_norm / n } else { 1.0 })
}

/// Fused calibrated Riemannian SGD step (the paper's Eq. 21) over every
/// `dim`-row of `x`, each a point on the unit sphere, with `g` holding the
/// matching ambient gradients:
///
/// ```text
/// x_r ← R( x_r − η·(1 + x_rᵀg_r/‖g_r‖) · (g_r − (x_rᵀg_r)·x_r) ),   R(m) = m/‖m‖
/// ```
///
/// One pass reduces `g·g` and `x·g` together, a second tangent-projects,
/// steps and accumulates `‖x + z‖²`, a third rescales — against eight
/// separately dispatched passes for the composed
/// `CalibratedRiemannianSgd::step`. **`g` is consumed as scratch** (a
/// stepped row's `g` holds the unnormalized `x + z` afterwards).
///
/// Degenerate rows are left exactly as they were: a zero gradient
/// (`‖g‖ ≤ 1e-12`) is a no-op, a retraction target with `‖x + z‖ ≤ 1e-12`
/// is not normalized, and a row whose gradient is not finite is skipped and
/// counted in the return value.
#[inline]
pub fn calibrated_rsgd_rows(x: &mut [f32], g: &mut [f32], dim: usize, lr: f32) -> usize {
    step_rows_checks(x, g, dim);
    dispatch!(calibrated_rsgd_rows(x, g, dim, lr))
}

/// Fused SGD step with the ball constraint over every `dim`-row of `x`:
/// `x_r ← clip(x_r − η·g_r)`, rescaling to `‖x_r‖ = max_norm` when the step
/// left the ball (MAR's Eq. 11 constraint). Two passes instead of the
/// composed `Sgd::step`'s axpy + norm + scale. **`g` is consumed as
/// scratch.** A row whose stepped value is not finite is left unchanged and
/// counted in the return value.
#[inline]
pub fn sgd_clip_rows(x: &mut [f32], g: &mut [f32], dim: usize, lr: f32, max_norm: f32) -> usize {
    step_rows_checks(x, g, dim);
    dispatch!(sgd_clip_rows(x, g, dim, lr, max_norm))
}

#[inline]
fn step_rows_checks(x: &[f32], g: &[f32], dim: usize) {
    assert!(dim > 0, "row kernels need dim ≥ 1");
    check_same_len(x, g);
    assert_eq!(x.len() % dim, 0, "step kernel: ragged buffer");
}

// Like `check_same_len`, the row-kernel shape checks are hard asserts: they
// stand between safe callers and the raw-pointer tier.
#[inline]
fn row_kernel_checks(a: &[f32], b: &[f32], dim: usize, out: &[f32]) {
    assert!(dim > 0, "row kernels need dim ≥ 1");
    check_same_len(a, b);
    assert_eq!(a.len() % dim, 0, "row kernel: ragged buffer");
    assert_eq!(out.len() * dim, a.len(), "row kernel: out length");
}

#[inline]
fn one_rows_checks(x: &[f32], b: &[f32], out: &[f32]) {
    assert!(!x.is_empty(), "one-vs-rows kernels need dim ≥ 1");
    assert_eq!(b.len() % x.len(), 0, "one-vs-rows kernel: ragged buffer");
    assert_eq!(out.len() * x.len(), b.len(), "one-vs-rows kernel: out");
}

/// One-vs-rows **int8** dot products — the quantized IVF cell scan's shape:
/// `out[r] = Σ_i x[i] · rows[r·dim + i]` with `dim = x.len()`, accumulated
/// in exact `i32` arithmetic.
///
/// Unlike the float reductions, integer addition is associative, so every
/// tier produces the **exact same** `i32` — the cross-tier tests demand
/// equality, not a tolerance. No overflow below `dim ≈ 2¹⁷` (each product
/// is ≤ 2¹⁴), far above any embedding dimension here.
#[inline]
pub fn dot_rows_i8(x: &[i8], rows: &[i8], out: &mut [i32]) {
    i8_rows_checks(x, rows, out);
    dispatch!(dot_rows_i8(x, rows, out))
}

/// One-vs-rows **int8** squared Euclidean distances:
/// `out[r] = Σ_i (x[i] − rows[r·dim + i])²` in exact `i32` arithmetic
/// (differences fit `i16`, squares fit `i32`; see [`dot_rows_i8`] for the
/// exactness contract shared by all tiers).
#[inline]
pub fn dist_sq_rows_i8(x: &[i8], rows: &[i8], out: &mut [i32]) {
    i8_rows_checks(x, rows, out);
    dispatch!(dist_sq_rows_i8(x, rows, out))
}

#[inline]
fn i8_rows_checks(x: &[i8], rows: &[i8], out: &[i32]) {
    assert!(!x.is_empty(), "int8 row kernels need dim ≥ 1");
    assert_eq!(rows.len() % x.len(), 0, "int8 row kernel: ragged buffer");
    assert_eq!(out.len() * x.len(), rows.len(), "int8 row kernel: out");
}

/// Vectorized splitmix64 block fill — the counter RNG's draw kernel:
/// `out[i] = mix64(base + (i + 1) · GOLDEN)`, the defining equation of
/// `mars_runtime::rng::CounterRng::fill_block`. All integer arithmetic, so
/// unlike the float reductions every tier is **bit-identical** — the
/// cross-tier tests demand equality, and the output is pinned to the
/// canonical splitmix64 golden vector (`base = 0` reproduces splitmix64
/// seeded with 0, first value `0xe220a8397b1dcdaf`).
///
/// The sampling pipeline consumes this through the runtime's fill hook:
/// call [`install_rng_kernel`] once and every
/// `CounterRng::fill_block` in the process runs here.
#[inline]
pub fn fill_splitmix64(base: u64, out: &mut [u64]) {
    dispatch!(fill_splitmix64(base, out))
}

/// Routes `mars_runtime::rng::CounterRng::fill_block` through
/// [`fill_splitmix64`] (idempotent; call it at any engine entry point).
/// Values are bit-identical to the scalar fallback by the cross-tier
/// contract above, so when this runs is a throughput decision only.
pub fn install_rng_kernel() {
    mars_runtime::rng::install_fill_block_kernel(fill_splitmix64);
}

/// The PR 2 reference kernels: strictly sequential scalar loops. Oracle
/// for the cross-tier agreement tests (`tests/simd.rs` here and
/// `mars-optim`'s `tests/fused_step.rs`) — the engine does not call these.
pub mod scalar {
    use super::RowStep;

    /// Sequential dot product.
    #[inline]
    pub fn dot(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    /// Sequential squared Euclidean distance.
    #[inline]
    pub fn dist_sq(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
    }

    /// Sequential `y ← y + alpha · x`.
    #[inline]
    pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi += alpha * xi;
        }
    }

    /// Per-row [`dot`] over a flat `k × dim` pair of buffers.
    pub fn dot_rows(a: &[f32], b: &[f32], dim: usize, out: &mut [f32]) {
        for (r, o) in out.iter_mut().enumerate() {
            *o = dot(&a[r * dim..(r + 1) * dim], &b[r * dim..(r + 1) * dim]);
        }
    }

    /// Per-row [`dist_sq`] over a flat `k × dim` pair of buffers.
    pub fn dist_sq_rows(a: &[f32], b: &[f32], dim: usize, out: &mut [f32]) {
        for (r, o) in out.iter_mut().enumerate() {
            *o = dist_sq(&a[r * dim..(r + 1) * dim], &b[r * dim..(r + 1) * dim]);
        }
    }

    /// Per-row axpy with one coefficient per row (zero rows skipped).
    pub fn axpy_rows(alpha: &[f32], x: &[f32], y: &mut [f32], dim: usize) {
        for (r, &a) in alpha.iter().enumerate() {
            if a != 0.0 {
                axpy(
                    a,
                    &x[r * dim..(r + 1) * dim],
                    &mut y[r * dim..(r + 1) * dim],
                );
            }
        }
    }

    /// One-vs-rows int8 dot products — the exact-`i32` oracle the other
    /// tiers must match bit-for-bit.
    pub fn dot_rows_i8(x: &[i8], rows: &[i8], out: &mut [i32]) {
        let dim = x.len();
        for (r, o) in out.iter_mut().enumerate() {
            let row = &rows[r * dim..(r + 1) * dim];
            *o = x.iter().zip(row).map(|(&a, &b)| a as i32 * b as i32).sum();
        }
    }

    /// One-vs-rows int8 squared Euclidean distances (exact `i32`).
    pub fn dist_sq_rows_i8(x: &[i8], rows: &[i8], out: &mut [i32]) {
        let dim = x.len();
        for (r, o) in out.iter_mut().enumerate() {
            let row = &rows[r * dim..(r + 1) * dim];
            *o = x
                .iter()
                .zip(row)
                .map(|(&a, &b)| {
                    let d = a as i32 - b as i32;
                    d * d
                })
                .sum();
        }
    }

    /// Sequential splitmix64 block fill — the reference loop (and the
    /// scalar fallback inside `CounterRng::fill_block` itself).
    pub fn fill_splitmix64(base: u64, out: &mut [u64]) {
        use mars_runtime::rng::{mix64, GOLDEN};
        for (i, o) in out.iter_mut().enumerate() {
            *o = mix64(base.wrapping_add((i as u64 + 1).wrapping_mul(GOLDEN)));
        }
    }

    /// Sequential calibrated Riemannian step per row (see
    /// [`super::calibrated_rsgd_rows`]).
    pub fn calibrated_rsgd_rows(x: &mut [f32], g: &mut [f32], dim: usize, lr: f32) -> usize {
        let mut skipped = 0;
        for (x, g) in x.chunks_exact_mut(dim).zip(g.chunks_exact_mut(dim)) {
            let xg = dot(x, g);
            let c = match super::calibrated_row_step(dot(g, g), xg, lr) {
                RowStep::NonFinite => {
                    skipped += 1;
                    continue;
                }
                RowStep::Noop => continue,
                RowStep::Tangent(c) => c,
            };
            let mut nsq = 0.0f32;
            for (gi, &xi) in g.iter_mut().zip(x.iter()) {
                let m = xi + c * (*gi - xg * xi);
                *gi = m;
                nsq += m * m;
            }
            if let Some(s) = super::retraction_factor(nsq) {
                for (xi, &mi) in x.iter_mut().zip(g.iter()) {
                    *xi = mi * s;
                }
            }
        }
        skipped
    }

    /// Sequential SGD + ball clip per row (see [`super::sgd_clip_rows`]).
    pub fn sgd_clip_rows(
        x: &mut [f32],
        g: &mut [f32],
        dim: usize,
        lr: f32,
        max_norm: f32,
    ) -> usize {
        let mut skipped = 0;
        for (x, g) in x.chunks_exact_mut(dim).zip(g.chunks_exact_mut(dim)) {
            let mut nsq = 0.0f32;
            for (gi, &xi) in g.iter_mut().zip(x.iter()) {
                let m = xi - lr * *gi;
                *gi = m;
                nsq += m * m;
            }
            match super::clip_factor(nsq, max_norm) {
                Some(s) => {
                    for (xi, &mi) in x.iter_mut().zip(g.iter()) {
                        *xi = mi * s;
                    }
                }
                None => skipped += 1,
            }
        }
        skipped
    }
}

/// Lane-chunked portable tier: plain Rust over an 8×`f32` accumulator
/// block, mirroring the AVX2 tier's summation order exactly (same chunking,
/// same horizontal-reduction tree, same sequential tail) so the two tiers
/// differ only by FMA contraction.
pub mod portable {
    use super::{RowStep, LANES};

    /// Folds the 8-lane accumulator in the AVX2 horizontal-reduction order:
    /// halves first (`l + l+4`), then pairwise.
    #[inline]
    fn hsum(acc: &[f32; LANES]) -> f32 {
        let h = [
            acc[0] + acc[4],
            acc[1] + acc[5],
            acc[2] + acc[6],
            acc[3] + acc[7],
        ];
        (h[0] + h[1]) + (h[2] + h[3])
    }

    /// Chunked dot product. The body iterates `[f32; LANES]` array views
    /// (via `chunks_exact` + `try_into`), so the lane loop carries no
    /// bounds checks and LLVM vectorizes it without reassociating.
    #[inline]
    pub fn dot(a: &[f32], b: &[f32]) -> f32 {
        let mut acc = [0.0f32; LANES];
        let mut chunks_a = a.chunks_exact(LANES);
        let mut chunks_b = b.chunks_exact(LANES);
        for (ca, cb) in (&mut chunks_a).zip(&mut chunks_b) {
            let ca: &[f32; LANES] = ca.try_into().unwrap();
            let cb: &[f32; LANES] = cb.try_into().unwrap();
            for l in 0..LANES {
                acc[l] += ca[l] * cb[l];
            }
        }
        let mut tail = 0.0f32;
        for (x, y) in chunks_a.remainder().iter().zip(chunks_b.remainder()) {
            tail += x * y;
        }
        hsum(&acc) + tail
    }

    /// Chunked squared Euclidean distance.
    #[inline]
    pub fn dist_sq(a: &[f32], b: &[f32]) -> f32 {
        let mut acc = [0.0f32; LANES];
        let mut chunks_a = a.chunks_exact(LANES);
        let mut chunks_b = b.chunks_exact(LANES);
        for (ca, cb) in (&mut chunks_a).zip(&mut chunks_b) {
            let ca: &[f32; LANES] = ca.try_into().unwrap();
            let cb: &[f32; LANES] = cb.try_into().unwrap();
            for l in 0..LANES {
                let d = ca[l] - cb[l];
                acc[l] += d * d;
            }
        }
        let mut tail = 0.0f32;
        for (x, y) in chunks_a.remainder().iter().zip(chunks_b.remainder()) {
            let d = x - y;
            tail += d * d;
        }
        hsum(&acc) + tail
    }

    /// Elementwise `y ← y + alpha · x` (no reduction, so no ordering
    /// subtleties; LLVM vectorizes the loop as-is).
    #[inline]
    pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi += alpha * xi;
        }
    }

    /// Per-row [`dot`].
    pub fn dot_rows(a: &[f32], b: &[f32], dim: usize, out: &mut [f32]) {
        for (r, o) in out.iter_mut().enumerate() {
            *o = dot(&a[r * dim..(r + 1) * dim], &b[r * dim..(r + 1) * dim]);
        }
    }

    /// Per-row [`dist_sq`].
    pub fn dist_sq_rows(a: &[f32], b: &[f32], dim: usize, out: &mut [f32]) {
        for (r, o) in out.iter_mut().enumerate() {
            *o = dist_sq(&a[r * dim..(r + 1) * dim], &b[r * dim..(r + 1) * dim]);
        }
    }

    /// One-vs-rows [`dot`].
    pub fn dot_one_rows(x: &[f32], b: &[f32], out: &mut [f32]) {
        let dim = x.len();
        for (r, o) in out.iter_mut().enumerate() {
            *o = dot(x, &b[r * dim..(r + 1) * dim]);
        }
    }

    /// One-vs-rows [`dist_sq`].
    pub fn dist_sq_one_rows(x: &[f32], b: &[f32], out: &mut [f32]) {
        let dim = x.len();
        for (r, o) in out.iter_mut().enumerate() {
            *o = dist_sq(x, &b[r * dim..(r + 1) * dim]);
        }
    }

    /// Per-row axpy with one coefficient per row (zero rows skipped).
    pub fn axpy_rows(alpha: &[f32], x: &[f32], y: &mut [f32], dim: usize) {
        for (r, &a) in alpha.iter().enumerate() {
            if a != 0.0 {
                axpy(
                    a,
                    &x[r * dim..(r + 1) * dim],
                    &mut y[r * dim..(r + 1) * dim],
                );
            }
        }
    }

    /// One-vs-rows int8 dot products. Integer addition is associative, so
    /// this plain loop (which LLVM auto-vectorizes) is bit-equal to every
    /// other tier by construction — no chunk-order mirroring needed.
    pub fn dot_rows_i8(x: &[i8], rows: &[i8], out: &mut [i32]) {
        let dim = x.len();
        for (r, o) in out.iter_mut().enumerate() {
            let row = &rows[r * dim..(r + 1) * dim];
            let mut acc = 0i32;
            for i in 0..dim {
                acc += x[i] as i32 * row[i] as i32;
            }
            *o = acc;
        }
    }

    /// One-vs-rows int8 squared distances (exact `i32`, any order).
    pub fn dist_sq_rows_i8(x: &[i8], rows: &[i8], out: &mut [i32]) {
        let dim = x.len();
        for (r, o) in out.iter_mut().enumerate() {
            let row = &rows[r * dim..(r + 1) * dim];
            let mut acc = 0i32;
            for i in 0..dim {
                let d = x[i] as i32 - row[i] as i32;
                acc += d * d;
            }
            *o = acc;
        }
    }

    /// 8-lane chunked splitmix64 block fill. Integer arithmetic is exact
    /// in any order, so this is bit-identical to the scalar tier by
    /// construction; the per-lane counters carry no loop dependency, which
    /// lets LLVM vectorize both the counter update and the two
    /// multiply-xor-shift rounds of the finalizer.
    pub fn fill_splitmix64(base: u64, out: &mut [u64]) {
        use mars_runtime::rng::{mix64, GOLDEN};
        let mut chunks = out.chunks_exact_mut(LANES);
        let mut idx = 0u64;
        for chunk in &mut chunks {
            let chunk: &mut [u64; LANES] = chunk.try_into().unwrap();
            for (l, o) in chunk.iter_mut().enumerate() {
                *o = mix64(base.wrapping_add((idx + l as u64 + 1).wrapping_mul(GOLDEN)));
            }
            idx += LANES as u64;
        }
        for (l, o) in chunks.into_remainder().iter_mut().enumerate() {
            *o = mix64(base.wrapping_add((idx + l as u64 + 1).wrapping_mul(GOLDEN)));
        }
    }

    /// Fused three-output Euclidean triplet gradient (see
    /// [`super::euclid_grad_row`]).
    #[allow(clippy::too_many_arguments)]
    pub fn euclid_grad_row(
        wp2: f32,
        wq2: f32,
        u: &[f32],
        p: &[f32],
        q: &[f32],
        du: &mut [f32],
        dp: &mut [f32],
        dq: &mut [f32],
    ) {
        for i in 0..u.len() {
            let gp = wp2 * (u[i] - p[i]);
            let gq = wq2 * (u[i] - q[i]);
            du[i] = -(gp + gq);
            dp[i] = gp;
            dq[i] = gq;
        }
    }

    /// One elementwise pass `g[i] ← m(x[i], g[i])` that also returns `Σ m²`
    /// in the chunked summation order — the shared shape of both step
    /// kernels' middle pass.
    #[inline]
    fn stage_row(x: &[f32], g: &mut [f32], m: impl Fn(f32, f32) -> f32) -> f32 {
        let mut acc = [0.0f32; LANES];
        let mut chunks_x = x.chunks_exact(LANES);
        let mut chunks_g = g.chunks_exact_mut(LANES);
        for (cx, cg) in (&mut chunks_x).zip(&mut chunks_g) {
            let cx: &[f32; LANES] = cx.try_into().unwrap();
            let cg: &mut [f32; LANES] = cg.try_into().unwrap();
            for l in 0..LANES {
                cg[l] = m(cx[l], cg[l]);
                acc[l] += cg[l] * cg[l];
            }
        }
        let mut tail = 0.0f32;
        for (xi, gi) in chunks_x.remainder().iter().zip(chunks_g.into_remainder()) {
            *gi = m(*xi, *gi);
            tail += *gi * *gi;
        }
        hsum(&acc) + tail
    }

    /// Chunked calibrated Riemannian step per row (see
    /// [`super::calibrated_rsgd_rows`]); `g·g` and `x·g` share one pass.
    pub fn calibrated_rsgd_rows(x: &mut [f32], g: &mut [f32], dim: usize, lr: f32) -> usize {
        let mut skipped = 0;
        for (x, g) in x.chunks_exact_mut(dim).zip(g.chunks_exact_mut(dim)) {
            let (mut acc_gg, mut acc_xg) = ([0.0f32; LANES], [0.0f32; LANES]);
            let mut chunks_x = x.chunks_exact(LANES);
            let mut chunks_g = g.chunks_exact(LANES);
            for (cx, cg) in (&mut chunks_x).zip(&mut chunks_g) {
                let cx: &[f32; LANES] = cx.try_into().unwrap();
                let cg: &[f32; LANES] = cg.try_into().unwrap();
                for l in 0..LANES {
                    acc_gg[l] += cg[l] * cg[l];
                    acc_xg[l] += cx[l] * cg[l];
                }
            }
            let (mut tail_gg, mut tail_xg) = (0.0f32, 0.0f32);
            for (xi, gi) in chunks_x.remainder().iter().zip(chunks_g.remainder()) {
                tail_gg += gi * gi;
                tail_xg += xi * gi;
            }
            let xg = hsum(&acc_xg) + tail_xg;
            let c = match super::calibrated_row_step(hsum(&acc_gg) + tail_gg, xg, lr) {
                RowStep::NonFinite => {
                    skipped += 1;
                    continue;
                }
                RowStep::Noop => continue,
                RowStep::Tangent(c) => c,
            };
            let nsq = stage_row(x, g, |xi, gi| xi + c * (gi - xg * xi));
            if let Some(s) = super::retraction_factor(nsq) {
                for (xi, &mi) in x.iter_mut().zip(g.iter()) {
                    *xi = mi * s;
                }
            }
        }
        skipped
    }

    /// Chunked SGD + ball clip per row (see [`super::sgd_clip_rows`]).
    pub fn sgd_clip_rows(
        x: &mut [f32],
        g: &mut [f32],
        dim: usize,
        lr: f32,
        max_norm: f32,
    ) -> usize {
        let mut skipped = 0;
        for (x, g) in x.chunks_exact_mut(dim).zip(g.chunks_exact_mut(dim)) {
            let nsq = stage_row(x, g, |xi, gi| xi - lr * gi);
            match super::clip_factor(nsq, max_norm) {
                Some(s) => {
                    for (xi, &mi) in x.iter_mut().zip(g.iter()) {
                        *xi = mi * s;
                    }
                }
                None => skipped += 1,
            }
        }
        skipped
    }
}

/// Hand-vectorized x86-64 tier: 256-bit loads, FMA, one 8-lane accumulator
/// per reduction. Every function carries
/// `#[target_feature(enable = "avx2,fma")]` and is therefore `unsafe` to
/// call — the dispatcher (and only the dispatcher, plus tests/benches that
/// check [`avx2::available`] first) upholds the contract.
#[cfg(target_arch = "x86_64")]
pub mod avx2 {
    use super::{RowStep, LANES};
    use core::arch::x86_64::*;

    /// Whether this host supports the AVX2 + FMA tier.
    pub fn available() -> bool {
        std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma")
    }

    /// Horizontal sum of one 256-bit accumulator: halves first
    /// (`l + l+4`), then pairwise — the tree [`super::portable`] mirrors.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn hsum256(v: __m256) -> f32 {
        let lo = _mm256_castps256_ps128(v);
        let hi = _mm256_extractf128_ps(v, 1);
        let halves = _mm_add_ps(lo, hi); // [l0+l4, l1+l5, l2+l6, l3+l7]
        let odd = _mm_movehdup_ps(halves); // [h1, h1, h3, h3]
        let pairs = _mm_add_ps(halves, odd); // [h0+h1, _, h2+h3, _]
        let upper = _mm_movehl_ps(pairs, pairs);
        _mm_cvtss_f32(_mm_add_ss(pairs, upper))
    }

    /// Chunked dot product.
    ///
    /// # Safety
    /// Requires AVX2 + FMA (check [`available`]). Slices must be equal
    /// length.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
        // SAFETY: the caller upholds the `# Safety` contract above — the
        // required target features are enabled and the length preconditions
        // hold, so every lane load/store below stays in bounds.
        unsafe {
            debug_assert_eq!(a.len(), b.len());
            let n = a.len();
            let body = n / LANES * LANES;
            let (pa, pb) = (a.as_ptr(), b.as_ptr());
            let mut acc = _mm256_setzero_ps();
            let mut i = 0;
            while i < body {
                acc = _mm256_fmadd_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)), acc);
                i += LANES;
            }
            let mut tail = 0.0f32;
            while i < n {
                tail += *pa.add(i) * *pb.add(i);
                i += 1;
            }
            hsum256(acc) + tail
        }
    }

    /// Chunked squared Euclidean distance.
    ///
    /// # Safety
    /// Requires AVX2 + FMA (check [`available`]). Slices must be equal
    /// length.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn dist_sq(a: &[f32], b: &[f32]) -> f32 {
        // SAFETY: the caller upholds the `# Safety` contract above — the
        // required target features are enabled and the length preconditions
        // hold, so every lane load/store below stays in bounds.
        unsafe {
            debug_assert_eq!(a.len(), b.len());
            let n = a.len();
            let body = n / LANES * LANES;
            let (pa, pb) = (a.as_ptr(), b.as_ptr());
            let mut acc = _mm256_setzero_ps();
            let mut i = 0;
            while i < body {
                let d = _mm256_sub_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)));
                acc = _mm256_fmadd_ps(d, d, acc);
                i += LANES;
            }
            let mut tail = 0.0f32;
            while i < n {
                let d = *pa.add(i) - *pb.add(i);
                tail += d * d;
                i += 1;
            }
            hsum256(acc) + tail
        }
    }

    /// `y ← y + alpha · x` with FMA.
    ///
    /// # Safety
    /// Requires AVX2 + FMA (check [`available`]). Slices must be equal
    /// length.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
        // SAFETY: the caller upholds the `# Safety` contract above — the
        // required target features are enabled and the length preconditions
        // hold, so every lane load/store below stays in bounds.
        unsafe {
            debug_assert_eq!(x.len(), y.len());
            let n = x.len();
            let body = n / LANES * LANES;
            let va = _mm256_set1_ps(alpha);
            let px = x.as_ptr();
            let py = y.as_mut_ptr();
            let mut i = 0;
            while i < body {
                let acc =
                    _mm256_fmadd_ps(va, _mm256_loadu_ps(px.add(i)), _mm256_loadu_ps(py.add(i)));
                _mm256_storeu_ps(py.add(i), acc);
                i += LANES;
            }
            while i < n {
                *py.add(i) += alpha * *px.add(i);
                i += 1;
            }
        }
    }

    /// Per-row [`dot`].
    ///
    /// # Safety
    /// Requires AVX2 + FMA (check [`available`]); buffers must hold
    /// `out.len()` rows of `dim`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn dot_rows(a: &[f32], b: &[f32], dim: usize, out: &mut [f32]) {
        // SAFETY: the caller upholds the `# Safety` contract above — the
        // required target features are enabled and the length preconditions
        // hold, so every lane load/store below stays in bounds.
        unsafe {
            for (r, o) in out.iter_mut().enumerate() {
                *o = dot(&a[r * dim..(r + 1) * dim], &b[r * dim..(r + 1) * dim]);
            }
        }
    }

    /// Per-row [`dist_sq`].
    ///
    /// # Safety
    /// Requires AVX2 + FMA (check [`available`]); buffers must hold
    /// `out.len()` rows of `dim`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn dist_sq_rows(a: &[f32], b: &[f32], dim: usize, out: &mut [f32]) {
        // SAFETY: the caller upholds the `# Safety` contract above — the
        // required target features are enabled and the length preconditions
        // hold, so every lane load/store below stays in bounds.
        unsafe {
            for (r, o) in out.iter_mut().enumerate() {
                *o = dist_sq(&a[r * dim..(r + 1) * dim], &b[r * dim..(r + 1) * dim]);
            }
        }
    }

    /// One-vs-rows [`dot`].
    ///
    /// # Safety
    /// Requires AVX2 + FMA (check [`available`]); `b` must hold
    /// `out.len()` rows of `x.len()`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn dot_one_rows(x: &[f32], b: &[f32], out: &mut [f32]) {
        // SAFETY: the caller upholds the `# Safety` contract above — the
        // required target features are enabled and the length preconditions
        // hold, so every lane load/store below stays in bounds.
        unsafe {
            let dim = x.len();
            for (r, o) in out.iter_mut().enumerate() {
                *o = dot(x, &b[r * dim..(r + 1) * dim]);
            }
        }
    }

    /// One-vs-rows [`dist_sq`].
    ///
    /// # Safety
    /// Requires AVX2 + FMA (check [`available`]); `b` must hold
    /// `out.len()` rows of `x.len()`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn dist_sq_one_rows(x: &[f32], b: &[f32], out: &mut [f32]) {
        // SAFETY: the caller upholds the `# Safety` contract above — the
        // required target features are enabled and the length preconditions
        // hold, so every lane load/store below stays in bounds.
        unsafe {
            let dim = x.len();
            for (r, o) in out.iter_mut().enumerate() {
                *o = dist_sq(x, &b[r * dim..(r + 1) * dim]);
            }
        }
    }

    /// Per-row axpy with one coefficient per row (zero rows skipped, their
    /// `x` values never read).
    ///
    /// # Safety
    /// Requires AVX2 + FMA (check [`available`]); buffers must hold
    /// `alpha.len()` rows of `dim`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn axpy_rows(alpha: &[f32], x: &[f32], y: &mut [f32], dim: usize) {
        // SAFETY: the caller upholds the `# Safety` contract above — the
        // required target features are enabled and the length preconditions
        // hold, so every lane load/store below stays in bounds.
        unsafe {
            for (r, &a) in alpha.iter().enumerate() {
                if a != 0.0 {
                    axpy(
                        a,
                        &x[r * dim..(r + 1) * dim],
                        &mut y[r * dim..(r + 1) * dim],
                    );
                }
            }
        }
    }

    /// Fused three-output Euclidean triplet gradient (see
    /// [`super::euclid_grad_row`]). The negation is a sign-bit flip, so
    /// `du = −(dp + dq)` matches the scalar `−gp − gq` bit-for-bit.
    ///
    /// # Safety
    /// Requires AVX2 + FMA (check [`available`]); all six slices must be
    /// equal length.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn euclid_grad_row(
        wp2: f32,
        wq2: f32,
        u: &[f32],
        p: &[f32],
        q: &[f32],
        du: &mut [f32],
        dp: &mut [f32],
        dq: &mut [f32],
    ) {
        // SAFETY: the caller upholds the `# Safety` contract above — the
        // required target features are enabled and the length preconditions
        // hold, so every lane load/store below stays in bounds.
        unsafe {
            let n = u.len();
            let body = n / LANES * LANES;
            let vwp = _mm256_set1_ps(wp2);
            let vwq = _mm256_set1_ps(wq2);
            let sign = _mm256_set1_ps(-0.0);
            let (pu, pp, pq) = (u.as_ptr(), p.as_ptr(), q.as_ptr());
            let (pdu, pdp, pdq) = (du.as_mut_ptr(), dp.as_mut_ptr(), dq.as_mut_ptr());
            let mut i = 0;
            while i < body {
                let vu = _mm256_loadu_ps(pu.add(i));
                let gp = _mm256_mul_ps(vwp, _mm256_sub_ps(vu, _mm256_loadu_ps(pp.add(i))));
                let gq = _mm256_mul_ps(vwq, _mm256_sub_ps(vu, _mm256_loadu_ps(pq.add(i))));
                _mm256_storeu_ps(pdp.add(i), gp);
                _mm256_storeu_ps(pdq.add(i), gq);
                _mm256_storeu_ps(pdu.add(i), _mm256_xor_ps(_mm256_add_ps(gp, gq), sign));
                i += LANES;
            }
            while i < n {
                let gp = wp2 * (*pu.add(i) - *pp.add(i));
                let gq = wq2 * (*pu.add(i) - *pq.add(i));
                *pdp.add(i) = gp;
                *pdq.add(i) = gq;
                *pdu.add(i) = -(gp + gq);
                i += 1;
            }
        }
    }

    /// `x ← g · s` elementwise — the last pass of both step kernels (the
    /// retraction's `1/‖x + z‖`, SGD's clip factor).
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn scaled_copy(x: &mut [f32], g: &[f32], s: f32) {
        let n = x.len().min(g.len());
        let body = n / LANES * LANES;
        let vs = _mm256_set1_ps(s);
        let (px, pg) = (x.as_mut_ptr(), g.as_ptr());
        // SAFETY: every access is at an index below `n`, the shorter of
        // the two slices; the body loop reads and writes whole 8-lane
        // blocks ending at `body ≤ n`.
        unsafe {
            let mut i = 0;
            while i < body {
                _mm256_storeu_ps(px.add(i), _mm256_mul_ps(_mm256_loadu_ps(pg.add(i)), vs));
                i += LANES;
            }
            while i < n {
                *px.add(i) = *pg.add(i) * s;
                i += 1;
            }
        }
    }

    /// Fused calibrated Riemannian step per row (see
    /// [`super::calibrated_rsgd_rows`]): `g·g` and `x·g` in one pass, the
    /// tangent step with FMA, one scaling pass for the retraction.
    ///
    /// # Safety
    /// Requires AVX2 + FMA (check [`available`]); `x` and `g` must be equal
    /// length, a whole number of `dim`-rows.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn calibrated_rsgd_rows(x: &mut [f32], g: &mut [f32], dim: usize, lr: f32) -> usize {
        let body = dim / LANES * LANES;
        let mut skipped = 0;
        for (x, g) in x.chunks_exact_mut(dim).zip(g.chunks_exact_mut(dim)) {
            let (px, pg) = (x.as_mut_ptr(), g.as_mut_ptr());
            // SAFETY: `chunks_exact_mut` hands out rows of exactly `dim`
            // elements, every access below is at an index `< dim`, and the
            // caller upholds the target-feature contract.
            unsafe {
                let mut acc_gg = _mm256_setzero_ps();
                let mut acc_xg = _mm256_setzero_ps();
                let mut i = 0;
                while i < body {
                    let vg = _mm256_loadu_ps(pg.add(i));
                    acc_gg = _mm256_fmadd_ps(vg, vg, acc_gg);
                    acc_xg = _mm256_fmadd_ps(_mm256_loadu_ps(px.add(i)), vg, acc_xg);
                    i += LANES;
                }
                let (mut tail_gg, mut tail_xg) = (0.0f32, 0.0f32);
                while i < dim {
                    tail_gg += *pg.add(i) * *pg.add(i);
                    tail_xg += *px.add(i) * *pg.add(i);
                    i += 1;
                }
                let xg = hsum256(acc_xg) + tail_xg;
                let c = match super::calibrated_row_step(hsum256(acc_gg) + tail_gg, xg, lr) {
                    RowStep::NonFinite => {
                        skipped += 1;
                        continue;
                    }
                    RowStep::Noop => continue,
                    RowStep::Tangent(c) => c,
                };
                // m = x + c·(g − xg·x), staged in g; ‖m‖² on the way.
                let (vxg, vc) = (_mm256_set1_ps(xg), _mm256_set1_ps(c));
                let mut acc = _mm256_setzero_ps();
                let mut i = 0;
                while i < body {
                    let vx = _mm256_loadu_ps(px.add(i));
                    let tangent = _mm256_fnmadd_ps(vxg, vx, _mm256_loadu_ps(pg.add(i)));
                    let m = _mm256_fmadd_ps(vc, tangent, vx);
                    _mm256_storeu_ps(pg.add(i), m);
                    acc = _mm256_fmadd_ps(m, m, acc);
                    i += LANES;
                }
                let mut tail = 0.0f32;
                while i < dim {
                    let xi = *px.add(i);
                    let m = xi + c * (*pg.add(i) - xg * xi);
                    *pg.add(i) = m;
                    tail += m * m;
                    i += 1;
                }
                if let Some(s) = super::retraction_factor(hsum256(acc) + tail) {
                    scaled_copy(x, g, s);
                }
            }
        }
        skipped
    }

    /// Fused SGD + ball clip per row (see [`super::sgd_clip_rows`]).
    ///
    /// # Safety
    /// Requires AVX2 + FMA (check [`available`]); `x` and `g` must be equal
    /// length, a whole number of `dim`-rows.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn sgd_clip_rows(
        x: &mut [f32],
        g: &mut [f32],
        dim: usize,
        lr: f32,
        max_norm: f32,
    ) -> usize {
        let body = dim / LANES * LANES;
        let vlr = _mm256_set1_ps(lr);
        let mut skipped = 0;
        for (x, g) in x.chunks_exact_mut(dim).zip(g.chunks_exact_mut(dim)) {
            let (px, pg) = (x.as_mut_ptr(), g.as_mut_ptr());
            // SAFETY: `chunks_exact_mut` hands out rows of exactly `dim`
            // elements, every access below is at an index `< dim`, and the
            // caller upholds the target-feature contract.
            let nsq = unsafe {
                let mut acc = _mm256_setzero_ps();
                let mut i = 0;
                while i < body {
                    let m = _mm256_fnmadd_ps(
                        vlr,
                        _mm256_loadu_ps(pg.add(i)),
                        _mm256_loadu_ps(px.add(i)),
                    );
                    _mm256_storeu_ps(pg.add(i), m);
                    acc = _mm256_fmadd_ps(m, m, acc);
                    i += LANES;
                }
                let mut tail = 0.0f32;
                while i < dim {
                    let m = *px.add(i) - lr * *pg.add(i);
                    *pg.add(i) = m;
                    tail += m * m;
                    i += 1;
                }
                hsum256(acc) + tail
            };
            match super::clip_factor(nsq, max_norm) {
                Some(s) => scaled_copy(x, g, s),
                None => skipped += 1,
            }
        }
        skipped
    }

    /// Bytes consumed per int8 loop iteration: one 128-bit load widened to
    /// sixteen `i16` lanes.
    const I8_STEP: usize = 16;

    /// Horizontal sum of a 256-bit `i32×8` accumulator. Order is
    /// irrelevant: integer addition is exact.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn hsum256_i32(v: __m256i) -> i32 {
        let s = _mm_add_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
        let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b01_00_11_10));
        let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b00_00_00_01));
        _mm_cvtsi128_si32(s)
    }

    /// One-vs-rows int8 dot products: widen sixteen `i8` to `i16`
    /// (`cvtepi8_epi16`), multiply-add adjacent pairs into `i32`
    /// (`madd_epi16`), accumulate. Products are ≤ 2¹⁴ so the pairwise adds
    /// and the `i32` accumulator are exact for any realistic `dim`; the
    /// result is bit-equal to the scalar tier.
    ///
    /// # Safety
    /// Requires AVX2 (check [`available`]); `rows` must hold `out.len()`
    /// rows of `x.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_rows_i8(x: &[i8], rows: &[i8], out: &mut [i32]) {
        // SAFETY: the caller upholds the `# Safety` contract above — the
        // required target features are enabled and the length preconditions
        // hold, so every lane load/store below stays in bounds.
        unsafe {
            let dim = x.len();
            let body = dim / I8_STEP * I8_STEP;
            let px = x.as_ptr();
            for (r, o) in out.iter_mut().enumerate() {
                let pr = rows.as_ptr().add(r * dim);
                let mut acc = _mm256_setzero_si256();
                let mut i = 0;
                while i < body {
                    let vx = _mm256_cvtepi8_epi16(_mm_loadu_si128(px.add(i).cast()));
                    let vr = _mm256_cvtepi8_epi16(_mm_loadu_si128(pr.add(i).cast()));
                    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(vx, vr));
                    i += I8_STEP;
                }
                let mut sum = hsum256_i32(acc);
                while i < dim {
                    sum += *px.add(i) as i32 * *pr.add(i) as i32;
                    i += 1;
                }
                *o = sum;
            }
        }
    }

    /// Low 64 bits of a per-lane 64×64 multiply. AVX2 has no 64-bit
    /// `mullo`, so compose it from 32×32→64 partial products
    /// (`mul_epu32` reads the even 32-bit lanes of each 64-bit lane):
    /// `lo(a·b) = a_lo·b_lo + ((a_lo·b_hi + a_hi·b_lo) << 32)` — the high
    /// cross-product bits overflow past bit 63 and drop, exactly like
    /// `u64::wrapping_mul`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn mullo64(a: __m256i, b: __m256i) -> __m256i {
        let a_hi = _mm256_srli_epi64(a, 32);
        let b_hi = _mm256_srli_epi64(b, 32);
        let low = _mm256_mul_epu32(a, b);
        let cross = _mm256_add_epi64(_mm256_mul_epu32(a_hi, b), _mm256_mul_epu32(a, b_hi));
        _mm256_add_epi64(low, _mm256_slli_epi64(cross, 32))
    }

    /// The splitmix64 finalizer over four 64-bit lanes: two
    /// xor-shift-multiply rounds plus a final xor-shift, each lane
    /// bit-identical to `mars_runtime::rng::mix64`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn mix64x4(mut z: __m256i) -> __m256i {
        let m1 = _mm256_set1_epi64x(0xBF58_476D_1CE4_E5B9_u64 as i64);
        let m2 = _mm256_set1_epi64x(0x94D0_49BB_1331_11EB_u64 as i64);
        z = _mm256_xor_si256(z, _mm256_srli_epi64(z, 30));
        z = mullo64(z, m1);
        z = _mm256_xor_si256(z, _mm256_srli_epi64(z, 27));
        z = mullo64(z, m2);
        _mm256_xor_si256(z, _mm256_srli_epi64(z, 31))
    }

    /// 8-wide splitmix64 block fill: two 4-lane counter vectors advance by
    /// `8 · GOLDEN` per iteration (the multiply in `(i+1)·GOLDEN` unrolls
    /// into a running add — multiplication distributes over the counter),
    /// and each gets the vectorized finalizer. Integer ops are exact, so
    /// the output is bit-identical to the scalar tier.
    ///
    /// # Safety
    /// Requires AVX2 (check [`available`]).
    #[target_feature(enable = "avx2")]
    pub unsafe fn fill_splitmix64(base: u64, out: &mut [u64]) {
        // SAFETY: the caller upholds the `# Safety` contract above — the
        // required target features are enabled and the length preconditions
        // hold, so every lane load/store below stays in bounds.
        unsafe {
            use mars_runtime::rng::{mix64, GOLDEN};
            const STEP: usize = 8;
            let n = out.len();
            let body = n / STEP * STEP;
            let po = out.as_mut_ptr();
            // Lane counters for i = 0..4 and 4..8, advanced by 8·G per step.
            // Setup is one broadcast plus adds of compile-time offset vectors
            // (k·G for k = 1..=8) — cheaper than eight scalar `base + k·G`
            // computes funneled through lane inserts, which matters because the
            // sampling pipeline calls this on fills as short as one block.
            const G: u64 = GOLDEN;
            let b = _mm256_set1_epi64x(base as i64);
            let off_lo = _mm256_setr_epi64x(
                G as i64,
                G.wrapping_mul(2) as i64,
                G.wrapping_mul(3) as i64,
                G.wrapping_mul(4) as i64,
            );
            let off_hi = _mm256_setr_epi64x(
                G.wrapping_mul(5) as i64,
                G.wrapping_mul(6) as i64,
                G.wrapping_mul(7) as i64,
                G.wrapping_mul(8) as i64,
            );
            let mut ctr_lo = _mm256_add_epi64(b, off_lo);
            let mut ctr_hi = _mm256_add_epi64(b, off_hi);
            let step = _mm256_set1_epi64x(GOLDEN.wrapping_mul(STEP as u64) as i64);
            let mut i = 0;
            while i < body {
                _mm256_storeu_si256(po.add(i).cast(), mix64x4(ctr_lo));
                _mm256_storeu_si256(po.add(i + 4).cast(), mix64x4(ctr_hi));
                ctr_lo = _mm256_add_epi64(ctr_lo, step);
                ctr_hi = _mm256_add_epi64(ctr_hi, step);
                i += STEP;
            }
            while i < n {
                *po.add(i) = mix64(base.wrapping_add((i as u64 + 1).wrapping_mul(GOLDEN)));
                i += 1;
            }
        }
    }

    /// One-vs-rows int8 squared distances: widen, subtract in `i16`
    /// (differences fit: |d| ≤ 255), then `madd_epi16(d, d)` squares and
    /// pair-sums into `i32` (each pair ≤ 2·255² < 2³¹). Exact, bit-equal to
    /// the scalar tier.
    ///
    /// # Safety
    /// Requires AVX2 (check [`available`]); `rows` must hold `out.len()`
    /// rows of `x.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dist_sq_rows_i8(x: &[i8], rows: &[i8], out: &mut [i32]) {
        // SAFETY: the caller upholds the `# Safety` contract above — the
        // required target features are enabled and the length preconditions
        // hold, so every lane load/store below stays in bounds.
        unsafe {
            let dim = x.len();
            let body = dim / I8_STEP * I8_STEP;
            let px = x.as_ptr();
            for (r, o) in out.iter_mut().enumerate() {
                let pr = rows.as_ptr().add(r * dim);
                let mut acc = _mm256_setzero_si256();
                let mut i = 0;
                while i < body {
                    let vx = _mm256_cvtepi8_epi16(_mm_loadu_si128(px.add(i).cast()));
                    let vr = _mm256_cvtepi8_epi16(_mm_loadu_si128(pr.add(i).cast()));
                    let d = _mm256_sub_epi16(vx, vr);
                    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(d, d));
                    i += I8_STEP;
                }
                let mut sum = hsum256_i32(acc);
                while i < dim {
                    let d = *px.add(i) as i32 - *pr.add(i) as i32;
                    sum += d * d;
                    i += 1;
                }
                *o = sum;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_is_stable_across_calls() {
        let first = active_path();
        for _ in 0..10 {
            assert_eq!(active_path(), first);
        }
        #[cfg(target_arch = "x86_64")]
        assert_eq!(first == Path::Avx2Fma, avx2::available());
    }

    #[test]
    fn empty_and_tail_only_inputs() {
        assert_eq!(dot(&[], &[]), 0.0);
        assert_eq!(dist_sq(&[], &[]), 0.0);
        assert_eq!(dot(&[2.0, 3.0], &[4.0, 5.0]), 23.0);
        assert_eq!(dist_sq(&[1.0], &[4.0]), 9.0);
        let mut y = vec![1.0f32; 3];
        axpy(2.0, &[1.0, 2.0, 3.0], &mut y);
        assert_eq!(y, vec![3.0, 5.0, 7.0]);
    }

    #[test]
    fn dispatched_reductions_match_scalar_within_tolerance() {
        // Chunking reorders the sum, so compare against the sequential
        // oracle with a relative tolerance.
        for n in [1usize, 7, 8, 9, 31, 32, 64, 67] {
            let a: Vec<f32> = (0..n)
                .map(|i| ((i * 37 + 11) % 23) as f32 * 0.37 - 3.0)
                .collect();
            let b: Vec<f32> = (0..n)
                .map(|i| ((i * 17 + 5) % 19) as f32 * 0.29 - 2.0)
                .collect();
            let (d0, d1) = (scalar::dot(&a, &b), dot(&a, &b));
            assert!((d0 - d1).abs() <= 1e-4 * d0.abs().max(1.0), "dot at n={n}");
            let (s0, s1) = (scalar::dist_sq(&a, &b), dist_sq(&a, &b));
            assert!(
                (s0 - s1).abs() <= 1e-4 * s0.abs().max(1.0),
                "dist_sq at n={n}"
            );
        }
    }

    #[test]
    fn row_kernels_agree_with_per_row_calls_bitwise() {
        let dim = 13;
        let k = 5;
        let a: Vec<f32> = (0..k * dim).map(|i| (i as f32 * 0.3).sin()).collect();
        let b: Vec<f32> = (0..k * dim).map(|i| (i as f32 * 0.7).cos()).collect();
        let mut out = vec![0.0; k];
        dot_rows(&a, &b, dim, &mut out);
        for r in 0..k {
            let per_row = dot(&a[r * dim..(r + 1) * dim], &b[r * dim..(r + 1) * dim]);
            assert_eq!(out[r].to_bits(), per_row.to_bits(), "dot row {r}");
        }
        dist_sq_rows(&a, &b, dim, &mut out);
        for r in 0..k {
            let per_row = dist_sq(&a[r * dim..(r + 1) * dim], &b[r * dim..(r + 1) * dim]);
            assert_eq!(out[r].to_bits(), per_row.to_bits(), "dist row {r}");
        }
        let x = &a[..dim];
        dot_one_rows(x, &b, &mut out);
        for r in 0..k {
            let per_row = dot(x, &b[r * dim..(r + 1) * dim]);
            assert_eq!(out[r].to_bits(), per_row.to_bits(), "one-vs row {r}");
        }
    }

    #[test]
    fn axpy_rows_skips_zero_alpha_rows() {
        let x = [f32::NAN, f32::NAN, 1.0, 1.0];
        let mut y = [1.0, 1.0, 2.0, 2.0];
        axpy_rows(&[0.0, 3.0], &x, &mut y, 2);
        assert_eq!(y, [1.0, 1.0, 5.0, 5.0]);
    }

    #[test]
    fn euclid_grad_row_matches_reference() {
        let n = 19; // body + tail
        let u: Vec<f32> = (0..n).map(|i| (i as f32 * 0.11).sin()).collect();
        let p: Vec<f32> = (0..n).map(|i| (i as f32 * 0.23).cos()).collect();
        let q: Vec<f32> = (0..n).map(|i| (i as f32 * 0.31).sin() - 0.2).collect();
        let (wp2, wq2) = (1.4f32, -0.6f32);
        let mut du = vec![0.0; n];
        let mut dp = vec![0.0; n];
        let mut dq = vec![0.0; n];
        euclid_grad_row(wp2, wq2, &u, &p, &q, &mut du, &mut dp, &mut dq);
        for i in 0..n {
            let gp = wp2 * (u[i] - p[i]);
            let gq = wq2 * (u[i] - q[i]);
            assert!((dp[i] - gp).abs() < 1e-6);
            assert!((dq[i] - gq).abs() < 1e-6);
            assert!((du[i] + gp + gq).abs() < 1e-6);
        }
    }
}
