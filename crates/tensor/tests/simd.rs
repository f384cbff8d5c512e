//! Cross-tier agreement and dispatch tests for the vectorized kernel layer
//! (`mars_tensor::simd`).
//!
//! The portable and AVX2 tiers share summation *structure* but differ in
//! FMA contraction, so cross-tier comparisons use a relative tolerance;
//! the dispatched entry points must match the active tier **bitwise**
//! (they are the same code).

// Indexed `for r in 0..rows` loops are deliberate here: the assertions
// compare slot `r` of a row-kernel output against an independently computed
// per-row value, and the subscript form keeps the two sides visibly aligned.
#![allow(clippy::needless_range_loop)]

use mars_tensor::simd::{self, portable, scalar, Path};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Relative-tolerance check: `|a − b| ≤ tol · max(|a|, |b|, 1)`.
fn rel_close(a: f32, b: f32, tol: f32) -> bool {
    (a - b).abs() <= tol * a.abs().max(b.abs()).max(1.0)
}

/// Deterministic pseudo-random vector for a given dim/salt.
fn vec_for(dim: usize, salt: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(salt.wrapping_mul(0x9E3779B97F4A7C15) + dim as u64);
    (0..dim).map(|_| rng.gen_range(-2.0f32..2.0)).collect()
}

/// Runs `check(dim)` over every dim 1..=67 — odd sizes, powers of two, and
/// every tail length against the 8-lane body.
fn for_all_dims(check: impl Fn(usize)) {
    for dim in 1..=67 {
        check(dim);
    }
}

#[test]
fn simd_and_portable_reductions_agree_across_dims() {
    for_all_dims(|dim| {
        let a = vec_for(dim, 1);
        let b = vec_for(dim, 2);
        // Dispatched vs portable: within tolerance (equal when the
        // portable tier is active; FMA-contraction distance otherwise).
        assert!(
            rel_close(simd::dot(&a, &b), portable::dot(&a, &b), 1e-5),
            "dot diverged at dim {dim}"
        );
        assert!(
            rel_close(simd::dist_sq(&a, &b), portable::dist_sq(&a, &b), 1e-5),
            "dist_sq diverged at dim {dim}"
        );
        // And both stay near the sequential scalar oracle.
        assert!(
            rel_close(simd::dot(&a, &b), scalar::dot(&a, &b), 1e-4),
            "dot far from scalar at dim {dim}"
        );
        assert!(
            rel_close(simd::dist_sq(&a, &b), scalar::dist_sq(&a, &b), 1e-4),
            "dist_sq far from scalar at dim {dim}"
        );
    });
}

#[cfg(target_arch = "x86_64")]
#[test]
fn avx2_and_portable_kernels_agree_across_dims() {
    use mars_tensor::simd::avx2;
    if !avx2::available() {
        eprintln!("AVX2+FMA not available; cross-tier test skipped");
        return;
    }
    for_all_dims(|dim| {
        let a = vec_for(dim, 3);
        let b = vec_for(dim, 4);
        // SAFETY: AVX2+FMA availability is checked above, and every
        // slice meets the kernel's `# Safety` length preconditions.
        let (d_a, d_p) = (unsafe { avx2::dot(&a, &b) }, portable::dot(&a, &b));
        assert!(
            rel_close(d_a, d_p, 1e-5),
            "dot: avx2 {d_a} vs portable {d_p} at dim {dim}"
        );
        let (s_a, s_p) = (unsafe { avx2::dist_sq(&a, &b) }, portable::dist_sq(&a, &b));
        assert!(rel_close(s_a, s_p, 1e-5), "dist_sq diverged at dim {dim}");

        let mut y_a = vec_for(dim, 5);
        let mut y_p = y_a.clone();
        // SAFETY: AVX2+FMA availability is checked above, and every
        // slice meets the kernel's `# Safety` length preconditions.
        unsafe { avx2::axpy(0.37, &a, &mut y_a) };
        portable::axpy(0.37, &a, &mut y_p);
        for i in 0..dim {
            assert!(
                rel_close(y_a[i], y_p[i], 1e-5),
                "axpy diverged at dim {dim} lane {i}"
            );
        }

        // Row kernels: 3 rows of `dim`, plus the fused gradient kernel.
        let ra = vec_for(dim * 3, 6);
        let rb = vec_for(dim * 3, 7);
        let mut out_a = vec![0.0f32; 3];
        let mut out_p = vec![0.0f32; 3];
        // SAFETY: AVX2+FMA availability is checked above, and every
        // slice meets the kernel's `# Safety` length preconditions.
        unsafe { avx2::dot_rows(&ra, &rb, dim, &mut out_a) };
        portable::dot_rows(&ra, &rb, dim, &mut out_p);
        for r in 0..3 {
            assert!(
                rel_close(out_a[r], out_p[r], 1e-5),
                "dot_rows row {r} dim {dim}"
            );
        }
        unsafe { avx2::dist_sq_one_rows(&a, &rb, &mut out_a) };
        portable::dist_sq_one_rows(&a, &rb, &mut out_p);
        for r in 0..3 {
            assert!(
                rel_close(out_a[r], out_p[r], 1e-5),
                "dist_sq_one_rows row {r} dim {dim}"
            );
        }

        let u = vec_for(dim, 8);
        let p = vec_for(dim, 9);
        let q = vec_for(dim, 10);
        let mut grads_a = vec![vec![0.0f32; dim]; 3];
        let mut grads_p = vec![vec![0.0f32; dim]; 3];
        {
            let [du, dp, dq] = grads_a.get_disjoint_mut([0, 1, 2]).unwrap();
            // SAFETY: AVX2+FMA availability is checked above, and every
            // slice meets the kernel's `# Safety` length preconditions.
            unsafe { avx2::euclid_grad_row(1.3, -0.7, &u, &p, &q, du, dp, dq) };
        }
        {
            let [du, dp, dq] = grads_p.get_disjoint_mut([0, 1, 2]).unwrap();
            portable::euclid_grad_row(1.3, -0.7, &u, &p, &q, du, dp, dq);
        }
        for k in 0..3 {
            for i in 0..dim {
                assert!(
                    rel_close(grads_a[k][i], grads_p[k][i], 1e-5),
                    "euclid_grad_row out {k} lane {i} dim {dim}"
                );
            }
        }
    });
}

/// The dispatch test: asserts which tier is active and that — on AVX2
/// hardware — **both** tiers were actually exercised and routed correctly
/// (the dispatched result is bitwise the active tier's result).
#[test]
fn dispatch_routes_to_the_detected_tier_and_both_paths_run() {
    let a = vec_for(33, 11);
    let b = vec_for(33, 12);
    let dispatched = simd::dot(&a, &b);
    let from_portable = portable::dot(&a, &b); // the portable tier always runs here
    match simd::active_path() {
        Path::Avx2Fma => {
            #[cfg(target_arch = "x86_64")]
            {
                use mars_tensor::simd::avx2;
                assert!(avx2::available(), "AVX2 tier active but not detected");
                // SAFETY: AVX2+FMA availability is checked above, and every
                // slice meets the kernel's `# Safety` length preconditions.
                let from_avx2 = unsafe { avx2::dot(&a, &b) }; // ...and so does the AVX2 tier
                assert_eq!(
                    dispatched.to_bits(),
                    from_avx2.to_bits(),
                    "dispatch did not route to the AVX2 tier"
                );
                assert!(rel_close(from_avx2, from_portable, 1e-5));
            }
            #[cfg(not(target_arch = "x86_64"))]
            panic!("AVX2 tier selected on a non-x86-64 target");
        }
        Path::Portable => {
            #[cfg(target_arch = "x86_64")]
            assert!(
                !mars_tensor::simd::avx2::available(),
                "portable tier active although AVX2 is available"
            );
            assert_eq!(
                dispatched.to_bits(),
                from_portable.to_bits(),
                "dispatch did not route to the portable tier"
            );
        }
    }
}

/// Deterministic pseudo-random int8 vector covering the full range,
/// including the `-128` edge.
fn i8_vec_for(len: usize, salt: u64) -> Vec<i8> {
    let mut rng = StdRng::seed_from_u64(salt.wrapping_mul(0x9E3779B97F4A7C15) + len as u64);
    (0..len).map(|_| rng.gen::<i8>()).collect()
}

/// The int8 kernels accumulate in exact integer arithmetic, so every tier
/// must agree to the bit — equality, not tolerance — at every dim 1..=67
/// (all tail lengths against the 16-byte AVX2 body).
#[test]
fn int8_kernels_agree_exactly_across_tiers_and_dims() {
    for_all_dims(|dim| {
        let rows = 3;
        let x = i8_vec_for(dim, 21);
        let b = i8_vec_for(dim * rows, 22);
        let mut expect = vec![0i32; rows];
        let mut got = vec![0i32; rows];

        scalar::dot_rows_i8(&x, &b, &mut expect);
        simd::dot_rows_i8(&x, &b, &mut got);
        assert_eq!(expect, got, "dispatched dot_rows_i8 at dim {dim}");
        portable::dot_rows_i8(&x, &b, &mut got);
        assert_eq!(expect, got, "portable dot_rows_i8 at dim {dim}");

        scalar::dist_sq_rows_i8(&x, &b, &mut expect);
        simd::dist_sq_rows_i8(&x, &b, &mut got);
        assert_eq!(expect, got, "dispatched dist_sq_rows_i8 at dim {dim}");
        portable::dist_sq_rows_i8(&x, &b, &mut got);
        assert_eq!(expect, got, "portable dist_sq_rows_i8 at dim {dim}");

        #[cfg(target_arch = "x86_64")]
        {
            use mars_tensor::simd::avx2;
            if avx2::available() {
                scalar::dot_rows_i8(&x, &b, &mut expect);
                // SAFETY: AVX2+FMA availability is checked above, and every
                // slice meets the kernel's `# Safety` length preconditions.
                unsafe { avx2::dot_rows_i8(&x, &b, &mut got) };
                assert_eq!(expect, got, "avx2 dot_rows_i8 at dim {dim}");
                scalar::dist_sq_rows_i8(&x, &b, &mut expect);
                unsafe { avx2::dist_sq_rows_i8(&x, &b, &mut got) };
                assert_eq!(expect, got, "avx2 dist_sq_rows_i8 at dim {dim}");
            }
        }
    });
}

/// The splitmix64 fill kernel is pure integer arithmetic, so — like the
/// int8 kernels — every tier must agree to the bit at every block size
/// 1..=67 (all tail lengths against the 8-wide AVX2 body), for bases that
/// exercise counter wraparound.
#[test]
fn splitmix64_tiers_agree_exactly_across_block_sizes() {
    use mars_tensor::simd::fill_splitmix64;
    for_all_dims(|len| {
        for base in [0u64, 1, 0x1234_5678_9abc_def0, u64::MAX - 3] {
            let mut expect = vec![0u64; len];
            let mut got = vec![0u64; len];
            scalar::fill_splitmix64(base, &mut expect);
            fill_splitmix64(base, &mut got);
            assert_eq!(expect, got, "dispatched fill at len {len}, base {base:#x}");
            portable::fill_splitmix64(base, &mut got);
            assert_eq!(expect, got, "portable fill at len {len}, base {base:#x}");
            #[cfg(target_arch = "x86_64")]
            {
                use mars_tensor::simd::avx2;
                if avx2::available() {
                    // SAFETY: AVX2+FMA availability is checked above, and every
                    // slice meets the kernel's `# Safety` length preconditions.
                    unsafe { avx2::fill_splitmix64(base, &mut got) };
                    assert_eq!(expect, got, "avx2 fill at len {len}, base {base:#x}");
                }
            }
        }
    });
}

/// The canonical splitmix64 golden vector: `base = 0` makes the fill the
/// plain splitmix64 stream seeded with 0, whose first outputs are an
/// external cross-check on every tier (same pin as the `CounterRng`
/// golden-value test — the kernel and the RNG must never drift apart).
#[test]
fn splitmix64_kernel_reproduces_the_canonical_vector() {
    let mut out = [0u64; 4];
    mars_tensor::simd::fill_splitmix64(0, &mut out);
    assert_eq!(
        out,
        [
            0xe220_a839_7b1d_cdaf,
            0x6e78_9e6a_a1b9_65f4,
            0x06c4_5d18_8009_454f,
            0xf88b_b8a8_724c_81ec,
        ]
    );
}

/// The kernel's defining contract: bit-identical to the `CounterRng`
/// sequential stream, at any block size, from any key — which is what
/// makes installing it into the runtime hook a pure throughput change.
#[test]
fn splitmix64_kernel_matches_counter_rng_sequence() {
    use mars_runtime::rng::CounterRng;
    for (seed, stream) in [(0u64, 0u64), (42, 9), (2021, 1), (u64::MAX, 7)] {
        for len in [1usize, 7, 8, 9, 64, 67] {
            let mut seq = CounterRng::keyed(seed, stream);
            let want: Vec<u64> = (0..len).map(|_| seq.next_u64()).collect();
            // The keyed state is private, so drive the kernel through the
            // public hook: install it, then fill a block from the same key.
            let mut rng = CounterRng::keyed(seed, stream);
            let mut got = vec![0u64; len];
            mars_runtime::rng::install_fill_block_kernel(mars_tensor::simd::fill_splitmix64);
            rng.fill_block(&mut got);
            assert_eq!(want, got, "kernel diverged at ({seed},{stream},{len})");
        }
    }
}

/// Dispatch-routing: the dispatched entry point must be the active tier's
/// function — bitwise, since the kernel is exact — and `install_rng_kernel`
/// must actually route `CounterRng::fill_block` through it.
#[test]
fn splitmix64_dispatch_routes_to_active_tier_and_installs() {
    use mars_runtime::rng::CounterRng;
    let base = 0xdead_beef_cafe_f00d_u64;
    let mut dispatched = vec![0u64; 67];
    mars_tensor::simd::fill_splitmix64(base, &mut dispatched);
    let mut tier = vec![0u64; 67];
    match simd::active_path() {
        Path::Portable => portable::fill_splitmix64(base, &mut tier),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2+FMA availability is checked above, and every
        // slice meets the kernel's `# Safety` length preconditions.
        Path::Avx2Fma => unsafe { mars_tensor::simd::avx2::fill_splitmix64(base, &mut tier) },
        #[cfg(not(target_arch = "x86_64"))]
        Path::Avx2Fma => unreachable!("AVX2 tier off x86-64"),
    }
    assert_eq!(dispatched, tier, "dispatch did not hit the active tier");

    // Install, then prove the RNG's block path produces the kernel's
    // values (which the tests above proved equal the sequential stream).
    mars_tensor::simd::install_rng_kernel();
    let mut direct = vec![0u64; 67];
    CounterRng::keyed(3, 14).fill_block(&mut direct);
    let mut seq = CounterRng::keyed(3, 14);
    let want: Vec<u64> = (0..67).map(|_| seq.next_u64()).collect();
    assert_eq!(want, direct, "installed kernel changed the stream");
}

/// Saturation edge: `madd_epi16` can overflow `i16` pairs only if a pair
/// sum exceeds `i32` — impossible for int8 inputs, but the `-128 · -128`
/// corner is where a sloppy widening scheme would break. Pin it.
#[test]
fn int8_kernels_survive_extreme_values() {
    for dim in [1usize, 15, 16, 17, 32, 67] {
        let x = vec![-128i8; dim];
        let rows: Vec<i8> = (0..dim * 2)
            .map(|i| if i % 2 == 0 { -128 } else { 127 })
            .collect();
        let mut expect = vec![0i32; 2];
        let mut got = vec![0i32; 2];
        scalar::dot_rows_i8(&x, &rows, &mut expect);
        simd::dot_rows_i8(&x, &rows, &mut got);
        assert_eq!(expect, got, "extreme dot at dim {dim}");
        scalar::dist_sq_rows_i8(&x, &rows, &mut expect);
        simd::dist_sq_rows_i8(&x, &rows, &mut got);
        assert_eq!(expect, got, "extreme dist at dim {dim}");
    }
}

// ---------------------------------------------------------------------------
// Fused optimizer-step kernels
// ---------------------------------------------------------------------------

/// `k` unit-norm rows of `dim` (the sphere the calibrated step walks on).
fn unit_rows(k: usize, dim: usize, salt: u64) -> Vec<f32> {
    let mut x = vec_for(k * dim, salt);
    for row in x.chunks_exact_mut(dim) {
        let n = row.iter().map(|v| v * v).sum::<f32>().sqrt().max(1e-6);
        row.iter_mut().for_each(|v| *v /= n);
    }
    x
}

type StepKernel = fn(&mut [f32], &mut [f32], usize) -> usize;

/// Runs one step kernel on fresh copies and returns the stepped rows.
fn stepped(kernel: StepKernel, x: &[f32], g: &[f32], dim: usize) -> (Vec<f32>, usize) {
    let (mut x, mut g) = (x.to_vec(), g.to_vec());
    let skipped = kernel(&mut x, &mut g, dim);
    (x, skipped)
}

/// The calibrated step and SGD-clip at one learning rate, per tier:
/// `(name, scalar, portable, dispatched)`.
fn step_kernels() -> [(&'static str, StepKernel, StepKernel, StepKernel); 2] {
    [
        (
            "calibrated_rsgd_rows",
            |x, g, d| scalar::calibrated_rsgd_rows(x, g, d, 0.05),
            |x, g, d| portable::calibrated_rsgd_rows(x, g, d, 0.05),
            |x, g, d| simd::calibrated_rsgd_rows(x, g, d, 0.05),
        ),
        (
            "sgd_clip_rows",
            |x, g, d| scalar::sgd_clip_rows(x, g, d, 0.4, 1.0),
            |x, g, d| portable::sgd_clip_rows(x, g, d, 0.4, 1.0),
            |x, g, d| simd::sgd_clip_rows(x, g, d, 0.4, 1.0),
        ),
    ]
}

#[test]
fn step_kernel_tiers_agree_across_dims_and_row_counts() {
    for (name, scalar_k, portable_k, dispatched_k) in step_kernels() {
        for_all_dims(|dim| {
            for k in 1..=5 {
                let x = unit_rows(k, dim, 21);
                let g = vec_for(k * dim, 22);
                let (s, _) = stepped(scalar_k, &x, &g, dim);
                let (p, _) = stepped(portable_k, &x, &g, dim);
                let (d, skipped) = stepped(dispatched_k, &x, &g, dim);
                assert_eq!(skipped, 0, "{name}: finite input skipped a row");
                for i in 0..k * dim {
                    assert!(
                        (s[i] - p[i]).abs() <= 1e-6 && (d[i] - p[i]).abs() <= 1e-6,
                        "{name} diverged at dim {dim} k {k} idx {i}: {} {} {}",
                        s[i],
                        p[i],
                        d[i]
                    );
                }
                // The constraint each kernel exists to keep.
                for row in d.chunks_exact(dim) {
                    let n = row.iter().map(|v| v * v).sum::<f32>().sqrt();
                    if name == "sgd_clip_rows" {
                        assert!(n <= 1.0 + 1e-5, "left the ball: {n}");
                    } else {
                        assert!((n - 1.0).abs() <= 1e-5, "left the sphere: {n}");
                    }
                }
            }
        });
    }
}

/// The dispatched step kernels are the active tier's, bit for bit (and the
/// AVX2 tier, when present, agrees with the portable one within rounding).
#[test]
fn step_kernel_dispatch_routes_to_the_active_tier() {
    let (dim, k) = (37, 3);
    let x = unit_rows(k, dim, 31);
    let g = vec_for(k * dim, 32);
    for (name, _, portable_k, dispatched_k) in step_kernels() {
        let (dispatched, _) = stepped(dispatched_k, &x, &g, dim);
        let (from_portable, _) = stepped(portable_k, &x, &g, dim);
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        match simd::active_path() {
            Path::Portable => assert_eq!(bits(&dispatched), bits(&from_portable), "{name}"),
            Path::Avx2Fma => {
                #[cfg(target_arch = "x86_64")]
                {
                    use mars_tensor::simd::avx2;
                    assert!(avx2::available(), "AVX2 tier active but not detected");
                    let (mut xa, mut ga) = (x.clone(), g.clone());
                    // SAFETY: AVX2+FMA availability is checked above, and
                    // the buffers are equal-length whole rows of `dim`.
                    unsafe {
                        if name == "sgd_clip_rows" {
                            avx2::sgd_clip_rows(&mut xa, &mut ga, dim, 0.4, 1.0);
                        } else {
                            avx2::calibrated_rsgd_rows(&mut xa, &mut ga, dim, 0.05);
                        }
                    }
                    assert_eq!(bits(&dispatched), bits(&xa), "{name}: not the AVX2 tier");
                    for (a, p) in xa.iter().zip(&from_portable) {
                        assert!((a - p).abs() <= 1e-6, "{name}: AVX2 far from portable");
                    }
                }
            }
        }
    }
}

/// The degenerate rows every tier must leave exactly where they were.
#[test]
fn step_kernels_leave_degenerate_rows_untouched() {
    let dim = 11;
    let x = unit_rows(4, dim, 41);
    for (name, scalar_k, portable_k, dispatched_k) in step_kernels() {
        for kernel in [scalar_k, portable_k, dispatched_k] {
            // Row 0: zero gradient. Row 1: NaN. Row 2: +inf. Row 3: regular.
            let mut g = vec_for(4 * dim, 42);
            g[..dim].fill(0.0);
            g[dim + 3] = f32::NAN;
            g[2 * dim + 5] = f32::INFINITY;
            let (after, skipped) = stepped(kernel, &x, &g, dim);
            assert_eq!(skipped, 2, "{name}: non-finite rows must be counted");
            let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&after[..3 * dim]), bits(&x[..3 * dim]), "{name}");
            assert_ne!(bits(&after[3 * dim..]), bits(&x[3 * dim..]), "{name}");
        }
    }
    // ‖x + z‖ ≤ 1e-12: a zero row stepped by a vanishing learning rate
    // leaves the retraction nothing to normalize — the row must stay as it
    // is, not become 0/0.
    for kernel in [
        scalar::calibrated_rsgd_rows,
        portable::calibrated_rsgd_rows,
        simd::calibrated_rsgd_rows,
    ] {
        let mut x = vec![0.0f32; dim];
        let mut g = vec_for(dim, 43);
        assert_eq!(kernel(&mut x, &mut g, dim, 1e-14), 0);
        assert!(x.iter().all(|&v| v == 0.0), "collapsed row was rewritten");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Property form of the agreement check: random contents at every odd
    /// dim 1..=67, dispatched vs portable vs scalar oracle.
    #[test]
    fn reduction_tiers_agree_on_random_vectors(
        half_dim in 0usize..34,
        seed in 0u64..1_000,
    ) {
        let dim = (2 * half_dim + 1).min(67); // odd dims 1..=67
        let a = vec_for(dim, seed * 2 + 101);
        let b = vec_for(dim, seed * 2 + 102);
        prop_assert!(rel_close(simd::dot(&a, &b), portable::dot(&a, &b), 1e-5));
        prop_assert!(rel_close(simd::dot(&a, &b), scalar::dot(&a, &b), 1e-4));
        prop_assert!(rel_close(simd::dist_sq(&a, &b), portable::dist_sq(&a, &b), 1e-5));
        prop_assert!(rel_close(simd::dist_sq(&a, &b), scalar::dist_sq(&a, &b), 1e-4));
    }

    /// Row kernels must agree with their per-row scalar form bitwise —
    /// this is the `score` / `score_block` agreement contract.
    #[test]
    fn row_kernels_match_per_row_dispatch_bitwise(
        dim in 1usize..68,
        rows in 1usize..7,
        seed in 0u64..500,
    ) {
        let a = vec_for(dim * rows, seed + 7_000);
        let b = vec_for(dim * rows, seed + 8_000);
        let mut out = vec![0.0f32; rows];
        simd::dot_rows(&a, &b, dim, &mut out);
        for r in 0..rows {
            let lo = r * dim;
            let per_row = simd::dot(&a[lo..lo + dim], &b[lo..lo + dim]);
            prop_assert_eq!(out[r].to_bits(), per_row.to_bits());
        }
        simd::dist_sq_one_rows(&a[..dim], &b, &mut out);
        for r in 0..rows {
            let lo = r * dim;
            let per_row = simd::dist_sq(&a[..dim], &b[lo..lo + dim]);
            prop_assert_eq!(out[r].to_bits(), per_row.to_bits());
        }
    }

    /// Property form of the int8 exactness contract: random contents and
    /// row counts, dispatched tier vs the scalar oracle, `==` not `≈`.
    #[test]
    fn int8_kernels_match_scalar_exactly_on_random_input(
        dim in 1usize..68,
        rows in 1usize..7,
        seed in 0u64..500,
    ) {
        let x = i8_vec_for(dim, seed + 9_000);
        let b = i8_vec_for(dim * rows, seed + 10_000);
        let mut expect = vec![0i32; rows];
        let mut got = vec![0i32; rows];
        scalar::dot_rows_i8(&x, &b, &mut expect);
        simd::dot_rows_i8(&x, &b, &mut got);
        prop_assert_eq!(&expect, &got);
        scalar::dist_sq_rows_i8(&x, &b, &mut expect);
        simd::dist_sq_rows_i8(&x, &b, &mut got);
        prop_assert_eq!(&expect, &got);
    }
}
