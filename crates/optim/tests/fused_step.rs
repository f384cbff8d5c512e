//! The fused multi-row step kernels in `mars_tensor::simd` against the
//! composed optimizers they replace in the batched engine: every tier of
//! `calibrated_rsgd_rows` must land where `CalibratedRiemannianSgd::step`
//! lands and every tier of `sgd_clip_rows` where `Sgd::with_max_norm`'s
//! `step` lands, row by row, at every dim 1..=67 (all tail lengths against
//! the 8-lane body) and 1..=5 rows per call.

use mars_optim::{sphere, CalibratedRiemannianSgd, Optimizer, Sgd};
use mars_runtime::CounterRng;
use mars_tensor::ops;
use mars_tensor::simd::{self, portable, scalar};

const LR: f32 = 0.07;

fn values(rng: &mut CounterRng, len: usize, scale: f32) -> Vec<f32> {
    (0..len)
        .map(|_| (rng.gen_below(20_001) as f32 * 1e-4 - 1.0) * scale)
        .collect()
}

type Kernel = fn(&mut [f32], &mut [f32], usize) -> usize;

/// Every tier reachable on this host, the AVX2 one through the dispatcher.
const CALIBRATED: [(&str, Kernel); 3] = [
    ("scalar", |x, g, d| {
        scalar::calibrated_rsgd_rows(x, g, d, LR)
    }),
    ("portable", |x, g, d| {
        portable::calibrated_rsgd_rows(x, g, d, LR)
    }),
    ("dispatched", |x, g, d| {
        simd::calibrated_rsgd_rows(x, g, d, LR)
    }),
];
const SGD_CLIP: [(&str, Kernel); 3] = [
    ("scalar", |x, g, d| scalar::sgd_clip_rows(x, g, d, LR, 1.0)),
    ("portable", |x, g, d| {
        portable::sgd_clip_rows(x, g, d, LR, 1.0)
    }),
    ("dispatched", |x, g, d| {
        simd::sgd_clip_rows(x, g, d, LR, 1.0)
    }),
];

/// Steps `x` row by row with the composed optimizer.
fn reference(opt: &impl Optimizer, x: &[f32], g: &[f32], dim: usize) -> Vec<f32> {
    let mut out = x.to_vec();
    for (row, grad) in out.chunks_exact_mut(dim).zip(g.chunks_exact(dim)) {
        opt.step(row, grad);
    }
    out
}

fn assert_close(tier: &str, what: &str, dim: usize, k: usize, got: &[f32], expect: &[f32]) {
    for (i, (a, b)) in got.iter().zip(expect).enumerate() {
        assert!(
            (a - b).abs() <= 1e-6,
            "{what}/{tier} dim {dim} k {k} idx {i}: fused {a} vs composed {b}"
        );
    }
}

#[test]
fn calibrated_rows_match_the_composed_step_on_the_sphere() {
    let mut rng = CounterRng::keyed(0xF05ED, 1);
    let opt = CalibratedRiemannianSgd::new(LR);
    for dim in 1..=67 {
        for k in 1..=5 {
            let mut x = values(&mut rng, k * dim, 1.0);
            x.chunks_exact_mut(dim).for_each(ops::normalize);
            // Gradients of a few magnitudes: the calibration multiplier
            // depends on direction only, the step length on ‖g‖.
            let g = values(&mut rng, k * dim, [0.3, 1.0, 4.0][k % 3]);
            let expect = reference(&opt, &x, &g, dim);
            for (tier, kernel) in CALIBRATED {
                let (mut got, mut scratch) = (x.clone(), g.clone());
                assert_eq!(kernel(&mut got, &mut scratch, dim), 0);
                assert_close(tier, "calibrated", dim, k, &got, &expect);
                for row in got.chunks_exact(dim) {
                    assert!(sphere::is_on_sphere(row, 1e-5), "{tier}: left the sphere");
                }
            }
        }
    }
}

#[test]
fn sgd_clip_rows_match_the_composed_step_in_the_ball() {
    let mut rng = CounterRng::keyed(0xF05ED, 2);
    let opt = Sgd::with_max_norm(LR, 1.0);
    for dim in 1..=67 {
        for k in 1..=5 {
            // Rows inside the ball, gradients large enough that some steps
            // leave it and exercise the clip.
            let mut x = values(&mut rng, k * dim, 1.0);
            x.chunks_exact_mut(dim).for_each(ops::clip_to_unit_ball);
            let g = values(&mut rng, k * dim, [0.5, 6.0, 20.0][k % 3]);
            let expect = reference(&opt, &x, &g, dim);
            for (tier, kernel) in SGD_CLIP {
                let (mut got, mut scratch) = (x.clone(), g.clone());
                assert_eq!(kernel(&mut got, &mut scratch, dim), 0);
                assert_close(tier, "sgd_clip", dim, k, &got, &expect);
                for row in got.chunks_exact(dim) {
                    assert!(ops::norm(row) <= 1.0 + 1e-5, "{tier}: left the ball");
                }
            }
        }
    }
}

/// The composed optimizer's documented edge: a zero gradient moves nothing.
/// The fused kernel makes it exact (not even a renormalization).
#[test]
fn zero_gradient_is_an_exact_noop_in_every_tier() {
    let x0 = ops::normalized(&[0.1, 0.9, 0.4, -0.2, 0.3]);
    for (tier, kernel) in CALIBRATED {
        let (mut x, mut g) = (x0.clone(), vec![0.0; 5]);
        assert_eq!(kernel(&mut x, &mut g, 5), 0);
        assert_eq!(x, x0, "{tier}");
    }
}
