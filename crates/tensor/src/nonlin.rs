//! Nonlinearities and probabilistic helpers.
//!
//! The per-user facet weights `Θ_u` of the paper are stored as free logits
//! and exposed through [`softmax`]; BPR's gradient needs a numerically
//! stable [`sigmoid`]; the facet-separating loss (Eq. 6/12) needs
//! [`softplus_sigmoid`]. All of them are written so large-magnitude inputs cannot
//! overflow to `inf`/`NaN` — training loops will produce such inputs.

/// Numerically stable logistic sigmoid `σ(x) = 1/(1+e^{−x})`.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        let z = (-x).exp();
        1.0 / (1.0 + z)
    } else {
        let z = x.exp();
        z / (1.0 + z)
    }
}

/// Numerically stable softplus `log(1 + e^x)`.
///
/// For large `x` this is `x + log(1+e^{−x}) ≈ x`; for very negative `x` it is
/// `e^x ≈ 0`. The naive formula overflows past `x ≈ 88` in `f32`.
#[inline]
// audit:allow(orphan-pub) — reference twin: oracle of `softplus_sigmoid`
pub fn softplus(x: f32) -> f32 {
    if x > 0.0 {
        x + (-x).exp().ln_1p()
    } else {
        x.exp().ln_1p()
    }
}

/// `(softplus(x), sigmoid(x))` from a single `exp` — the facet-separating
/// term needs the loss value and its slope at the same point.
///
/// Bit-identical to calling [`softplus`] and [`sigmoid`] separately: on
/// either side of zero both evaluate the same `z = e^{−|x|}` (at `±0` both
/// see `z = 1`, where sigmoid's two branches agree on exactly `0.5`).
#[inline]
pub fn softplus_sigmoid(x: f32) -> (f32, f32) {
    if x > 0.0 {
        let z = (-x).exp();
        (x + z.ln_1p(), 1.0 / (1.0 + z))
    } else {
        let z = x.exp();
        (z.ln_1p(), z / (1.0 + z))
    }
}

/// ReLU `max(0, x)`.
#[inline]
pub fn relu(x: f32) -> f32 {
    x.max(0.0)
}

/// Subgradient of ReLU (`1` for `x > 0`, else `0`).
#[inline]
pub fn relu_grad(x: f32) -> f32 {
    if x > 0.0 {
        1.0
    } else {
        0.0
    }
}

/// Softmax of `logits` written into `out` (max-subtracted for stability).
///
/// Output sums to 1 even for extreme logits; an all-`-inf` input (which the
/// models never produce) would yield a uniform distribution rather than NaN.
pub fn softmax(logits: &[f32], out: &mut [f32]) {
    assert_eq!(logits.len(), out.len());
    if logits.is_empty() {
        return;
    }
    let max = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for (o, &l) in out.iter_mut().zip(logits) {
        let e = if max.is_finite() {
            (l - max).exp()
        } else {
            1.0
        };
        *o = e;
        sum += e;
    }
    if sum <= f32::MIN_POSITIVE {
        let u = 1.0 / logits.len() as f32;
        out.fill(u);
    } else {
        for o in out.iter_mut() {
            *o /= sum;
        }
    }
}

/// Convenience allocating wrapper around [`softmax`].
pub fn softmax_vec(logits: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0; logits.len()];
    softmax(logits, &mut out);
    out
}

/// Backpropagates through a softmax.
///
/// Given `p = softmax(z)` and the downstream gradient `d = ∂L/∂p`, the
/// gradient with respect to the logits is
/// `∂L/∂z_i = p_i (d_i − Σ_j p_j d_j)`.
pub fn softmax_backward(probs: &[f32], upstream: &[f32], out: &mut [f32]) {
    assert_eq!(probs.len(), upstream.len());
    assert_eq!(probs.len(), out.len());
    let inner: f32 = probs.iter().zip(upstream).map(|(p, d)| p * d).sum();
    for ((o, &p), &d) in out.iter_mut().zip(probs).zip(upstream) {
        *o = p * (d - inner);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_symmetry_and_range() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
        for x in [-100.0f32, -5.0, -0.1, 0.3, 7.0, 200.0] {
            let s = sigmoid(x);
            assert!(s.is_finite() && (0.0..=1.0).contains(&s));
            assert!((sigmoid(-x) - (1.0 - s)).abs() < 1e-6);
        }
    }

    #[test]
    fn softplus_matches_naive_in_safe_range() {
        for x in [-5.0f32, -1.0, 0.0, 1.0, 5.0] {
            let naive = (1.0 + x.exp()).ln();
            assert!((softplus(x) - naive).abs() < 1e-5);
        }
        // Large input: asymptotically linear, finite.
        assert!((softplus(1000.0) - 1000.0).abs() < 1e-3);
        assert!(softplus(-1000.0).abs() < 1e-6);
    }

    #[test]
    fn softplus_sigmoid_is_bit_equal_to_the_separate_calls() {
        let mut xs = vec![
            0.0f32,
            -0.0,
            100.0,
            -100.0,
            88.8,
            -88.8,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            1e-42, // subnormal
            -1e-42,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        xs.extend((-4000..=4000).map(|i| i as f32 * 0.0257));
        for x in xs {
            let (sp, sg) = softplus_sigmoid(x);
            assert_eq!(sp.to_bits(), softplus(x).to_bits(), "softplus({x})");
            assert_eq!(sg.to_bits(), sigmoid(x).to_bits(), "sigmoid({x})");
        }
    }

    #[test]
    fn relu_and_hinge() {
        assert_eq!(relu(-2.0), 0.0);
        assert_eq!(relu(3.0), 3.0);
        assert_eq!(relu_grad(-1.0), 0.0);
        assert_eq!(relu_grad(1.0), 1.0);
    }

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let p = softmax_vec(&[1.0, 2.0, 3.0]);
        let sum: f32 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn softmax_extreme_logits_stable() {
        let p = softmax_vec(&[1000.0, 0.0, -1000.0]);
        assert!(p.iter().all(|v| v.is_finite()));
        assert!((p[0] - 1.0).abs() < 1e-6);
        let q = softmax_vec(&[-2000.0, -2000.0]);
        assert!((q[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn softmax_shift_invariance() {
        let a = softmax_vec(&[0.1, 0.5, -0.3]);
        let b = softmax_vec(&[10.1, 10.5, 9.7]);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_backward_finite_difference() {
        let z = [0.3f32, -0.7, 1.2, 0.0];
        let upstream = [0.5f32, -1.0, 0.25, 2.0];
        // L = upstream · softmax(z)
        let loss = |z: &[f32]| -> f32 {
            let p = softmax_vec(z);
            p.iter().zip(&upstream).map(|(p, u)| p * u).sum()
        };
        let p = softmax_vec(&z);
        let mut g = vec![0.0; 4];
        softmax_backward(&p, &upstream, &mut g);
        let h = 1e-3;
        for i in 0..z.len() {
            let mut zp = z;
            let mut zm = z;
            zp[i] += h;
            zm[i] -= h;
            let fd = (loss(&zp) - loss(&zm)) / (2.0 * h);
            assert!((fd - g[i]).abs() < 1e-3, "i={i} fd={fd} g={}", g[i]);
        }
    }
}
