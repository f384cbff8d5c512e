//! Property-based tests for the linear-algebra substrate.

use mars_tensor::{init, nonlin, ops, Matrix};
use proptest::prelude::*;

fn vec_strategy(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-10.0f32..10.0, len)
}

proptest! {
    #[test]
    fn dot_is_commutative(a in vec_strategy(8), b in vec_strategy(8)) {
        let ab = ops::dot(&a, &b);
        let ba = ops::dot(&b, &a);
        prop_assert!((ab - ba).abs() <= 1e-4 * (1.0 + ab.abs()));
    }

    #[test]
    fn cauchy_schwarz(a in vec_strategy(6), b in vec_strategy(6)) {
        let lhs = ops::dot(&a, &b).abs();
        let rhs = ops::norm(&a) * ops::norm(&b);
        prop_assert!(lhs <= rhs * (1.0 + 1e-4) + 1e-4);
    }

    #[test]
    fn cosine_in_range(a in vec_strategy(5), b in vec_strategy(5)) {
        let c = ops::cosine(&a, &b);
        prop_assert!((-1.0..=1.0).contains(&c));
    }

    #[test]
    fn cosine_scale_invariant(a in vec_strategy(5), b in vec_strategy(5), s in 0.1f32..10.0) {
        let c1 = ops::cosine(&a, &b);
        let scaled: Vec<f32> = a.iter().map(|x| x * s).collect();
        let c2 = ops::cosine(&scaled, &b);
        prop_assert!((c1 - c2).abs() < 1e-3);
    }

    #[test]
    fn normalize_lands_on_sphere(mut a in vec_strategy(7)) {
        ops::normalize(&mut a);
        prop_assert!((ops::norm(&a) - 1.0).abs() < 1e-4);
    }

    #[test]
    fn clip_ball_never_grows(mut a in vec_strategy(7)) {
        let before = ops::norm(&a);
        ops::clip_to_unit_ball(&mut a);
        let after = ops::norm(&a);
        prop_assert!(after <= 1.0 + 1e-5);
        prop_assert!(after <= before + 1e-5);
    }

    #[test]
    fn triangle_inequality(a in vec_strategy(6), b in vec_strategy(6), c in vec_strategy(6)) {
        let ab = ops::dist(&a, &b);
        let bc = ops::dist(&b, &c);
        let ac = ops::dist(&a, &c);
        prop_assert!(ac <= ab + bc + 1e-3);
    }

    #[test]
    fn softmax_is_distribution(logits in vec_strategy(6)) {
        let p = nonlin::softmax_vec(&logits);
        let sum: f32 = p.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
        prop_assert!(p.iter().all(|v| (0.0..=1.0).contains(v)));
    }

    #[test]
    fn softmax_preserves_order(logits in vec_strategy(5)) {
        let p = nonlin::softmax_vec(&logits);
        for i in 0..5 {
            for j in 0..5 {
                if logits[i] > logits[j] {
                    prop_assert!(p[i] >= p[j] - 1e-6);
                }
            }
        }
    }

    #[test]
    fn sigmoid_monotone(x in -20.0f32..20.0, dx in 0.01f32..5.0) {
        prop_assert!(nonlin::sigmoid(x + dx) >= nonlin::sigmoid(x));
    }

    #[test]
    fn matvec_linearity(
        data in proptest::collection::vec(-3.0f32..3.0, 12),
        x in vec_strategy(4),
        y in vec_strategy(4),
    ) {
        let m = Matrix::from_vec(3, 4, data);
        let mut mx = vec![0.0; 3];
        let mut my = vec![0.0; 3];
        let mut mxy = vec![0.0; 3];
        let xy: Vec<f32> = x.iter().zip(&y).map(|(a, b)| a + b).collect();
        m.matvec(&x, &mut mx);
        m.matvec(&y, &mut my);
        m.matvec(&xy, &mut mxy);
        for i in 0..3 {
            prop_assert!((mxy[i] - (mx[i] + my[i])).abs() < 1e-3);
        }
    }

    #[test]
    fn unit_sphere_init_is_unit(seed in 0u64..1000) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut v = vec![0.0; 12];
        init::unit_sphere(&mut rng, &mut v);
        prop_assert!((ops::norm(&v) - 1.0).abs() < 1e-4);
    }
}
