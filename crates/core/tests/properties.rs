//! Property-based tests for the MAR / MARS model invariants.

use mars_core::{MarsConfig, MultiFacetModel, Scratch};
use mars_data::batch::Triplet;
use proptest::prelude::*;

fn triplet_strategy(users: u32, items: u32) -> impl Strategy<Value = Triplet> {
    (0..users, 0..items, 0..items).prop_map(|(user, positive, negative)| Triplet {
        user,
        positive,
        negative,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// MARS: every facet embedding stays exactly on the unit sphere no
    /// matter what triplets (including degenerate positive == negative)
    /// and learning rates training throws at it.
    #[test]
    fn mars_sphere_invariant_under_random_training(
        triplets in proptest::collection::vec(triplet_strategy(6, 8), 1..60),
        lr in 0.01f32..0.5,
        seed in 0u64..50,
    ) {
        let mut cfg = MarsConfig::mars(3, 6);
        cfg.seed = seed;
        let mut model = MultiFacetModel::new(cfg, 6, 8);
        let mut s = Scratch::new(3, 6);
        for t in triplets {
            model.train_triplet(t, 0.5, lr, &mut s);
            prop_assert!(model.check_norm_invariant(2e-3));
        }
    }

    /// MAR: facet embeddings never leave the unit ball.
    #[test]
    fn mar_ball_invariant_under_random_training(
        triplets in proptest::collection::vec(triplet_strategy(6, 8), 1..60),
        lr in 0.01f32..0.5,
        seed in 0u64..50,
    ) {
        let mut cfg = MarsConfig::mar(2, 6);
        cfg.seed = seed;
        let mut model = MultiFacetModel::new(cfg, 6, 8);
        let mut s = Scratch::new(2, 6);
        for t in triplets {
            model.train_triplet(t, 0.5, lr, &mut s);
            prop_assert!(model.check_norm_invariant(2e-3));
        }
    }

    /// Θ_u stays a probability distribution through arbitrary training.
    #[test]
    fn theta_remains_distribution(
        triplets in proptest::collection::vec(triplet_strategy(5, 7), 1..40),
        seed in 0u64..50,
    ) {
        let mut cfg = MarsConfig::mars(4, 5);
        cfg.seed = seed;
        let mut model = MultiFacetModel::new(cfg, 5, 7);
        let mut s = Scratch::new(4, 5);
        for t in triplets {
            model.train_triplet(t, 0.5, 0.1, &mut s);
        }
        for u in 0..5 {
            let theta = model.theta(u);
            let sum: f32 = theta.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(theta.iter().all(|&w| (0.0..=1.0).contains(&w)));
        }
    }

    /// Spherical scores are bounded by the weighted-cosine range [-1, 1].
    #[test]
    fn mars_scores_bounded(
        triplets in proptest::collection::vec(triplet_strategy(5, 7), 0..40),
        seed in 0u64..50,
    ) {
        use mars_metrics::Scorer;
        let mut cfg = MarsConfig::mars(3, 5);
        cfg.seed = seed;
        let mut model = MultiFacetModel::new(cfg, 5, 7);
        let mut s = Scratch::new(3, 5);
        for t in triplets {
            model.train_triplet(t, 0.5, 0.1, &mut s);
        }
        for u in 0..5 {
            for v in 0..7 {
                let score = model.score(u, v);
                prop_assert!((-1.0 - 1e-4..=1.0 + 1e-4).contains(&score),
                    "score {score} out of range");
            }
        }
    }

    /// Training loss is finite (never NaN/inf) for any triplet stream.
    #[test]
    fn losses_stay_finite(
        triplets in proptest::collection::vec(triplet_strategy(5, 7), 1..50),
        gamma in 0.0f32..1.0,
    ) {
        let mut model = MultiFacetModel::new(MarsConfig::mars(2, 5), 5, 7);
        let mut s = Scratch::new(2, 5);
        for t in triplets {
            let l = model.train_triplet(t, gamma, 0.1, &mut s);
            prop_assert!(l.push.is_finite() && l.pull.is_finite() && l.facet.is_finite());
            prop_assert!(l.push >= 0.0, "hinge is non-negative");
        }
    }
}
