//! Property-based tests for the MAR / MARS model invariants.

use mars_core::{io, BatchAccum, MarsConfig, MultiFacetModel, Scratch};
use mars_data::batch::Triplet;
use mars_data::ItemId;
use mars_metrics::Scorer;
use proptest::prelude::*;

fn triplet_strategy(users: u32, items: u32) -> impl Strategy<Value = Triplet> {
    (0..users, 0..items, 0..items).prop_map(|(user, positive, negative)| Triplet {
        user,
        positive,
        negative,
    })
}

/// `score_block` against the two paths that recompute every norm, on
/// every (user, item) pair, to the bit; `when` labels a failure.
fn block_scores_match_the_references(
    model: &MultiFacetModel,
    when: &str,
) -> Result<(), TestCaseError> {
    // Descending, so table row and block position never coincide.
    let items: Vec<ItemId> = (0..model.num_items() as ItemId).rev().collect();
    let (mut block, mut many) = (Vec::new(), Vec::new());
    for u in 0..model.num_users() as u32 {
        model.score_block(u, &items, &mut block);
        model.score_many(u, &items, &mut many);
        for (i, &v) in items.iter().enumerate() {
            let single = model.score(u, v);
            if block[i].to_bits() != many[i].to_bits() || block[i].to_bits() != single.to_bits() {
                return Err(TestCaseError(format!(
                    "{when}: user {u} item {v}: score_block {} score_many {} score {single}",
                    block[i], many[i]
                )));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `score_block` reads item norms from a table the model caches; every
    /// way the parameters can change — a batched step, a reference step, a
    /// raw write through `params_mut()` — and every way a model comes into
    /// being from another — `clone()`, `io::save` → `io::load` — must leave
    /// it agreeing bitwise with `score_many` and `score`, which cache
    /// nothing. (The check after each step also rebuilds the table, so the
    /// next step starts from a warm one.)
    #[test]
    fn cached_item_norms_never_go_stale(
        steps in proptest::collection::vec((0u8..5, triplet_strategy(6, 8)), 1..40),
        spherical in 0u8..2,
        seed in 0u64..50,
    ) {
        let mut cfg = if spherical == 1 { MarsConfig::mars(3, 6) } else { MarsConfig::mar(3, 6) };
        cfg.seed = seed;
        let mut model = MultiFacetModel::new(cfg.clone(), 6, 8);
        let mut s = Scratch::new(3, 6);
        let mut acc = BatchAccum::new(&cfg);
        let path = std::env::temp_dir().join(format!("mars-norm-table-{}", std::process::id()));
        block_scores_match_the_references(&model, "fresh")?;
        for (op, t) in steps {
            match op {
                0 => {
                    model.train_batch(&[(t, 0.5)], 0.2, &mut s, &mut acc);
                }
                1 => {
                    model.train_triplet(t, 0.5, 0.2, &mut s);
                }
                2 => {
                    // Off the sphere — a stale norm is then wrong by a factor
                    // of two, not by an ulp — and exactly back, since the
                    // optimizers expect to start on it.
                    for factor in [0.5, 2.0] {
                        let facets = &mut model.params_mut().item_facets;
                        for x in facets.facet_mut(t.positive as usize, t.user as usize % 3) {
                            *x *= factor;
                        }
                        block_scores_match_the_references(&model, "raw write")?;
                    }
                }
                3 => {
                    let snapshot = model.clone();
                    model.train_triplet(t, 0.5, 0.2, &mut s);
                    block_scores_match_the_references(&snapshot, "clone, original stepped")?;
                }
                _ => {
                    io::save(&model, &path).unwrap();
                    model = io::load(cfg.clone(), &path).unwrap();
                }
            }
            block_scores_match_the_references(&model, &format!("after op {op}"))?;
        }
        std::fs::remove_file(&path).ok();
    }

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
