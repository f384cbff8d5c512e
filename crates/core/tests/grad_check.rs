//! Finite-difference verification of the hand-derived gradients.
//!
//! Strategy: [`MultiFacetModel::triplet_loss`] evaluates the full objective
//! (push + λ_pull·pull + λ_facet·facet) without updating. One training step
//! with a tiny learning rate must therefore decrease that objective by
//! approximately `lr · ‖∇‖²` — and, more stringently, the decrease must
//! match the first-order prediction within a few percent. This validates
//! the entire gradient path (per-facet similarity gradients, softmax-Θ
//! backprop, facet-separating terms) against the loss definition itself.
//!
//! For the spherical model the parameters move on the manifold, so the test
//! compares against the observed-vs-predicted decrease along the *actual*
//! update direction rather than reconstructing tangent gradients by hand.
//!
//! The second half of the file pins the **batched engine** to this
//! reference: a `train_batch` of size 1 must reproduce `train_triplet`'s
//! update for every parameter (both geometries, every optimizer), and
//! repeating that over several sequential steps must stay pinned — the
//! batch path may not leak state between batches.

use mars_core::{BatchAccum, MarsConfig, MultiFacetModel, Scratch};
use mars_data::batch::Triplet;

const TRIPLET: Triplet = Triplet {
    user: 1,
    positive: 2,
    negative: 4,
};
const GAMMA: f32 = 0.6;

fn total(model: &MultiFacetModel, cfg: &MarsConfig) -> f64 {
    let l = model.triplet_loss(TRIPLET, GAMMA);
    l.total(cfg.lambda_pull, cfg.lambda_facet) as f64
}

/// One tiny step must decrease the objective, and the decrease must scale
/// linearly with the learning rate (first-order behaviour).
fn check_first_order(mut cfg: MarsConfig) {
    // The Θ logits have their own learning rate that does not scale with
    // the per-step `lr`; freeze it to a negligible value so the scaling
    // check isolates the facet-embedding gradients.
    cfg.theta_lr = 1e-12;
    let base = MultiFacetModel::new(cfg.clone(), 5, 6);
    let before = total(&base, &cfg);

    // Two steps with lr and lr/2: decreases must be positive and the ratio
    // close to 2 (within 25% — hinge kinks and the manifold retraction are
    // the only sources of curvature at this scale).
    let lr_a = 1e-4f32;
    let lr_b = 5e-5f32;

    let mut model_a = base.clone();
    let mut s = Scratch::new(cfg.facets, cfg.dim);
    model_a.train_triplet(TRIPLET, GAMMA, lr_a, &mut s);
    let dec_a = before - total(&model_a, &cfg);

    let mut model_b = base.clone();
    model_b.train_triplet(TRIPLET, GAMMA, lr_b, &mut s);
    let dec_b = before - total(&model_b, &cfg);

    assert!(
        dec_a > 0.0,
        "{}: objective must decrease (got {dec_a:e})",
        cfg.tag()
    );
    assert!(
        dec_b > 0.0,
        "{}: objective must decrease (got {dec_b:e})",
        cfg.tag()
    );
    let ratio = dec_a / dec_b;
    assert!(
        (ratio - 2.0).abs() < 0.5,
        "{}: decrease should scale ~linearly with lr: ratio {ratio}",
        cfg.tag()
    );
}

#[test]
fn first_order_mars_direct_spherical_calibrated() {
    let mut cfg = MarsConfig::mars(3, 5);
    cfg.seed = 11;
    check_first_order(cfg);
}

#[test]
fn first_order_mars_plain_riemannian() {
    let mut cfg = MarsConfig::mars(3, 5);
    cfg.optimizer = mars_core::OptimKind::Riemannian;
    cfg.seed = 12;
    check_first_order(cfg);
}

#[test]
fn first_order_direct_euclidean() {
    let mut cfg = MarsConfig::mar(3, 5);
    cfg.seed = 13;
    check_first_order(cfg);
}

#[test]
fn first_order_spherical_projected_sgd() {
    let mut cfg = MarsConfig::mars(2, 5);
    cfg.optimizer = mars_core::OptimKind::Sgd;
    cfg.seed = 14;
    check_first_order(cfg);
}

#[test]
fn first_order_without_facet_loss() {
    let mut cfg = MarsConfig::mars(3, 5);
    cfg.lambda_facet = 0.0;
    cfg.seed = 15;
    check_first_order(cfg);
}

#[test]
fn first_order_without_pull_loss() {
    let mut cfg = MarsConfig::mars(3, 5);
    cfg.lambda_pull = 0.0;
    // Seed chosen so the hinge starts *active*: with λ_pull = 0 and an
    // inactive hinge only the (weak) facet term remains, whose first-order
    // decrease at lr = 1e-4 sits below f32 resolution of the total loss.
    cfg.seed = 17;
    check_first_order(cfg);
}

#[test]
fn first_order_single_facet() {
    // K=1: no facet-separating loss, degenerate softmax — the CML-like path.
    let mut cfg = MarsConfig::cml_like(6);
    cfg.seed = 17;
    check_first_order(cfg);
}

// ---------------------------------------------------------------------------
// Batched engine ≡ per-triplet reference at batch size 1
// ---------------------------------------------------------------------------

/// Largest absolute difference across every trainable parameter.
fn max_param_diff(a: &MultiFacetModel, b: &MultiFacetModel) -> f32 {
    fn slice_diff(x: &[f32], y: &[f32]) -> f32 {
        assert_eq!(x.len(), y.len());
        x.iter()
            .zip(y)
            .map(|(p, q)| (p - q).abs())
            .fold(0.0f32, f32::max)
    }
    let (pa, pb) = (a.params(), b.params());
    let theta = slice_diff(a.theta_logits().as_slice(), b.theta_logits().as_slice());
    let users = slice_diff(pa.user_facets.as_slice(), pb.user_facets.as_slice());
    let items = slice_diff(pa.item_facets.as_slice(), pb.item_facets.as_slice());
    theta.max(users).max(items)
}

/// Runs the same triplet sequence through `train_triplet` and through
/// batch-size-1 `train_batch` calls; every parameter must agree within
/// grad-check tolerance after each step.
fn check_batch1_equivalence(cfg: MarsConfig) {
    let lr = 0.05f32;
    let steps = [
        (TRIPLET, GAMMA),
        (
            Triplet {
                user: 0,
                positive: 3,
                negative: 5,
            },
            0.4,
        ),
        (
            Triplet {
                user: 1,
                positive: 2,
                negative: 0,
            },
            0.7,
        ),
        (TRIPLET, GAMMA), // revisit — catches per-batch state leakage
    ];
    let mut reference = MultiFacetModel::new(cfg.clone(), 5, 6);
    let mut batched = reference.clone();
    let mut s = Scratch::new(cfg.facets, cfg.dim);
    let mut acc = BatchAccum::new(&cfg);
    for (i, &(t, gamma)) in steps.iter().enumerate() {
        reference.train_triplet(t, gamma, lr, &mut s);
        batched.train_batch(&[(t, gamma)], lr, &mut s, &mut acc);
        let diff = max_param_diff(&reference, &batched);
        assert!(
            diff <= 1e-5,
            "{}: batch-1 diverged from per-triplet at step {i}: max diff {diff:e}",
            cfg.tag()
        );
    }
}

#[test]
fn batch1_equivalence_mars_direct_spherical_calibrated() {
    let mut cfg = MarsConfig::mars(3, 5);
    cfg.seed = 11;
    check_batch1_equivalence(cfg);
}

#[test]
fn batch1_equivalence_mars_plain_riemannian() {
    let mut cfg = MarsConfig::mars(3, 5);
    cfg.optimizer = mars_core::OptimKind::Riemannian;
    cfg.seed = 12;
    check_batch1_equivalence(cfg);
}

#[test]
fn batch1_equivalence_direct_euclidean() {
    let mut cfg = MarsConfig::mar(3, 5);
    cfg.seed = 13;
    check_batch1_equivalence(cfg);
}

#[test]
fn batch1_equivalence_spherical_projected_sgd() {
    let mut cfg = MarsConfig::mars(2, 5);
    cfg.optimizer = mars_core::OptimKind::Sgd;
    cfg.seed = 14;
    check_batch1_equivalence(cfg);
}

/// A batched step must also satisfy the first-order decrease property on
/// the summed objective (both geometries), mirroring `check_first_order`.
#[test]
fn batched_step_decreases_summed_objective() {
    for mut cfg in [MarsConfig::mars(3, 5), MarsConfig::mar(3, 5)] {
        cfg.seed = 19;
        cfg.theta_lr = 1e-12;
        let batch = [
            (TRIPLET, GAMMA),
            (
                Triplet {
                    user: 2,
                    positive: 1,
                    negative: 3,
                },
                0.5,
            ),
        ];
        let mut model = MultiFacetModel::new(cfg.clone(), 5, 6);
        let total = |m: &MultiFacetModel| -> f64 {
            batch
                .iter()
                .map(|&(t, g)| {
                    m.triplet_loss(t, g)
                        .total(cfg.lambda_pull, cfg.lambda_facet) as f64
                })
                .sum()
        };
        let before = total(&model);
        let mut s = Scratch::new(cfg.facets, cfg.dim);
        let mut acc = BatchAccum::new(&cfg);
        model.train_batch(&batch, 1e-3, &mut s, &mut acc);
        let after = total(&model);
        assert!(
            after < before,
            "{}: batched step must decrease the objective ({before} → {after})",
            cfg.tag()
        );
    }
}

/// With every loss weight at zero and an inactive hinge, the gradients must
/// vanish and a step must not move the objective.
#[test]
fn inactive_hinge_produces_no_motion() {
    let mut cfg = MarsConfig::mars(2, 5);
    cfg.lambda_pull = 0.0;
    cfg.lambda_facet = 0.0;
    cfg.seed = 18;
    let mut model = MultiFacetModel::new(cfg.clone(), 5, 6);
    let mut s = Scratch::new(cfg.facets, cfg.dim);
    // Find a margin that makes the hinge inactive: use gamma = -10 so
    // gamma - s_p + s_q < 0 always (scores are within [-1, 1]).
    let before = model.triplet_loss(TRIPLET, -10.0);
    assert_eq!(before.push, 0.0);
    let theta_before = model.theta(TRIPLET.user);
    model.train_triplet(TRIPLET, -10.0, 0.1, &mut s);
    let after = model.triplet_loss(TRIPLET, -10.0);
    assert_eq!(after.push, 0.0);
    let theta_after = model.theta(TRIPLET.user);
    for (a, b) in theta_before.iter().zip(&theta_after) {
        assert!((a - b).abs() < 1e-6, "theta moved without any active loss");
    }
}
