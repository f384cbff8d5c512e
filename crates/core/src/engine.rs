//! Batched, data-parallel training engine.
//!
//! The seed's [`MultiFacetModel::train_triplet`] walks one triplet at a time
//! and takes an immediate optimizer step per touched row — `3K` steps (and
//! allocations) per triplet. This module implements the batched alternative:
//!
//! 1. **Accumulate** ([`MultiFacetModel::accumulate_batch`]): gradients for
//!    a whole mini-batch are computed against *frozen* parameters and staged
//!    in a [`BatchAccum`]. Entities touched by many triplets (popular items,
//!    active users) sum their contributions instead of stepping repeatedly.
//!    Because this phase takes `&self`, the trainer can run several
//!    accumulators in parallel over user-sharded slices of the batch.
//! 2. **Finish** ([`MultiFacetModel::finish_batch`]): one pass over the
//!    touched entities. For each, the facet-separating term (Eq. 6/12) is
//!    added **once** (matching the objective's per-entity sum rather than
//!    the reference path's per-occurrence stochastic weighting) and all its
//!    rows take a single optimizer step — tangent projection and angular
//!    calibration are evaluated per row on the *summed* gradient, so a batch
//!    of size 1 reproduces the per-triplet step (asserted in
//!    `tests/grad_check.rs`).
//!
//! ## Entity blocks
//!
//! The unit of staging is the **entity**, not the row. Entities are numbered
//! users `[0, U)`, items `[U, U + I)`, and that number keys a
//! [`GradAccumulator`] (direct-indexed, see its module docs) whose block
//! holds the whole gradient of the entity: all `K × D` facet rows — the same
//! layout as [`crate::embedding::FacetTable::entity`], so parameter block and
//! gradient block meet in one fused kernel call. A user's Θ-logit gradient
//! rides in a `K`-wide sibling accumulator keyed by the user id. One index
//! probe per entity per triplet stages everything, and the accumulator's slot
//! list *is* the first-touch list of entities the finish pass walks.
//!
//! Accumulation reuses work across a **run** of consecutive triplets that
//! share their user or positive (the batcher emits one run per sampled
//! positive, `negatives_per_positive` long): softmax(Θ_u), the row norms and
//! the positive-side similarities `g_p` are frozen-parameter functions of
//! those entities alone, so they are computed when the entity changes and
//! not again. Nothing about the result depends on whether a run was
//! detected: the cached values are the ones a fresh computation would give
//! and every triplet still adds its own contribution in batch order.
//!
//! ## Determinism
//!
//! Accumulation order is the batch's triplet order, slot order is
//! first-touch order, and shard merging ([`BatchAccum::merge_from`]) walks
//! shards in a fixed order — so a run is reproducible for a fixed seed,
//! batch size and thread count. The order in which the finish pass visits
//! slots does not enter the result: every slot owns disjoint parameters
//! (its entity's rows, its user's logits) and every gradient was computed
//! before the first of them moved.

use crate::config::{Geometry, MarsConfig, OptimKind};
use crate::kernels::{self, Scratch};
use crate::loss::{self, BatchLoss, TripletLoss};
use crate::model::{MultiFacetModel, Params};
use mars_data::batch::Triplet;
use mars_optim::{GradAccumulator, Optimizer, RiemannianSgd, Sgd};
use mars_tensor::{nonlin, ops, rows, simd};

/// Staging area for one mini-batch of gradients against a
/// [`MultiFacetModel`] (see the module docs for the layout).
pub struct BatchAccum {
    /// One `K × D` block of facet gradients per touched entity, keyed by
    /// entity number.
    rows: GradAccumulator,
    /// Θ-logit gradients, one `K`-wide block per touched user.
    theta: GradAccumulator,
    /// Rows whose step was skipped for a non-finite gradient, over every
    /// batch this accumulator has finished.
    nonfinite_rows: u64,
}

impl BatchAccum {
    /// An empty accumulator sized for the model configuration.
    pub fn new(cfg: &MarsConfig) -> Self {
        Self {
            rows: GradAccumulator::new(cfg.facets * cfg.dim),
            theta: GradAccumulator::new(cfg.facets),
            nonfinite_rows: 0,
        }
    }

    /// Clears all staged state for a fresh mini-batch.
    pub fn begin_batch(&mut self) {
        self.rows.clear();
        self.theta.clear();
    }

    /// Folds a shard accumulator into this one, block by block in the
    /// shard's own first-touch order. Merging shards in a fixed order keeps
    /// the combined slot order — and every block's summation order —
    /// deterministic.
    pub fn merge_from(&mut self, other: &BatchAccum) {
        self.rows.merge_from(&other.rows);
        self.theta.merge_from(&other.theta);
    }

    /// Parameter rows that [`MultiFacetModel::finish_batch`] left unchanged
    /// because their summed gradient was not finite, counted over every
    /// batch finished through this accumulator (0 in a healthy run).
    pub fn nonfinite_rows(&self) -> u64 {
        self.nonfinite_rows
    }
}

/// `dst += src`, elementwise.
#[inline]
fn add_into(dst: &mut [f32], src: &[f32]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

impl MultiFacetModel {
    /// Computes and stages gradients for `batch` (pairs of triplet and
    /// per-user margin `γ_u`) against the current — frozen — parameters.
    ///
    /// Takes `&self`: shard this over a thread scope for data parallelism,
    /// then merge the accumulators in shard order. The facet-separating term
    /// is *not* staged here (see [`MultiFacetModel::finish_batch`]); the
    /// returned sums carry `facet = 0`.
    ///
    /// Facet blocks are borrowed from the tables (no gather), per-entity
    /// work is reused across a run, and gradients land straight in the
    /// entities' accumulator blocks.
    pub fn accumulate_batch(
        &self,
        batch: &[(Triplet, f32)],
        s: &mut Scratch,
        acc: &mut BatchAccum,
    ) -> BatchLoss {
        let Params {
            user_facets,
            item_facets,
        } = self.params();
        let cfg = self.config();
        let (geometry, d) = (cfg.geometry, cfg.dim);
        let spherical = geometry == Geometry::Spherical;
        let item_base = self.num_users();
        let mut out = BatchLoss::default();

        // The current run: entity ids, their table blocks and their slots.
        let (mut user, mut positive) = (None, None);
        let (mut uf, mut pf): (&[f32], &[f32]) = (&[], &[]);
        let (mut slot_u, mut slot_theta, mut slot_p) = (0, 0, 0);
        for &(t, gamma) in batch {
            let fresh_user = user != Some(t.user);
            let fresh_positive = positive != Some(t.positive);
            if fresh_user {
                user = Some(t.user);
                let u = t.user as usize;
                uf = user_facets.entity(u);
                slot_u = acc.rows.slot(u);
                slot_theta = acc.theta.slot(u);
                nonlin::softmax(self.theta_logits().row(u), &mut s.theta);
                if spherical {
                    kernels::row_norms(uf, d, &mut s.nu);
                }
            }
            if fresh_positive {
                positive = Some(t.positive);
                let p = t.positive as usize;
                pf = item_facets.entity(p);
                slot_p = acc.rows.slot(item_base + p);
                if spherical {
                    kernels::row_norms(pf, d, &mut s.np);
                }
            }
            if fresh_user || fresh_positive {
                kernels::similarities_normed(geometry, uf, &s.nu, pf, &s.np, d, &mut s.gp);
            }
            let q = t.negative as usize;
            let qf = item_facets.entity(q);
            let slot_q = acc.rows.slot(item_base + q);
            if spherical {
                kernels::row_norms(qf, d, &mut s.nq);
            }
            kernels::similarities_normed(geometry, uf, &s.nu, qf, &s.nq, d, &mut s.gq);

            let (push, pull) = self.stage_weights(gamma, s);
            out.add(TripletLoss {
                push,
                pull,
                facet: 0.0,
            });
            add_into(acc.theta.block_mut(slot_theta), &s.theta_grad);
            match geometry {
                // Bilinear gradients, added facet by facet straight into the
                // blocks; a zero weight (an inactive hinge zeroes every
                // `w_q`) skips its row.
                Geometry::Spherical => {
                    rows::axpy_rows(&s.w_p, pf, acc.rows.block_mut(slot_u), d);
                    rows::axpy_rows(&s.w_q, qf, acc.rows.block_mut(slot_u), d);
                    rows::axpy_rows(&s.w_p, uf, acc.rows.block_mut(slot_p), d);
                    rows::axpy_rows(&s.w_q, uf, acc.rows.block_mut(slot_q), d);
                }
                // One fused three-output pass per facet into scratch, then
                // three block adds.
                Geometry::Euclidean => {
                    kernels::similarity_gradients(
                        geometry, &s.w_p, &s.w_q, uf, pf, qf, &mut s.du, &mut s.dp, &mut s.dq, d,
                    );
                    add_into(acc.rows.block_mut(slot_u), &s.du);
                    add_into(acc.rows.block_mut(slot_p), &s.dp);
                    add_into(acc.rows.block_mut(slot_q), &s.dq);
                }
            }
        }
        out
    }

    /// Walks the touched entities once: adds each one's facet-separating
    /// gradient to its staged block and steps all its rows, then clears the
    /// accumulator. Returns the summed facet-separation loss (counted once
    /// per unique entity in the batch).
    pub fn finish_batch(&mut self, acc: &mut BatchAccum, lr: f32, s: &mut Scratch) -> f64 {
        let cfg = self.config();
        let (k, d, geometry) = (cfg.facets, cfg.dim, cfg.geometry);
        let (optimizer, theta_lr) = (cfg.optimizer, cfg.theta_lr);
        let separation = (cfg.lambda_facet > 0.0 && k > 1).then_some((cfg.alpha, cfg.lambda_facet));
        let mut facet_loss = 0.0f64;
        let mut nonfinite = 0usize;

        // Θ logits: plain SGD on the softmax parameterization.
        let logits = self.theta_logits_mut();
        acc.theta
            .for_each(|user, grad| ops::axpy(-theta_lr, grad, logits.row_mut(user)));

        let Params {
            user_facets,
            item_facets,
        } = self.params_mut();
        let num_users = user_facets.rows();
        for slot in 0..acc.rows.len() {
            let key = acc.rows.key(slot);
            let x = match key.checked_sub(num_users) {
                None => user_facets.entity_mut(key),
                Some(item) => item_facets.entity_mut(item),
            };
            let g = acc.rows.block_mut(slot);
            if let Some((alpha, lambda)) = separation {
                facet_loss += loss::facet_separation(geometry, alpha, lambda, x, d, g) as f64;
            }
            match (optimizer, geometry) {
                (OptimKind::CalibratedRiemannian, _) => {
                    nonfinite += simd::calibrated_rsgd_rows(x, g, d, lr);
                }
                (OptimKind::Sgd, Geometry::Euclidean) => {
                    nonfinite += simd::sgd_clip_rows(x, g, d, lr, 1.0);
                }
                (OptimKind::Riemannian, _) => {
                    let rsgd = RiemannianSgd::new(lr);
                    for (x, g) in x.chunks_exact_mut(d).zip(g.chunks_exact(d)) {
                        rsgd.step_buffered(x, g, &mut s.tmp);
                    }
                }
                (OptimKind::Sgd, Geometry::Spherical) => {
                    // Projected SGD: Euclidean step, renormalize.
                    let sgd = Sgd::new(lr);
                    for (x, g) in x.chunks_exact_mut(d).zip(g.chunks_exact(d)) {
                        sgd.step(x, g);
                        ops::normalize(x);
                    }
                }
            }
        }
        acc.rows.clear();
        acc.theta.clear();
        acc.nonfinite_rows += nonfinite as u64;
        facet_loss
    }

    /// One-stop batched update: begin + accumulate + finish. Returns the
    /// loss sums (facet term counted once per unique entity).
    pub fn train_batch(
        &mut self,
        batch: &[(Triplet, f32)],
        lr: f32,
        s: &mut Scratch,
        acc: &mut BatchAccum,
    ) -> BatchLoss {
        acc.begin_batch();
        let mut out = self.accumulate_batch(batch, s, acc);
        let facet = self.finish_batch(acc, lr, s);
        out.facet += facet;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MarsConfig;

    fn batch() -> Vec<(Triplet, f32)> {
        vec![
            (
                Triplet {
                    user: 0,
                    positive: 1,
                    negative: 4,
                },
                0.5,
            ),
            (
                Triplet {
                    user: 1,
                    positive: 1,
                    negative: 3,
                },
                0.4,
            ),
            (
                Triplet {
                    user: 0,
                    positive: 2,
                    negative: 4,
                },
                0.5,
            ),
        ]
    }

    #[test]
    fn batched_training_reduces_loss() {
        for cfg in [MarsConfig::mars(3, 6), MarsConfig::mar(3, 6)] {
            let mut m = MultiFacetModel::new(cfg.clone(), 4, 6);
            let mut s = Scratch::new(3, 6);
            let mut acc = BatchAccum::new(&cfg);
            let before: f32 = batch()
                .iter()
                .map(|&(t, g)| {
                    m.triplet_loss(t, g)
                        .total(cfg.lambda_pull, cfg.lambda_facet)
                })
                .sum();
            for _ in 0..60 {
                m.train_batch(&batch(), 0.05, &mut s, &mut acc);
            }
            let after: f32 = batch()
                .iter()
                .map(|&(t, g)| {
                    m.triplet_loss(t, g)
                        .total(cfg.lambda_pull, cfg.lambda_facet)
                })
                .sum();
            assert!(after < before, "{}: {before} → {after}", cfg.tag());
        }
    }

    #[test]
    fn batched_training_preserves_sphere() {
        let cfg = MarsConfig::mars(2, 5);
        let mut m = MultiFacetModel::new(cfg.clone(), 4, 6);
        let mut s = Scratch::new(2, 5);
        let mut acc = BatchAccum::new(&cfg);
        for _ in 0..40 {
            m.train_batch(&batch(), 0.1, &mut s, &mut acc);
        }
        assert!(m.check_norm_invariant(1e-3));
    }

    #[test]
    fn repeated_rows_sum_instead_of_duplicate_steps() {
        // Items 1 and 4 and user 0 repeat across the batch: staging must
        // dedup to one block per unique entity.
        let cfg = MarsConfig::mars(2, 4);
        let m = MultiFacetModel::new(cfg.clone(), 4, 6);
        let mut s = Scratch::new(2, 4);
        let mut acc = BatchAccum::new(&cfg);
        acc.begin_batch();
        let bl = m.accumulate_batch(&batch(), &mut s, &mut acc);
        assert_eq!(bl.count, 3);
        // Unique entities: users {0,1}, items {1,2,3,4}, each a K × D block.
        assert_eq!(acc.rows.len(), 6);
        assert_eq!(acc.rows.dim(), 2 * 4);
        // Θ blocks: one per unique user.
        assert_eq!(acc.theta.len(), 2);
        // First-touch order, users numbered before items (4 users).
        let mut order = Vec::new();
        acc.rows.for_each(|key, _| order.push(key));
        assert_eq!(order, vec![0, 4 + 1, 4 + 4, 1, 4 + 3, 4 + 2]);
    }

    /// Every staged block of `acc`, by key, as bit patterns.
    fn staged_bits(acc: &BatchAccum) -> Vec<(usize, Vec<u32>)> {
        let mut blocks = Vec::new();
        for (tag, part) in [(0, &acc.rows), (1 << 32, &acc.theta)] {
            part.for_each(|key, g| {
                blocks.push((tag + key, g.iter().map(|v| v.to_bits()).collect()))
            });
        }
        blocks.sort();
        blocks
    }

    #[test]
    fn merge_matches_single_accumulation() {
        // Sharding by user keeps every user's triplets in one shard, in
        // batch order; items shared between shards (item 1 here) sum their
        // two per-shard blocks, which for two contributions is the same
        // f32 sum in either order — so the merge is exact, block by block.
        for cfg in [MarsConfig::mars(2, 4), MarsConfig::mar(2, 4)] {
            let m = MultiFacetModel::new(cfg.clone(), 4, 6);
            let mut s = Scratch::new(2, 4);
            let all = batch();

            let mut single = BatchAccum::new(&cfg);
            single.begin_batch();
            m.accumulate_batch(&all, &mut s, &mut single);

            let shard = |user: u32| -> BatchAccum {
                let part: Vec<_> = all
                    .iter()
                    .copied()
                    .filter(|(t, _)| t.user == user)
                    .collect();
                let mut acc = BatchAccum::new(&cfg);
                acc.begin_batch();
                m.accumulate_batch(&part, &mut Scratch::new(2, 4), &mut acc);
                acc
            };
            let mut merged = BatchAccum::new(&cfg);
            merged.begin_batch();
            merged.merge_from(&shard(0));
            merged.merge_from(&shard(1));
            assert_eq!(staged_bits(&single), staged_bits(&merged), "{}", cfg.tag());
        }
    }

    #[test]
    fn run_reuse_stages_the_same_blocks_as_no_reuse() {
        // Two runs (a user/positive pair with three negatives each, the
        // batcher's shape) over disjoint entities. Back to back, the engine
        // reuses each run's user/positive work; interleaved, every triplet
        // changes both user and positive and nothing is reused. Each
        // entity's contributions keep their relative order, so the staged
        // blocks must be bit-equal.
        let run = |user, positive, negatives: [u32; 3], gamma: f32| {
            negatives.map(|negative| {
                (
                    Triplet {
                        user,
                        positive,
                        negative,
                    },
                    gamma,
                )
            })
        };
        let (a, b) = (run(0, 1, [2, 3, 2], 0.5), run(1, 4, [5, 6, 7], 0.3));
        let back_to_back: Vec<_> = a.iter().chain(&b).copied().collect();
        let interleaved: Vec<_> = a.iter().zip(&b).flat_map(|(x, y)| [*x, *y]).collect();
        for cfg in [MarsConfig::mars(3, 5), MarsConfig::mar(3, 5)] {
            let mut m = MultiFacetModel::new(cfg.clone(), 2, 8);
            let mut s = Scratch::new(3, 5);
            let mut acc = BatchAccum::new(&cfg);
            // A few steps first, so Θ and the facets are off their
            // symmetric initial values.
            for _ in 0..3 {
                m.train_batch(&back_to_back, 0.1, &mut s, &mut acc);
            }
            let stage = |batch: &[(Triplet, f32)]| {
                let mut acc = BatchAccum::new(&cfg);
                acc.begin_batch();
                let loss = m.accumulate_batch(batch, &mut Scratch::new(3, 5), &mut acc);
                (staged_bits(&acc), loss.count)
            };
            assert_eq!(stage(&back_to_back), stage(&interleaved), "{}", cfg.tag());
        }
    }

    #[test]
    fn non_finite_gradients_skip_the_row_and_are_counted() {
        let cfg = MarsConfig::mars(2, 4);
        let mut m = MultiFacetModel::new(cfg.clone(), 4, 6);
        let mut s = Scratch::new(2, 4);
        let mut acc = BatchAccum::new(&cfg);
        acc.begin_batch();
        m.accumulate_batch(&batch(), &mut s, &mut acc);
        // Poison facet 1 of user 0's staged block.
        let slot = acc.rows.slot(0);
        acc.rows.block_mut(slot)[4 + 2] = f32::NAN;
        let before = m.clone();
        m.finish_batch(&mut acc, 0.1, &mut s);
        assert_eq!(acc.nonfinite_rows(), 1);
        let facets = |m: &MultiFacetModel, f: usize| m.params().user_facets.facet(0, f).to_vec();
        assert_eq!(facets(&m, 1), facets(&before, 1), "poisoned row moved");
        assert_ne!(facets(&m, 0), facets(&before, 0), "healthy row did not");
        assert!(m.norm_report().finite);
    }
}
