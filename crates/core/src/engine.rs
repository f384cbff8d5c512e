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
//! holds the whole gradient of the entity: all `K × D` facet rows in the
//! direct parameterization — the same layout as
//! [`crate::embedding::FacetTable::entity`], so parameter block and gradient
//! block meet in one fused kernel call — or the `D`-wide universal row in the
//! factored one. A user's Θ-logit gradient rides in a `K`-wide sibling
//! accumulator keyed by the user id. One index probe per entity per triplet
//! stages everything, and the accumulator's slot list *is* the first-touch
//! list of entities the finish pass walks.
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

use crate::config::{FacetParam, Geometry, MarsConfig, OptimKind};
use crate::kernels::{self, Scratch};
use crate::loss::{self, BatchLoss, TripletLoss};
use crate::model::{MultiFacetModel, Params};
use mars_data::batch::Triplet;
use mars_optim::{GradAccumulator, Optimizer, RiemannianSgd, Sgd};
use mars_tensor::{nonlin, ops, rows, simd, Matrix};

/// Staging area for one mini-batch of gradients against a
/// [`MultiFacetModel`] (see the module docs for the layout).
pub struct BatchAccum {
    /// One block per touched entity, keyed by entity number: `K × D` facet
    /// gradients (direct) or the `D`-wide universal gradient (factored).
    rows: GradAccumulator,
    /// Θ-logit gradients, one `K`-wide block per touched user.
    theta: GradAccumulator,
    /// Projection-matrix gradients (factored mode only, else empty).
    dphi: Vec<Matrix>,
    dpsi: Vec<Matrix>,
    /// Rows whose step was skipped for a non-finite gradient, over every
    /// batch this accumulator has finished.
    nonfinite_rows: u64,
}

impl BatchAccum {
    /// An empty accumulator sized for the model configuration.
    pub fn new(cfg: &MarsConfig) -> Self {
        let projections = |n: usize| (0..n).map(|_| Matrix::zeros(cfg.dim, cfg.dim)).collect();
        let (block, projected) = match cfg.parameterization {
            FacetParam::Factored => (cfg.dim, cfg.facets),
            FacetParam::Direct => (cfg.facets * cfg.dim, 0),
        };
        Self {
            rows: GradAccumulator::new(block),
            theta: GradAccumulator::new(cfg.facets),
            dphi: projections(projected),
            dpsi: projections(projected),
            nonfinite_rows: 0,
        }
    }

    /// Clears all staged state for a fresh mini-batch.
    pub fn begin_batch(&mut self) {
        self.rows.clear();
        self.theta.clear();
        for m in self.dphi.iter_mut().chain(self.dpsi.iter_mut()) {
            m.as_mut_slice().fill(0.0);
        }
    }

    /// Folds a shard accumulator into this one, block by block in the
    /// shard's own first-touch order. Merging shards in a fixed order keeps
    /// the combined slot order — and every block's summation order —
    /// deterministic.
    pub fn merge_from(&mut self, other: &BatchAccum) {
        self.rows.merge_from(&other.rows);
        self.theta.merge_from(&other.theta);
        for (m, o) in self.dphi.iter_mut().zip(&other.dphi) {
            m.add_scaled(1.0, o);
        }
        for (m, o) in self.dpsi.iter_mut().zip(&other.dpsi) {
            m.add_scaled(1.0, o);
        }
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
    pub fn accumulate_batch(
        &self,
        batch: &[(Triplet, f32)],
        s: &mut Scratch,
        acc: &mut BatchAccum,
    ) -> BatchLoss {
        match self.params() {
            Params::Direct { .. } => self.accumulate_direct(batch, s, acc),
            Params::Factored { .. } => self.accumulate_factored(batch, s, acc),
        }
    }

    /// Direct parameterization: facet blocks are borrowed from the tables
    /// (no gather), per-entity work is reused across a run, and gradients
    /// land straight in the entities' accumulator blocks.
    fn accumulate_direct(
        &self,
        batch: &[(Triplet, f32)],
        s: &mut Scratch,
        acc: &mut BatchAccum,
    ) -> BatchLoss {
        let Params::Direct {
            user_facets,
            item_facets,
        } = self.params()
        else {
            unreachable!("accumulate_direct on a factored model");
        };
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

    /// Factored parameterization (the ablation path): facets are projected
    /// on the fly, so every triplet gathers its three facet sets and the
    /// facet gradients chain back to the universal rows and the shared
    /// projections (frozen for the whole batch).
    fn accumulate_factored(
        &self,
        batch: &[(Triplet, f32)],
        s: &mut Scratch,
        acc: &mut BatchAccum,
    ) -> BatchLoss {
        let Params::Factored {
            user_emb,
            item_emb,
            phi,
            psi,
        } = self.params()
        else {
            unreachable!("accumulate_factored on a direct model");
        };
        let d = self.config().dim;
        let item_base = self.num_users();
        let mut out = BatchLoss::default();
        for &(t, gamma) in batch {
            let (u, p, q) = (t.user as usize, t.positive as usize, t.negative as usize);
            nonlin::softmax(self.theta_logits().row(u), &mut s.theta);
            self.gather_triplet(t, s);
            let (push, pull) = self.stage_triplet(gamma, s);
            out.add(TripletLoss {
                push,
                pull,
                facet: 0.0,
            });
            let slot_theta = acc.theta.slot(u);
            add_into(acc.theta.block_mut(slot_theta), &s.theta_grad);
            for (key, row, grads) in [
                (u, u, &s.du),
                (item_base + p, p, &s.dp),
                (item_base + q, q, &s.dq),
            ] {
                let (projections, emb, dmats) = if key < item_base {
                    (phi, user_emb, &mut acc.dphi)
                } else {
                    (psi, item_emb, &mut acc.dpsi)
                };
                let slot = acc.rows.slot(key);
                for (f, (projection, dmat)) in projections.iter().zip(dmats).enumerate() {
                    let grad = rows::row(grads, d, f);
                    // Chain rule to the universal embedding, and the
                    // projection gradient ∂L/∂φ_k = u ⊗ ∂L/∂u^k.
                    projection.matvec(grad, &mut s.tmp);
                    add_into(acc.rows.block_mut(slot), &s.tmp);
                    dmat.ger(1.0, emb.row(row), grad);
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

        match self.params_mut() {
            Params::Direct {
                user_facets,
                item_facets,
            } => {
                let num_users = user_facets.rows();
                for slot in 0..acc.rows.len() {
                    let key = acc.rows.key(slot);
                    let x = match key.checked_sub(num_users) {
                        None => user_facets.entity_mut(key),
                        Some(item) => item_facets.entity_mut(item),
                    };
                    let g = acc.rows.block_mut(slot);
                    if let Some((alpha, lambda)) = separation {
                        facet_loss +=
                            loss::facet_separation(geometry, alpha, lambda, x, d, g) as f64;
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
            }
            Params::Factored {
                user_emb,
                item_emb,
                phi,
                psi,
            } => {
                let num_users = user_emb.rows();
                for slot in 0..acc.rows.len() {
                    let key = acc.rows.key(slot);
                    let (emb, row, projections, dmats) = match key.checked_sub(num_users) {
                        None => (&mut *user_emb, key, &*phi, &mut acc.dphi),
                        Some(item) => (&mut *item_emb, item, &*psi, &mut acc.dpsi),
                    };
                    let g = acc.rows.block_mut(slot);
                    if let Some((alpha, lambda)) = separation {
                        for (f, projection) in projections.iter().enumerate() {
                            projection.matvec_t(emb.row(row), rows::row_mut(&mut s.uf, d, f));
                        }
                        s.du.fill(0.0);
                        facet_loss +=
                            loss::facet_separation(geometry, alpha, lambda, &s.uf, d, &mut s.du)
                                as f64;
                        for (f, (projection, dmat)) in projections.iter().zip(dmats).enumerate() {
                            let grad = rows::row(&s.du, d, f);
                            projection.matvec(grad, &mut s.tmp);
                            add_into(g, &s.tmp);
                            dmat.ger(1.0, emb.row(row), grad);
                        }
                    }
                    // Universal embedding step + ball constraint (Eq. 11).
                    nonfinite += simd::sgd_clip_rows(emb.row_mut(row), g, d, lr, 1.0);
                }
                for f in 0..k {
                    phi[f].add_scaled(-lr, &acc.dphi[f]);
                    psi[f].add_scaled(-lr, &acc.dpsi[f]);
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
        let facets = |m: &MultiFacetModel, f: usize| match m.params() {
            Params::Direct { user_facets, .. } => user_facets.facet(0, f).to_vec(),
            Params::Factored { .. } => unreachable!(),
        };
        assert_eq!(facets(&m, 1), facets(&before, 1), "poisoned row moved");
        assert_ne!(facets(&m, 0), facets(&before, 0), "healthy row did not");
        assert!(m.norm_report().finite);
    }
}
