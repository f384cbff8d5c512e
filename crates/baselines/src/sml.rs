//! SML — Symmetric Metric Learning with adaptive margins
//! (Li et al., AAAI 2020).
//!
//! Two symmetric hinge losses — the usual user-centric one and an
//! *item-centric* one that pushes the negative item away from the positive
//! item — with **learnable** margins per user and per item:
//!
//! ```text
//! L =  Σ [d(u,i)² + m_u − d(u,j)²]₊          (user-centric)
//!    + λ Σ [d(u,i)² + m_i − d(i,j)²]₊        (item-centric)
//!    − γ (mean(m_u) + mean(m_i))             (margin reward)
//! ```
//!
//! Margins are clamped to `[0.05, 1]`; the reward term keeps them from
//! collapsing to the floor. Embeddings live in the unit ball.
//!
//! Runs on the shared batch/accumulate triplet engine
//! (`common::fit_triplets`) like BPR / CML / TransCF: the embedding-row
//! updates ride [`TripletUpdate::triplet_update`] (both hinges evaluated
//! against the frozen parameters, their row contributions summed), and the
//! learnable margins ride the [`TripletUpdate::side_update`] hook, which
//! the engine calls once per triplet in batch order. SML thereby inherits
//! the worker pool and the vectorized kernels.

use crate::common::{fit_triplets, BaselineConfig, ImplicitRecommender, TripletUpdate};
use mars_core::embedding::EmbeddingTable;
use mars_data::batch::Triplet;
use mars_data::dataset::Dataset;
use mars_data::{ItemId, UserId};
use mars_metrics::Scorer;
use mars_runtime::rng::seeds;
use mars_tensor::ops;
use rand::rngs::StdRng; // audit:allow(determinism) — only ever seeded (init/datagen)
use rand::SeedableRng;

/// Weight of the item-centric loss.
const LAMBDA_ITEM: f32 = 0.5;
/// Margin reward coefficient γ.
const GAMMA_MARGIN: f32 = 0.03;
/// Margin clamp range.
const MARGIN_MIN: f32 = 0.05;
const MARGIN_MAX: f32 = 1.0;

/// Symmetric metric learning.
pub struct Sml {
    cfg: BaselineConfig,
    user: EmbeddingTable,
    item: EmbeddingTable,
    user_margin: Vec<f32>,
    item_margin: Vec<f32>,
}

impl Sml {
    /// Creates an (untrained) model with margins at the config value.
    pub fn new(cfg: BaselineConfig, num_users: usize, num_items: usize) -> Self {
        cfg.validate().expect("invalid baseline config");
        let mut rng = StdRng::seed_from_u64(seeds::model_init(cfg.seed)); // audit:allow(determinism) — seeded: pure function of the seed
        let scale = 1.0 / (cfg.dim as f32).sqrt();
        let mut user = EmbeddingTable::uniform(&mut rng, num_users, cfg.dim, scale);
        let mut item = EmbeddingTable::uniform(&mut rng, num_items, cfg.dim, scale);
        user.clip_rows_to_unit_ball();
        item.clip_rows_to_unit_ball();
        let m0 = cfg.margin.clamp(MARGIN_MIN, MARGIN_MAX);
        Self {
            user_margin: vec![m0; num_users],
            item_margin: vec![m0; num_items],
            cfg,
            user,
            item,
        }
    }

    /// Current margins (tests / diagnostics).
    pub fn margins(&self) -> (&[f32], &[f32]) {
        (&self.user_margin, &self.item_margin)
    }

    /// The two hinge activity flags of a triplet against the current
    /// parameters (user-centric, item-centric).
    #[inline]
    fn activities(&self, t: Triplet) -> (bool, bool) {
        let u = self.user.row(t.user as usize);
        let i = self.item.row(t.positive as usize);
        let j = self.item.row(t.negative as usize);
        let d_ui = ops::dist_sq(u, i);
        let d_uj = ops::dist_sq(u, j);
        let d_ij = ops::dist_sq(i, j);
        (
            d_ui + self.user_margin[t.user as usize] - d_uj > 0.0,
            d_ui + self.item_margin[t.positive as usize] - d_ij > 0.0,
        )
    }
}

impl Scorer for Sml {
    fn score(&self, user: UserId, item: ItemId) -> f32 {
        -ops::dist_sq(self.user.row(user as usize), self.item.row(item as usize))
    }

    fn score_block(&self, user: UserId, items: &[ItemId], out: &mut Vec<f32>) {
        crate::common::fused_score_block(
            crate::common::BlockKernel::NegDistSq,
            self.user.row(user as usize),
            self.item.as_slice(),
            self.cfg.dim,
            items,
            out,
        );
    }
}

impl TripletUpdate for Sml {
    fn dim(&self) -> usize {
        self.cfg.dim
    }

    fn triplet_update(&self, t: Triplet, up: &mut [f32], ui: &mut [f32], uj: &mut [f32]) -> bool {
        let (user_active, item_active) = self.activities(t);
        if !user_active && !item_active {
            return false;
        }
        let u = self.user.row(t.user as usize);
        let i = self.item.row(t.positive as usize);
        let j = self.item.row(t.negative as usize);
        // Ascent updates (the engine applies `row += lr · upd`): the
        // descent direction of each active hinge, negated. User-centric
        // (d_ui² + m_u − d_uj²): ∂/∂u = 2(j−i)·…, see the derivation in
        // the loss docs; item-centric weighted by λ.
        for d in 0..self.cfg.dim {
            let (uu, ii, jj) = (u[d], i[d], j[d]);
            let mut gu = 0.0;
            let mut gi = 0.0;
            let mut gj = 0.0;
            if user_active {
                gu -= 2.0 * (jj - ii);
                gi -= 2.0 * (ii - uu);
                gj -= 2.0 * (uu - jj);
            }
            if item_active {
                let w = LAMBDA_ITEM * 2.0;
                gi -= w * ((ii - uu) - (ii - jj));
                gu -= w * (uu - ii);
                gj -= w * (ii - jj);
            }
            up[d] = gu;
            ui[d] = gi;
            uj[d] = gj;
        }
        true
    }

    fn side_update(&mut self, t: Triplet) {
        // Hinge gradient on an active margin is +1; the reward −γ pushes
        // margins up always. Activities are recomputed against the current
        // (frozen within a batch) rows and the *current* margins, so margin
        // updates cascade across a user's repeated triplets like the
        // reference per-sample loop. The distances this recomputes match
        // `triplet_update`'s, but the flags need not: the margins may have
        // moved since — and the engine runs this hook in batch order on the
        // caller while `triplet_update` ran sharded on the pool, so there
        // is no per-triplet channel to reuse the distances through.
        let (user_active, item_active) = self.activities(t);
        let lr = self.cfg.lr;
        let mu = &mut self.user_margin[t.user as usize];
        *mu -= lr * (if user_active { 1.0 } else { 0.0 } - GAMMA_MARGIN);
        *mu = mu.clamp(MARGIN_MIN, MARGIN_MAX);
        let mi = &mut self.item_margin[t.positive as usize];
        *mi -= lr * LAMBDA_ITEM * (if item_active { 1.0 } else { 0.0 }) - lr * GAMMA_MARGIN;
        *mi = mi.clamp(MARGIN_MIN, MARGIN_MAX);
    }

    fn apply_user(&mut self, u: usize, lr: f32, upd: &[f32]) {
        let row = self.user.row_mut(u);
        ops::axpy(lr, upd, row);
        ops::clip_to_unit_ball(row);
    }

    fn apply_item(&mut self, v: usize, lr: f32, upd: &[f32]) {
        let row = self.item.row_mut(v);
        ops::axpy(lr, upd, row);
        ops::clip_to_unit_ball(row);
    }
}

impl ImplicitRecommender for Sml {
    fn fit(&mut self, data: &Dataset) {
        let cfg = self.cfg.clone();
        fit_triplets(self, data, &cfg);
    }

    fn name(&self) -> &'static str {
        "SML"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::tests_support::{improves_over_untrained, tiny_dataset};

    #[test]
    fn training_improves_ranking() {
        let data = tiny_dataset();
        let make = || {
            Sml::new(
                BaselineConfig::quick(16),
                data.num_users(),
                data.num_items(),
            )
        };
        improves_over_untrained(make, &data);
    }

    #[test]
    fn sharded_training_is_deterministic_and_learns() {
        let data = tiny_dataset();
        let cfg = BaselineConfig {
            threads: 4,
            ..BaselineConfig::quick(16)
        };
        improves_over_untrained(
            || Sml::new(cfg.clone(), data.num_users(), data.num_items()),
            &data,
        );
        let run = || {
            let mut m = Sml::new(cfg.clone(), data.num_users(), data.num_items());
            m.fit(&data);
            let mut scores = Vec::new();
            for u in 0..data.num_users() as u32 {
                for v in 0..data.num_items() as u32 {
                    scores.push(m.score(u, v).to_bits());
                }
            }
            (scores, m.margins().0.to_vec(), m.margins().1.to_vec())
        };
        assert_eq!(run(), run(), "sharded SML training not deterministic");
    }

    #[test]
    fn margins_stay_in_range_and_adapt() {
        let data = tiny_dataset();
        let mut m = Sml::new(BaselineConfig::quick(8), data.num_users(), data.num_items());
        let before = m.margins().0.to_vec();
        m.fit(&data);
        let (user_m, item_m) = m.margins();
        assert!(user_m
            .iter()
            .all(|&v| (MARGIN_MIN..=MARGIN_MAX).contains(&v)));
        assert!(item_m
            .iter()
            .all(|&v| (MARGIN_MIN..=MARGIN_MAX).contains(&v)));
        // At least some margins moved away from the initial value.
        let moved = user_m
            .iter()
            .zip(&before)
            .filter(|(a, b)| (*a - *b).abs() > 1e-4)
            .count();
        assert!(moved > 0, "margins never adapted");
    }

    #[test]
    fn ball_constraint_holds() {
        let data = tiny_dataset();
        let mut m = Sml::new(BaselineConfig::quick(8), data.num_users(), data.num_items());
        m.fit(&data);
        assert!(m.user.max_row_norm() <= 1.0 + 1e-5);
        assert!(m.item.max_row_norm() <= 1.0 + 1e-5);
    }

    #[test]
    fn score_block_is_bit_identical_to_score_many() {
        let data = tiny_dataset();
        let mut m = Sml::new(BaselineConfig::quick(8), data.num_users(), data.num_items());
        m.fit(&data);
        let items: Vec<u32> = (0..data.num_items() as u32).rev().collect();
        let (mut many, mut block) = (Vec::new(), Vec::new());
        for u in 0..data.num_users() as u32 {
            m.score_many(u, &items, &mut many);
            m.score_block(u, &items, &mut block);
            assert_eq!(
                many.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                block.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "user {u} diverged"
            );
            // The full Scorer contract: `score` must agree bitwise too (the
            // sequential protocol scores positives through it).
            for (idx, &v) in items.iter().enumerate() {
                assert_eq!(m.score(u, v).to_bits(), block[idx].to_bits());
            }
        }
    }
}
