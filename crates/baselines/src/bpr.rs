//! BPR-MF (Rendle et al., UAI 2009).
//!
//! Matrix factorization trained with the Bayesian personalized ranking
//! criterion: for triplets `(u, i, j)` with `i` observed and `j` not,
//! maximize `ln σ(x̂_ui − x̂_uj)` with `x̂_uv = p_u · q_v`, plus L2
//! regularization. Runs on the shared batch/accumulate triplet engine
//! (`common::fit_triplets`).
//!
//! No bias terms: the MARS paper specifies "matrix factorization as the
//! prediction component" (`x̂ = p·q`), matching the DeepRec implementation
//! it cites for this baseline.

use crate::common::{fit_triplets, BaselineConfig, ImplicitRecommender, TripletUpdate};
use mars_core::embedding::EmbeddingTable;
use mars_data::batch::Triplet;
use mars_data::dataset::Dataset;
use mars_data::{ItemId, UserId};
use mars_metrics::Scorer;
use mars_runtime::rng::seeds;
use mars_tensor::{nonlin, ops};
use rand::rngs::StdRng; // audit:allow(determinism) — only ever seeded (init/datagen)
use rand::SeedableRng;

/// L2 regularization weight of every BPR parameter.
const REG: f32 = 1e-4;

/// BPR matrix factorization.
pub struct Bpr {
    cfg: BaselineConfig,
    user: EmbeddingTable,
    item: EmbeddingTable,
}

impl Bpr {
    /// Creates an (untrained) model for the catalogue sizes.
    pub fn new(cfg: BaselineConfig, num_users: usize, num_items: usize) -> Self {
        cfg.validate().expect("invalid baseline config");
        let mut rng = StdRng::seed_from_u64(seeds::model_init(cfg.seed)); // audit:allow(determinism) — seeded: pure function of the seed
        let scale = 1.0 / (cfg.dim as f32).sqrt();
        Self {
            user: EmbeddingTable::uniform(&mut rng, num_users, cfg.dim, scale),
            item: EmbeddingTable::uniform(&mut rng, num_items, cfg.dim, scale),
            cfg,
        }
    }
}

impl Scorer for Bpr {
    fn score(&self, user: UserId, item: ItemId) -> f32 {
        ops::dot(self.user.row(user as usize), self.item.row(item as usize))
    }

    fn score_block(&self, user: UserId, items: &[ItemId], out: &mut Vec<f32>) {
        crate::common::fused_score_block(
            crate::common::BlockKernel::Dot,
            self.user.row(user as usize),
            self.item.as_slice(),
            self.cfg.dim,
            items,
            out,
        );
    }
}

impl TripletUpdate for Bpr {
    fn dim(&self) -> usize {
        self.cfg.dim
    }

    fn triplet_update(&self, t: Triplet, up: &mut [f32], ui: &mut [f32], uj: &mut [f32]) -> bool {
        let u = self.user.row(t.user as usize);
        let qi = self.item.row(t.positive as usize);
        let qj = self.item.row(t.negative as usize);
        let x_uij = ops::dot(u, qi) - ops::dot(u, qj);
        // d/dx [−ln σ(x)] = −σ(−x)
        let coeff = nonlin::sigmoid(-x_uij);
        // Ascent updates (p_u, q_i, q_j share p_u), evaluated at the frozen
        // parameters.
        for d in 0..self.cfg.dim {
            up[d] = coeff * (qi[d] - qj[d]) - REG * u[d];
            ui[d] = coeff * u[d] - REG * qi[d];
            uj[d] = -coeff * u[d] - REG * qj[d];
        }
        true
    }

    fn apply_user(&mut self, u: usize, lr: f32, upd: &[f32]) {
        ops::axpy(lr, upd, self.user.row_mut(u));
    }

    fn apply_item(&mut self, v: usize, lr: f32, upd: &[f32]) {
        ops::axpy(lr, upd, self.item.row_mut(v));
    }
}

impl ImplicitRecommender for Bpr {
    fn fit(&mut self, data: &Dataset) {
        let cfg = self.cfg.clone();
        fit_triplets(self, data, &cfg);
    }

    fn name(&self) -> &'static str {
        "BPR"
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
            Bpr::new(
                BaselineConfig::quick(16),
                data.num_users(),
                data.num_items(),
            )
        };
        improves_over_untrained(make, &data);
    }

    #[test]
    fn scores_are_finite() {
        let data = tiny_dataset();
        let mut m = Bpr::new(BaselineConfig::quick(8), data.num_users(), data.num_items());
        m.fit(&data);
        for u in 0..data.num_users() as u32 {
            for v in 0..data.num_items() as u32 {
                assert!(m.score(u, v).is_finite());
            }
        }
    }

    #[test]
    fn empty_data_is_noop() {
        let data = mars_data::Dataset::leave_one_out("e", 3, 3, &vec![vec![]; 3], vec![], 0);
        let mut m = Bpr::new(BaselineConfig::quick(4), 3, 3);
        let before = m.score(0, 0);
        m.fit(&data);
        assert_eq!(m.score(0, 0).to_bits(), before.to_bits());
    }

    #[test]
    fn score_block_is_bit_identical_to_score_many() {
        let data = tiny_dataset();
        let mut m = Bpr::new(BaselineConfig::quick(8), data.num_users(), data.num_items());
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
