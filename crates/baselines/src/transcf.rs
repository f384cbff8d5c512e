//! TransCF — Collaborative Translational Metric Learning
//! (Park et al., ICDM 2018).
//!
//! Borrowing the translation idea from knowledge-graph embedding: instead
//! of pulling `u` directly onto `v`, TransCF learns a *relation vector*
//! `r_uv` built from neighbourhood information and scores
//! `−‖u + r_uv − v‖²`. Following the original construction,
//!
//! ```text
//! r_uv = n_u^I ⊙ n_v^U
//! n_u^I = mean of embeddings of items u interacted with
//! n_v^U = mean of embeddings of users who interacted with v
//! ```
//!
//! trained with the hinge `[m + d(u,i)² − d(u,j)²]₊` and unit-ball
//! constraints. The neighbourhood means are recomputed at the start of each
//! epoch and treated as constants within it — the standard "lazy
//! neighbourhood" approximation that keeps an epoch `O(nnz·d)`; gradients
//! flow to `u`, `i`, `j` directly and to the neighbourhood *sources*
//! through the elementwise product.
//!
//! Runs on the shared batch/accumulate triplet engine
//! (`common::fit_triplets`) like BPR and CML: the per-epoch neighbourhood
//! refresh plugs into [`TripletUpdate::begin_epoch`], and within an epoch
//! the caches are frozen, so the per-triplet updates factor cleanly into
//! the engine's frozen-parameter accumulate phase.

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

/// TransCF with lazy neighbourhood caches.
pub struct TransCf {
    cfg: BaselineConfig,
    user: EmbeddingTable,
    item: EmbeddingTable,
    /// Cached `n_u^I` per user (refreshed each epoch).
    user_nbr: EmbeddingTable,
    /// Cached `n_v^U` per item.
    item_nbr: EmbeddingTable,
}

impl TransCf {
    /// Creates an (untrained) model.
    pub fn new(cfg: BaselineConfig, num_users: usize, num_items: usize) -> Self {
        cfg.validate().expect("invalid baseline config");
        let mut rng = StdRng::seed_from_u64(seeds::model_init(cfg.seed)); // audit:allow(determinism) — seeded: pure function of the seed
        let scale = 1.0 / (cfg.dim as f32).sqrt();
        let mut user = EmbeddingTable::uniform(&mut rng, num_users, cfg.dim, scale);
        let mut item = EmbeddingTable::uniform(&mut rng, num_items, cfg.dim, scale);
        user.clip_rows_to_unit_ball();
        item.clip_rows_to_unit_ball();
        let user_nbr = EmbeddingTable::zeros(num_users, cfg.dim);
        let item_nbr = EmbeddingTable::zeros(num_items, cfg.dim);
        Self {
            cfg,
            user,
            item,
            user_nbr,
            item_nbr,
        }
    }

    /// Refreshes both neighbourhood caches from the current embeddings.
    fn refresh_neighbourhoods(&mut self, data: &Dataset) {
        let x = &data.train;
        for u in 0..x.num_users() {
            let row = self.user_nbr.row_mut(u);
            row.fill(0.0);
            let items = x.items_of(u as UserId);
            if items.is_empty() {
                continue;
            }
            for &v in items {
                ops::axpy(1.0, self.item.row(v as usize), row);
            }
            ops::scale(row, 1.0 / items.len() as f32);
        }
        for v in 0..x.num_items() {
            let row = self.item_nbr.row_mut(v);
            row.fill(0.0);
            let users = x.users_of(v as ItemId);
            if users.is_empty() {
                continue;
            }
            for &u in users {
                ops::axpy(1.0, self.user.row(u as usize), row);
            }
            ops::scale(row, 1.0 / users.len() as f32);
        }
    }

    /// Squared translated distance `‖u + r_uv − v‖²`.
    fn translated_dist_sq(&self, u: usize, v: usize) -> f32 {
        let uu = self.user.row(u);
        let vv = self.item.row(v);
        let nu = self.user_nbr.row(u);
        let nv = self.item_nbr.row(v);
        let mut s = 0.0;
        for d in 0..self.cfg.dim {
            let r = nu[d] * nv[d];
            let diff = uu[d] + r - vv[d];
            s += diff * diff;
        }
        s
    }
}

impl TripletUpdate for TransCf {
    fn dim(&self) -> usize {
        self.cfg.dim
    }

    fn begin_epoch(&mut self, data: &Dataset) {
        // Lazy-neighbourhood approximation: caches are rebuilt once per
        // epoch and frozen within it.
        self.refresh_neighbourhoods(data);
    }

    fn triplet_update(&self, t: Triplet, up: &mut [f32], ui: &mut [f32], uj: &mut [f32]) -> bool {
        let u = t.user as usize;
        let i = t.positive as usize;
        let j = t.negative as usize;
        let d_pos = self.translated_dist_sq(u, i);
        let d_neg = self.translated_dist_sq(u, j);
        if self.cfg.margin + d_pos - d_neg <= 0.0 {
            return false; // hinge inactive
        }
        let uu = self.user.row(u);
        let ii = self.item.row(i);
        let jj = self.item.row(j);
        let nu = self.user_nbr.row(u);
        let ni = self.item_nbr.row(i);
        let nj = self.item_nbr.row(j);
        for d in 0..self.cfg.dim {
            // diff_p = u + nu·ni − i ; diff_n = u + nu·nj − j
            let diff_p = uu[d] + nu[d] * ni[d] - ii[d];
            let diff_n = uu[d] + nu[d] * nj[d] - jj[d];
            // Ascent updates (−gradient of the hinge), applied as
            // `row += lr · upd`: ∂/∂u (d_pos² − d_neg²) = 2(diff_p − diff_n).
            up[d] = -2.0 * (diff_p - diff_n);
            ui[d] = 2.0 * diff_p;
            uj[d] = -2.0 * diff_n;
        }
        true
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

impl Scorer for TransCf {
    fn score(&self, user: UserId, item: ItemId) -> f32 {
        -self.translated_dist_sq(user as usize, item as usize)
    }
}

impl ImplicitRecommender for TransCf {
    fn fit(&mut self, data: &Dataset) {
        let cfg = self.cfg.clone();
        fit_triplets(self, data, &cfg);
        // Final refresh so scoring uses neighbourhoods consistent with the
        // final embeddings (also covers the empty-train early return).
        self.refresh_neighbourhoods(data);
    }

    fn name(&self) -> &'static str {
        "TransCF"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::tests_support::{self, improves_over_untrained, tiny_dataset};

    #[test]
    fn training_improves_ranking() {
        let data = tiny_dataset();
        let make = || {
            TransCf::new(
                BaselineConfig::quick(16),
                data.num_users(),
                data.num_items(),
            )
        };
        improves_over_untrained(make, &data);
    }

    #[test]
    fn neighbourhoods_are_means() {
        let data = tiny_dataset();
        let mut m = TransCf::new(BaselineConfig::quick(8), data.num_users(), data.num_items());
        m.refresh_neighbourhoods(&data);
        // Pick a user with items and verify the cache by hand.
        let u = (0..data.num_users() as u32)
            .find(|&u| !data.train.items_of(u).is_empty())
            .unwrap();
        let items = data.train.items_of(u);
        let mut expect = vec![0.0; 8];
        for &v in items {
            ops::axpy(
                1.0 / items.len() as f32,
                m.item.row(v as usize),
                &mut expect,
            );
        }
        for (a, b) in m.user_nbr.row(u as usize).iter().zip(&expect) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn cold_entities_have_zero_translation() {
        // A user with no interactions gets n_u = 0 ⇒ r_uv = 0 ⇒ the score
        // degrades gracefully to plain CML distance.
        let data =
            mars_data::Dataset::leave_one_out("cold", 2, 3, &[vec![0, 1, 2], vec![]], vec![], 0);
        let mut m = TransCf::new(BaselineConfig::quick(4), 2, 3);
        m.refresh_neighbourhoods(&data);
        assert!(m.user_nbr.row(1).iter().all(|&v| v == 0.0));
        let plain = -ops::dist_sq(m.user.row(1), m.item.row(2));
        assert!((m.score(1, 2) - plain).abs() < 1e-6);
    }

    #[test]
    fn ball_constraint_holds() {
        let data = tiny_dataset();
        let mut m = TransCf::new(BaselineConfig::quick(8), data.num_users(), data.num_items());
        m.fit(&data);
        assert!(m.user.max_row_norm() <= 1.0 + 1e-5);
        assert!(m.item.max_row_norm() <= 1.0 + 1e-5);
    }

    #[test]
    fn both_engine_modes_learn_and_are_deterministic() {
        // TransCF rides the shared triplet engine: its single-shard path
        // (threads 1) and its scatter → merge path (threads 3) must both
        // train a working model, and each must reproduce exactly for a
        // fixed seed and thread count.
        let data = tiny_dataset();
        for threads in [1usize, 3] {
            let cfg = BaselineConfig {
                threads,
                ..BaselineConfig::quick(16)
            };
            tests_support::improves_over_untrained(
                || TransCf::new(cfg.clone(), data.num_users(), data.num_items()),
                &data,
            );
            let run = || {
                let mut m = TransCf::new(cfg.clone(), data.num_users(), data.num_items());
                m.fit(&data);
                (0..data.num_users() as u32)
                    .map(|u| m.score(u, 0))
                    .collect::<Vec<f32>>()
            };
            assert_eq!(run(), run(), "threads {threads} not deterministic");
        }
    }
}
