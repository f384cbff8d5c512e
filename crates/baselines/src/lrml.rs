//! LRML — Latent Relational Metric Learning (Tay et al., WWW 2018).
//!
//! Augments metric learning with a memory module that *induces* a latent
//! relation vector per user-item pair:
//!
//! ```text
//! s      = (u ⊙ v) K        (attention logits over M memory slots, K: m×d)
//! a      = softmax(s)
//! r_uv   = Σ_i a_i · M_i    (the induced relation, M: m×d)
//! score  = −‖u + r_uv − v‖²
//! ```
//!
//! trained with the pairwise hinge `[λ + d(u,i)² − d(u,j)²]₊`. The gradient
//! flows through the attention into the keys `K`, memories `M`, and both
//! embeddings (the `u ⊙ v` product couples them) — all derived by hand
//! below and covered by the crate's improvement tests.
//!
//! Runs on the shared triplet engine ([`fit_triplets`]): the user/item row
//! gradients of both hinge pairs ride
//! [`TripletUpdate::triplet_update`] (computed against the frozen
//! parameters, the user row accumulating both pairs' contributions), and
//! the per-step memory-attention state — the relation memory `M` and
//! attention keys `K` — rides the [`TripletUpdate::side_update`] hook,
//! which the engine calls once per triplet in original batch order. LRML
//! thereby inherits the counter-keyed sampling pipeline, the worker pool
//! and the prefetch overlap like every other pairwise baseline.

use crate::common::{fit_triplets, BaselineConfig, ImplicitRecommender, TripletUpdate};
use mars_core::embedding::EmbeddingTable;
use mars_data::batch::Triplet;
use mars_data::dataset::Dataset;
use mars_data::{ItemId, UserId};
use mars_metrics::Scorer;
use mars_runtime::rng::seeds;
use mars_tensor::{init, nonlin, ops, Matrix};
use rand::rngs::StdRng; // audit:allow(determinism) — only ever seeded (init/datagen)
use rand::SeedableRng;

/// Number of memory slots (the original paper uses 20–25; rankings are
/// insensitive in a wide band).
const MEMORY_SLOTS: usize = 10;

/// Latent relational metric learning.
pub struct Lrml {
    cfg: BaselineConfig,
    user: EmbeddingTable,
    item: EmbeddingTable,
    /// Attention keys, `slots × dim`.
    keys: Matrix,
    /// Memory slots, `slots × dim`.
    memory: Matrix,
}

/// Forward-pass intermediates reused by the backward pass.
struct RelationState {
    attention: Vec<f32>,
    relation: Vec<f32>,
    /// `u ⊙ v`.
    had: Vec<f32>,
}

impl Lrml {
    /// Creates an (untrained) model.
    pub fn new(cfg: BaselineConfig, num_users: usize, num_items: usize) -> Self {
        cfg.validate().expect("invalid baseline config");
        let mut rng = StdRng::seed_from_u64(seeds::model_init(cfg.seed)); // audit:allow(determinism) — seeded: pure function of the seed
        let scale = 1.0 / (cfg.dim as f32).sqrt();
        let mut user = EmbeddingTable::uniform(&mut rng, num_users, cfg.dim, scale);
        let mut item = EmbeddingTable::uniform(&mut rng, num_items, cfg.dim, scale);
        user.clip_rows_to_unit_ball();
        item.clip_rows_to_unit_ball();
        let keys = init::xavier_matrix(&mut rng, MEMORY_SLOTS, cfg.dim);
        let memory = init::xavier_matrix(&mut rng, MEMORY_SLOTS, cfg.dim);
        Self {
            cfg,
            user,
            item,
            keys,
            memory,
        }
    }

    /// Computes the induced relation for a pair.
    fn relation(&self, u: usize, v: usize) -> RelationState {
        let d = self.cfg.dim;
        let had: Vec<f32> = self
            .user
            .row(u)
            .iter()
            .zip(self.item.row(v))
            .map(|(a, b)| a * b)
            .collect();
        let mut logits = vec![0.0; MEMORY_SLOTS];
        self.keys.matvec(&had, &mut logits);
        let attention = nonlin::softmax_vec(&logits);
        let mut relation = vec![0.0; d];
        for (i, &a) in attention.iter().enumerate() {
            ops::axpy(a, self.memory.row(i), &mut relation);
        }
        RelationState {
            attention,
            relation,
            had,
        }
    }

    /// Translated squared distance and the state needed for its gradient.
    fn dist_sq_with_state(&self, u: usize, v: usize) -> (f32, RelationState) {
        let st = self.relation(u, v);
        let uu = self.user.row(u);
        let vv = self.item.row(v);
        let mut s = 0.0;
        for d in 0..self.cfg.dim {
            let diff = uu[d] + st.relation[d] - vv[d];
            s += diff * diff;
        }
        (s, st)
    }

    /// Backward pass of `sign · d(u,v)²` through the relation module up to
    /// the attention logits: `∂L/∂r` and `∂L/∂s` (`diff` is `u + r − v`
    /// against the current parameters).
    fn relation_backward(&self, diff: &[f32], st: &RelationState, sign: f32) -> RelationGrads {
        // ∂L/∂r = 2·sign·diff.
        let mut d_rel = diff.to_vec();
        ops::scale(&mut d_rel, 2.0 * sign);
        // Memory: ∂L/∂M_i = a_i · d_rel. Attention logits: ds_i = d_rel·M_i.
        let mut d_logits_upstream = vec![0.0; MEMORY_SLOTS];
        for i in 0..MEMORY_SLOTS {
            d_logits_upstream[i] = ops::dot(&d_rel, self.memory.row(i));
        }
        let mut d_logits = vec![0.0; MEMORY_SLOTS];
        nonlin::softmax_backward(&st.attention, &d_logits_upstream, &mut d_logits);
        RelationGrads { d_rel, d_logits }
    }

    /// `diff = u + r − v` against the current parameters.
    fn pair_diff(&self, u: usize, v: usize, st: &RelationState) -> Vec<f32> {
        let dim = self.cfg.dim;
        let mut diff = vec![0.0; dim];
        for d in 0..dim {
            diff[d] = self.user.row(u)[d] + st.relation[d] - self.item.row(v)[d];
        }
        diff
    }

    /// Accumulates (`+=`) the *descent* gradients of `sign · d(u,v)²` on
    /// the user and item rows into `gu` / `gv`: the direct distance term
    /// plus the path through the attention input `had = u ⊙ v`.
    fn accumulate_row_grads(
        &self,
        u: usize,
        v: usize,
        st: &RelationState,
        sign: f32,
        gu: &mut [f32],
        gv: &mut [f32],
    ) {
        let dim = self.cfg.dim;
        let diff = self.pair_diff(u, v, st);
        let grads = self.relation_backward(&diff, st, sign);
        // ∂L/∂had = Kᵀ d_logits.
        let mut d_had = vec![0.0; dim];
        self.keys.matvec_t(&grads.d_logits, &mut d_had);
        for d in 0..dim {
            gu[d] += 2.0 * sign * diff[d] + d_had[d] * self.item.row(v)[d];
            gv[d] += -2.0 * sign * diff[d] + d_had[d] * self.user.row(u)[d];
        }
    }

    /// One SGD step of `sign · d(u,v)²` on the memory-attention state (the
    /// relation memory `M` and the attention keys `K`) — the side-parameter
    /// half of the pair gradient, leaving the embedding rows untouched.
    fn apply_side_grad(&mut self, u: usize, v: usize, st: &RelationState, sign: f32) {
        let diff = self.pair_diff(u, v, st);
        let grads = self.relation_backward(&diff, st, sign);
        let lr = self.cfg.lr;
        for i in 0..MEMORY_SLOTS {
            ops::axpy(-lr * st.attention[i], &grads.d_rel, self.memory.row_mut(i));
            ops::axpy(-lr * grads.d_logits[i], &st.had, self.keys.row_mut(i));
        }
    }

    /// Applies the full gradient of `sign · d(u,v)²` (sign = +1 for the
    /// positive pair, −1 for the negative) to every parameter — the
    /// reference per-pair step the engine hooks decompose; kept for the
    /// gradient tests.
    #[cfg(test)]
    fn apply_pair_grad(&mut self, u: usize, v: usize, st: &RelationState, sign: f32) {
        let dim = self.cfg.dim;
        let (mut gu, mut gv) = (vec![0.0; dim], vec![0.0; dim]);
        self.accumulate_row_grads(u, v, st, sign, &mut gu, &mut gv);
        // Side first: it reads the rows the gradients were computed against.
        self.apply_side_grad(u, v, st, sign);
        let lr = self.cfg.lr;
        ops::axpy(-lr, &gu, self.user.row_mut(u));
        ops::axpy(-lr, &gv, self.item.row_mut(v));
        ops::clip_to_unit_ball(self.user.row_mut(u));
        ops::clip_to_unit_ball(self.item.row_mut(v));
    }
}

/// Relation-module gradients shared by the row and side updates.
struct RelationGrads {
    /// `∂L/∂r` (through the translated distance).
    d_rel: Vec<f32>,
    /// `∂L/∂s` (through the attention softmax).
    d_logits: Vec<f32>,
}

impl Scorer for Lrml {
    fn score(&self, user: UserId, item: ItemId) -> f32 {
        -self.dist_sq_with_state(user as usize, item as usize).0
    }
}

impl TripletUpdate for Lrml {
    fn dim(&self) -> usize {
        self.cfg.dim
    }

    fn triplet_update(&self, t: Triplet, up: &mut [f32], ui: &mut [f32], uj: &mut [f32]) -> bool {
        let (u, i, j) = (t.user as usize, t.positive as usize, t.negative as usize);
        let (d_pos, st_pos) = self.dist_sq_with_state(u, i);
        let (d_neg, st_neg) = self.dist_sq_with_state(u, j);
        if self.cfg.margin + d_pos - d_neg <= 0.0 {
            return false;
        }
        up.fill(0.0);
        ui.fill(0.0);
        uj.fill(0.0);
        // Descent gradients of both hinge pairs against the frozen
        // parameters; the user row takes both pairs' contributions…
        self.accumulate_row_grads(u, i, &st_pos, 1.0, up, ui);
        self.accumulate_row_grads(u, j, &st_neg, -1.0, up, uj);
        // …and the engine applies `row += lr · upd`, so negate into the
        // ascent convention.
        for d in 0..self.cfg.dim {
            up[d] = -up[d];
            ui[d] = -ui[d];
            uj[d] = -uj[d];
        }
        true
    }

    fn side_update(&mut self, t: Triplet) {
        let (u, i, j) = (t.user as usize, t.positive as usize, t.negative as usize);
        // Recomputed against the current memory/keys (which cascade within
        // a batch) and the frozen rows — same recompute-in-batch-order
        // pattern as SML's margins; the hinge may therefore gate slightly
        // differently from `triplet_update`'s frozen-state decision. The
        // forward/backward duplication with `triplet_update` cannot be
        // cached away: in the sharded engine that hook runs shard-ordered
        // on pool workers against `&self`, while this one runs later, in
        // batch order, against memory/keys other triplets may already have
        // moved — there is no per-triplet channel that preserves both the
        // determinism contract and the cascade semantics.
        let (d_pos, st_pos) = self.dist_sq_with_state(u, i);
        let (d_neg, st_neg) = self.dist_sq_with_state(u, j);
        if self.cfg.margin + d_pos - d_neg <= 0.0 {
            return;
        }
        self.apply_side_grad(u, i, &st_pos, 1.0);
        self.apply_side_grad(u, j, &st_neg, -1.0);
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

impl ImplicitRecommender for Lrml {
    fn fit(&mut self, data: &Dataset) {
        let cfg = self.cfg.clone();
        fit_triplets(self, data, &cfg);
    }

    fn name(&self) -> &'static str {
        "LRML"
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
            Lrml::new(
                BaselineConfig::quick(16),
                data.num_users(),
                data.num_items(),
            )
        };
        improves_over_untrained(make, &data);
    }

    #[test]
    fn sharded_training_is_deterministic() {
        let data = tiny_dataset();
        let cfg = BaselineConfig {
            threads: 3,
            epochs: 2,
            ..BaselineConfig::quick(8)
        };
        let run = || {
            let mut m = Lrml::new(cfg.clone(), data.num_users(), data.num_items());
            m.fit(&data);
            let mut scores = Vec::new();
            for u in 0..data.num_users() as u32 {
                for v in 0..data.num_items() as u32 {
                    scores.push(m.score(u, v).to_bits());
                }
            }
            scores
        };
        assert_eq!(run(), run(), "sharded LRML training not deterministic");
    }

    #[test]
    fn attention_is_distribution() {
        let data = tiny_dataset();
        let m = Lrml::new(BaselineConfig::quick(8), data.num_users(), data.num_items());
        let st = m.relation(0, 0);
        let sum: f32 = st.attention.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
        assert_eq!(st.relation.len(), 8);
    }

    #[test]
    fn relation_is_convex_combination_of_memory() {
        // ‖r‖ ≤ max_i ‖M_i‖ because the attention is a distribution.
        let data = tiny_dataset();
        let m = Lrml::new(BaselineConfig::quick(8), data.num_users(), data.num_items());
        let st = m.relation(1, 2);
        let max_mem = (0..MEMORY_SLOTS)
            .map(|i| ops::norm(m.memory.row(i)))
            .fold(0.0f32, f32::max);
        assert!(ops::norm(&st.relation) <= max_mem + 1e-5);
    }

    #[test]
    fn hinge_step_reduces_pair_gap() {
        let data = tiny_dataset();
        let mut m = Lrml::new(BaselineConfig::quick(8), data.num_users(), data.num_items());
        let (u, i, j) = (0usize, 0usize, 40usize);
        let gap_before = {
            let (p, _) = m.dist_sq_with_state(u, i);
            let (n, _) = m.dist_sq_with_state(u, j);
            p - n
        };
        for _ in 0..30 {
            let (p, sp) = m.dist_sq_with_state(u, i);
            let (n, sn) = m.dist_sq_with_state(u, j);
            if m.cfg.margin + p - n <= 0.0 {
                break;
            }
            m.apply_pair_grad(u, i, &sp, 1.0);
            m.apply_pair_grad(u, j, &sn, -1.0);
        }
        let gap_after = {
            let (p, _) = m.dist_sq_with_state(u, i);
            let (n, _) = m.dist_sq_with_state(u, j);
            p - n
        };
        assert!(gap_after < gap_before, "{gap_before} → {gap_after}");
    }
}
