//! Non-negative matrix factorization (Lee & Seung, Nature 1999).
//!
//! Factorizes the binary implicit matrix `X ≈ W Hᵀ` with non-negative
//! factors via the classic multiplicative updates for the Frobenius
//! objective:
//!
//! ```text
//! W ← W ⊙ (X H) ⊘ (W HᵀH + ε)
//! H ← H ⊙ (Xᵀ W) ⊘ (H WᵀW + ε)
//! ```
//!
//! The numerators only touch observed entries (X is sparse), so an update
//! costs `O(nnz·d + (N+M)·d²)`. The paper uses NMF both as a baseline and to
//! initialize facet structure; the factor count is set to the embedding
//! dimension of the comparison.

use crate::common::{BaselineConfig, ImplicitRecommender};
use mars_core::embedding::EmbeddingTable;
use mars_data::dataset::Dataset;
use mars_data::{ItemId, UserId};
use mars_metrics::Scorer;
use mars_runtime::rng::seeds;
use mars_tensor::{ops, Matrix};
use rand::rngs::StdRng; // audit:allow(determinism) — only ever seeded (init/datagen)
use rand::{Rng, SeedableRng};

const EPS: f32 = 1e-9;

/// NMF with multiplicative updates.
pub struct Nmf {
    cfg: BaselineConfig,
    w: EmbeddingTable,
    h: EmbeddingTable,
}

impl Nmf {
    /// Creates a model with non-negative random factors.
    pub fn new(cfg: BaselineConfig, num_users: usize, num_items: usize) -> Self {
        cfg.validate().expect("invalid baseline config");
        let mut rng = StdRng::seed_from_u64(seeds::model_init(cfg.seed)); // audit:allow(determinism) — seeded: pure function of the seed
        let mut w = EmbeddingTable::zeros(num_users, cfg.dim);
        let mut h = EmbeddingTable::zeros(num_items, cfg.dim);
        for v in w.as_mut_slice().iter_mut().chain(h.as_mut_slice()) {
            *v = rng.gen_range(0.01..1.0);
        }
        Self { cfg, w, h }
    }

    /// Reconstruction error `‖X − WHᵀ‖²_F` over observed + a same-sized
    /// sample of unobserved entries would be expensive; for tests we expose
    /// the exact Frobenius error on small data.
    // audit:allow(orphan-pub) — test support: NMF's monotone-decrease test
    pub fn frobenius_error(&self, data: &Dataset) -> f64 {
        let mut err = 0.0f64;
        for u in 0..data.num_users() {
            for v in 0..data.num_items() {
                let x = if data.train.contains(u as UserId, v as ItemId) {
                    1.0
                } else {
                    0.0
                };
                let p = ops::dot(self.w.row(u), self.h.row(v));
                err += ((x - p) as f64).powi(2);
            }
        }
        err
    }

    /// All factors non-negative (the defining invariant).
    // audit:allow(orphan-pub) — test support: NMF's nonnegativity test
    pub fn is_nonnegative(&self) -> bool {
        self.w.as_slice().iter().all(|&v| v >= 0.0) && self.h.as_slice().iter().all(|&v| v >= 0.0)
    }
}

impl Scorer for Nmf {
    fn score(&self, user: UserId, item: ItemId) -> f32 {
        ops::dot(self.w.row(user as usize), self.h.row(item as usize))
    }
}

impl ImplicitRecommender for Nmf {
    fn fit(&mut self, data: &Dataset) {
        let x = &data.train;
        let n = data.num_users();
        let m = data.num_items();
        let d = self.cfg.dim;
        if x.num_interactions() == 0 {
            return;
        }
        for _ in 0..self.cfg.epochs {
            // ---- W update -------------------------------------------------
            // Gram = HᵀH (d×d).
            let mut gram = Matrix::zeros(d, d);
            for v in 0..m {
                gram.ger(1.0, self.h.row(v), self.h.row(v));
            }
            let mut numer = vec![0.0f32; d];
            let mut denom = vec![0.0f32; d];
            for u in 0..n {
                numer.fill(0.0);
                for &v in x.items_of(u as UserId) {
                    ops::axpy(1.0, self.h.row(v as usize), &mut numer);
                }
                gram.matvec(self.w.row(u), &mut denom);
                let row = self.w.row_mut(u);
                for i in 0..d {
                    row[i] *= numer[i] / (denom[i] + EPS);
                }
            }
            // ---- H update -------------------------------------------------
            let mut gram = Matrix::zeros(d, d);
            for u in 0..n {
                gram.ger(1.0, self.w.row(u), self.w.row(u));
            }
            for v in 0..m {
                numer.fill(0.0);
                for &u in x.users_of(v as ItemId) {
                    ops::axpy(1.0, self.w.row(u as usize), &mut numer);
                }
                gram.matvec(self.h.row(v), &mut denom);
                let row = self.h.row_mut(v);
                for i in 0..d {
                    row[i] *= numer[i] / (denom[i] + EPS);
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "NMF"
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
            Nmf::new(
                BaselineConfig::quick(16),
                data.num_users(),
                data.num_items(),
            )
        };
        improves_over_untrained(make, &data);
    }

    #[test]
    fn multiplicative_updates_monotonically_decrease_error() {
        let data = tiny_dataset();
        let mut m = Nmf::new(BaselineConfig::quick(8), data.num_users(), data.num_items());
        let mut prev = m.frobenius_error(&data);
        for _ in 0..5 {
            let mut one = BaselineConfig::quick(8);
            one.epochs = 1;
            // Re-use fit for a single epoch by temporarily swapping config.
            let saved = std::mem::replace(&mut m.cfg, one);
            m.fit(&data);
            m.cfg = saved;
            let err = m.frobenius_error(&data);
            assert!(
                err <= prev * (1.0 + 1e-6),
                "error increased: {prev} → {err}"
            );
            prev = err;
        }
    }

    #[test]
    fn factors_stay_nonnegative() {
        let data = tiny_dataset();
        let mut m = Nmf::new(BaselineConfig::quick(8), data.num_users(), data.num_items());
        m.fit(&data);
        assert!(m.is_nonnegative());
    }
}
