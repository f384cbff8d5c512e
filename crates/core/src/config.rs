//! Model and training configuration.
//!
//! One [`MarsConfig`] drives both frameworks of the paper:
//!
//! * [`MarsConfig::mar`] — MAR: Euclidean facet spaces (Eq. 3–4), SGD with
//!   the unit-ball constraint of Eq. 11.
//! * [`MarsConfig::mars`] — MARS: spherical facet spaces, calibrated
//!   Riemannian SGD (Eq. 21).
//!
//! In both, the optimization variables are the facet embeddings themselves
//! (the set `Ω` of Eq. 19); the factored form of Eq. 1–2 — universal
//! embeddings × shared projections — seeds their initialization.
//!
//! Every ablation the harness runs — fixed vs adaptive margins, uniform vs
//! explorative sampling, RSGD vs calibrated RSGD, λ sweeps, K sweeps — is a
//! field flip on this struct.

use mars_data::margin::MarginMode;

/// Similarity geometry of the facet spaces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Geometry {
    /// `g_k(u,v) = −‖u−v‖²` with `‖·‖ ≤ 1` ball constraints (MAR, Eq. 3).
    Euclidean,
    /// `g_k(u,v) = cos(u,v)` with strict `‖·‖ = 1` sphere constraints
    /// (MARS, Eq. 13).
    Spherical,
}

/// Which optimizer updates the facet embeddings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OptimKind {
    /// Plain SGD (+ geometry constraint projection).
    Sgd,
    /// Riemannian SGD, Eq. 20 (spherical only).
    Riemannian,
    /// Calibrated Riemannian SGD, Eq. 21 (spherical only).
    CalibratedRiemannian,
}

/// How the trainer picks users for triplets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UserSampling {
    /// Uniform over users with training interactions.
    Uniform,
    /// Explorative sampling, Eq. 10: `Pr(u) ∝ freq(u)^β`.
    Explorative,
}

/// How negatives are drawn.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NegativeSampling {
    /// Uniform over the item universe (paper default).
    Uniform,
    /// Popularity-smoothed `deg^β` (ablation option).
    Popularity,
}

/// Full configuration of a multi-facet model + its training run.
#[derive(Clone, Debug)]
pub struct MarsConfig {
    /// Number of facet spaces K (paper tunes in \[1, 6\], rule of thumb 3–4).
    pub facets: usize,
    /// Per-facet embedding dimension D.
    pub dim: usize,
    pub geometry: Geometry,
    pub optimizer: OptimKind,
    /// Margin rule for the push loss (paper: adaptive, Eq. 7).
    pub margin: MarginMode,
    /// Floor applied to adaptive margins (see `mars-data::margin`).
    pub min_margin: f32,
    /// Weight λ_pull of the absolute pull loss (Eq. 9/16).
    pub lambda_pull: f32,
    /// Weight λ_facet of the facet-separating loss (Eq. 6/12).
    pub lambda_facet: f32,
    /// Scale α inside the facet-separating loss (paper default 0.1).
    pub alpha: f32,
    /// Smoothing β of explorative sampling (paper default 0.8).
    pub beta_explore: f32,
    pub user_sampling: UserSampling,
    pub negative_sampling: NegativeSampling,
    /// Base learning rate.
    pub lr: f32,
    /// Learning rate for the Θ logits (usually = `lr`).
    pub theta_lr: f32,
    /// Training epochs (one epoch ≈ one pass over the interactions).
    pub epochs: usize,
    /// Triplets per mini-batch (paper: 1000): the gradient-accumulation
    /// window — every touched entity takes one step per batch.
    pub batch_size: usize,
    /// Worker threads: each mini-batch is sharded by
    /// user across this many threads and the shard gradients are merged in
    /// shard order. `0` = use all available cores. Runs are deterministic
    /// for a fixed seed **and** thread count.
    pub threads: usize,
    /// Negatives sampled per positive pair. Eq. 5/8 double-sums over the
    /// negative set; sampling several negatives per positive is the
    /// standard stochastic realization (and matches the update budget of
    /// the pointwise baselines).
    pub negatives_per_positive: usize,
    /// Draw batch `b + 1` on a background thread while batch `b` trains —
    /// when the machine has a core to spare beyond the training threads and
    /// the filler; otherwise the trainer fills inline (see
    /// `trainer::prefetch_has_headroom`). The triplet stream is identical
    /// either way — batches are pure functions of `(seed, index)` (see
    /// `mars-data::batch`) — so this is a pure throughput knob.
    pub prefetch: bool,
    /// RNG seed for init + sampling.
    pub seed: u64,
}

impl MarsConfig {
    /// MAR defaults (Euclidean, SGD, adaptive margins, explorative
    /// sampling) for `facets` spaces of dimension `dim`.
    ///
    /// The facet embeddings are the trained parameters for MAR as well as
    /// MARS: the paper's constraint set Ω (Eq. 19) is the facet embeddings,
    /// and in our controlled comparison the shared-projection variant
    /// (training `u, v, Φ, Ψ` of Eq. 1–2) was markedly worse — every
    /// triplet's rank-1 projection update perturbs *all* entities' facet
    /// embeddings at once. The factored form of Eq. 1–2 is used at
    /// initialization only.
    pub fn mar(facets: usize, dim: usize) -> Self {
        Self {
            facets,
            dim,
            geometry: Geometry::Euclidean,
            optimizer: OptimKind::Sgd,
            margin: MarginMode::DistinctTwoHop,
            min_margin: 0.05,
            lambda_pull: 0.1,
            lambda_facet: 0.01,
            alpha: 0.1,
            beta_explore: 0.8,
            user_sampling: UserSampling::Explorative,
            negative_sampling: NegativeSampling::Uniform,
            lr: 0.05,
            theta_lr: 0.05,
            epochs: 30,
            batch_size: 1000,
            threads: 1,
            negatives_per_positive: 4,
            prefetch: true,
            seed: 42,
        }
    }

    /// MARS defaults (spherical, calibrated RSGD) on top of the MAR
    /// defaults. Learning rates are the grid-searched optimum of
    /// `mars-bench`'s `tune` binary under the multi-negative training
    /// regime, matching the paper's per-dataset lr tuning protocol (§V-A4).
    pub fn mars(facets: usize, dim: usize) -> Self {
        Self {
            geometry: Geometry::Spherical,
            optimizer: OptimKind::CalibratedRiemannian,
            lr: 0.05,
            theta_lr: 0.05,
            ..Self::mar(facets, dim)
        }
    }

    /// Single-space Euclidean metric learning — the CML-equivalent used as
    /// the K=1 row of the paper's Table IV.
    pub fn cml_like(dim: usize) -> Self {
        Self {
            lambda_pull: 0.0,
            lambda_facet: 0.0,
            margin: MarginMode::Fixed(0.5),
            user_sampling: UserSampling::Uniform,
            ..Self::mar(1, dim)
        }
    }

    /// Validates internal consistency; returns a human-readable complaint.
    ///
    /// The Riemannian optimizers walk on the sphere of a facet embedding,
    /// so they require `Spherical` geometry.
    pub fn validate(&self) -> Result<(), String> {
        if self.facets == 0 {
            return Err("facets must be ≥ 1".into());
        }
        if self.dim == 0 {
            return Err("dim must be ≥ 1".into());
        }
        if !(self.lr > 0.0 && self.lr.is_finite()) {
            return Err(format!("invalid lr {}", self.lr));
        }
        if !(self.theta_lr > 0.0 && self.theta_lr.is_finite()) {
            return Err(format!("invalid theta_lr {}", self.theta_lr));
        }
        if self.lambda_pull < 0.0 || self.lambda_facet < 0.0 {
            return Err("loss weights must be non-negative".into());
        }
        if self.alpha <= 0.0 {
            return Err("alpha must be positive".into());
        }
        if self.batch_size == 0 {
            return Err("batch_size must be ≥ 1".into());
        }
        if self.negatives_per_positive == 0 {
            return Err("negatives_per_positive must be ≥ 1".into());
        }
        match (self.optimizer, self.geometry) {
            (OptimKind::Riemannian | OptimKind::CalibratedRiemannian, Geometry::Euclidean) => {
                Err("Riemannian optimizers require Spherical geometry".into())
            }
            _ => Ok(()),
        }
    }

    /// Short human-readable tag for harness tables (e.g. `MAR(K=4,D=32)`).
    pub fn tag(&self) -> String {
        let name = match (self.geometry, self.facets) {
            (Geometry::Spherical, _) => "MARS",
            (Geometry::Euclidean, 1) => "MAR-1",
            (Geometry::Euclidean, _) => "MAR",
        };
        format!("{}(K={},D={})", name, self.facets, self.dim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        assert!(MarsConfig::mar(4, 32).validate().is_ok());
        assert!(MarsConfig::mars(4, 32).validate().is_ok());
        assert!(MarsConfig::cml_like(64).validate().is_ok());
    }

    #[test]
    fn mars_uses_spherical_calibrated() {
        let c = MarsConfig::mars(3, 16);
        assert_eq!(c.geometry, Geometry::Spherical);
        assert_eq!(c.optimizer, OptimKind::CalibratedRiemannian);
    }

    #[test]
    fn riemannian_requires_spherical_direct() {
        let mut c = MarsConfig::mar(2, 8);
        c.optimizer = OptimKind::CalibratedRiemannian;
        assert!(c.validate().is_err());
        c.geometry = Geometry::Spherical;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn rejects_degenerate_values() {
        let mut c = MarsConfig::mar(2, 8);
        c.facets = 0;
        assert!(c.validate().is_err());
        let mut c = MarsConfig::mar(2, 8);
        c.dim = 0;
        assert!(c.validate().is_err());
        let mut c = MarsConfig::mar(2, 8);
        c.lr = 0.0;
        assert!(c.validate().is_err());
        let mut c = MarsConfig::mar(2, 8);
        c.lambda_pull = -0.1;
        assert!(c.validate().is_err());
        let mut c = MarsConfig::mar(2, 8);
        c.alpha = 0.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn tags_are_informative() {
        assert_eq!(MarsConfig::mars(4, 256).tag(), "MARS(K=4,D=256)");
        assert_eq!(MarsConfig::mar(3, 32).tag(), "MAR(K=3,D=32)");
        assert_eq!(MarsConfig::cml_like(64).tag(), "MAR-1(K=1,D=64)");
    }
}
