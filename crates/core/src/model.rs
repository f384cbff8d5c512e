//! The multi-facet recommender model (MAR and MARS).
//!
//! One struct covers both frameworks of the paper; the configuration picks
//! the geometry and optimizer. In both, the trainable parameters are the
//! facet embeddings themselves — `K` rows of dimension `D` per user and per
//! item — plus the logits behind the per-user facet weights `Θ_u`:
//!
//! * **MAR** (Eq. 1–11): similarity is negative squared Euclidean distance
//!   per facet, combined by per-user softmax weights `Θ_u`; SGD with the
//!   unit-ball constraint.
//! * **MARS** (Eq. 12–21): facet embeddings constrained to the unit sphere;
//!   similarity is cosine; training uses (calibrated) Riemannian SGD.
//!
//! The numerical layers live in sibling modules: [`crate::kernels`] holds
//! the facet-similarity and ambient-gradient kernels (and the [`Scratch`]
//! buffers), [`crate::loss`] the push / pull / facet-separating terms, and
//! [`crate::engine`] the batched gradient-accumulation path
//! ([`MultiFacetModel::train_batch`]). This module keeps the parameters,
//! scoring, and the per-triplet **reference** update path
//! ([`MultiFacetModel::train_triplet`]) that the batched engine is asserted
//! equivalent to at batch size 1.
//!
//! ### The item-norm table
//!
//! Cosine scoring divides by `‖v^k‖`, and an item's facet norms change only
//! when the parameters do, so [`Scorer::score_block`] and the index surface
//! ([`IndexEmbeddings::item_index_vector`]) read them from one private
//! `I × K` table instead of recomputing them per candidate per query. The
//! contract:
//!
//! * it holds exactly `ops::norm` of each item facet row — the value the
//!   recomputing paths get — so every score is bit-identical with or
//!   without it;
//! * it is built on first use (once: concurrent first readers wait for one
//!   computation), by `io::load` before a spherical snapshot is returned,
//!   and never for Euclidean geometry; it is carried by `Clone` and never
//!   serialised;
//! * it is dropped by [`MultiFacetModel::params_mut`], the only way to a
//!   `&mut` facet table — the batched engine's `finish_batch`, the
//!   reference path's `apply_updates` and `io` all go through it. Code in
//!   this module must do the same and never borrow `self.params` mutably.
//!
//! [`Scorer::score`] / [`Scorer::score_many`] do not read the table: they
//! are the independent reference `score_block` is tested bit-equal to, which
//! is also what exposes a stale table (`tests/properties.rs`).
//!
//! ### Interpretive notes (divergences from the paper's notation)
//!
//! 1. **Both frameworks optimise `Ω` directly; the factored form is the
//!    initialiser.** Eq. 1–2 write a facet embedding as a shared projection
//!    of a universal one (`u^k = φ_kᵀu`) and Eq. 15 writes the MARS
//!    similarity through `Φ/Ψ`, but Eq. 19's constraint set `Ω` contains the
//!    facet embeddings, and the Riemannian update (Eq. 21) moves a point on
//!    *its own* sphere — which is only well-defined when the facet
//!    embeddings are free parameters. For MAR the reason is empirical:
//!    training `u, v, Φ, Ψ` was markedly worse in our controlled comparison
//!    (recorded at [`MarsConfig::mar`]), because every triplet's rank-1
//!    projection update moves *all* entities' facet embeddings at once. So
//!    [`MultiFacetModel::new`] draws universal embeddings and near-identity
//!    `Φ_k, Ψ_k`, projects once, and the facet tables are what trains.
//! 2. **Ambient gradients for cosine terms.** On the unit sphere,
//!    `∇_x cos(x,y) = y − (xᵀy)x`; the tangent projection inside the
//!    optimizer supplies the `−(xᵀy)x` part, so the model hands the
//!    optimizer the bilinear gradient `y`. This is also what makes the
//!    calibration multiplier `1 + xᵀ∇f/‖∇f‖` informative (see
//!    `mars-optim::riemannian`).
//! 3. **Facet-separating loss direction.** Eq. 12 as printed decreases with
//!    *increasing* cosine, which would collapse the facets it is meant to
//!    spread. We use `softplus(+α·cos)/α`, the monotone-increasing penalty
//!    consistent with Eq. 6's "encourage orthogonality" and the Euclidean
//!    form.

use crate::config::{Geometry, MarsConfig, OptimKind};
use crate::embedding::{EmbeddingTable, FacetTable};
use crate::kernels;
use crate::loss;
// Re-exported here for compatibility with the pre-split layout, where this
// module defined both types.
pub use crate::kernels::Scratch;
pub use crate::loss::TripletLoss;
use mars_data::batch::Triplet;
use mars_data::{ItemId, UserId};
use mars_metrics::Scorer;
use mars_optim::{CalibratedRiemannianSgd, Optimizer, RiemannianSgd, Sgd};
use mars_serve::{IndexEmbeddings, IndexMetric, RecQuery, RetrievalScratch};
use mars_tensor::{init, nonlin, ops, rows, Matrix};
use rand::rngs::StdRng; // audit:allow(determinism) — only ever seeded (init/datagen)
use rand::SeedableRng;
use std::cell::RefCell;
use std::sync::OnceLock;

/// The trainable facet embeddings (the set `Ω` of Eq. 19; see module docs).
#[derive(Clone, Debug)]
pub struct Params {
    pub user_facets: FacetTable,
    pub item_facets: FacetTable,
}

/// Result of [`MultiFacetModel::norm_report`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NormReport {
    /// Largest distance of a constrained row's norm from its constraint
    /// (0 when every row satisfies it exactly).
    pub max_drift: f32,
    /// Whether every trainable parameter is finite.
    pub finite: bool,
}

/// The MAR / MARS model.
#[derive(Clone, Debug)]
pub struct MultiFacetModel {
    cfg: MarsConfig,
    num_users: usize,
    num_items: usize,
    params: Params,
    /// Free logits behind the softmaxed per-user facet weights `Θ_u`.
    theta_logits: EmbeddingTable,
    /// `‖v^k‖` of every item facet row (`I × K`), built on first use and
    /// dropped by [`MultiFacetModel::params_mut`] — see "The item-norm
    /// table" in the module docs.
    item_norms: OnceLock<Vec<f32>>,
}

impl MultiFacetModel {
    /// Initializes a model for the given catalogue sizes.
    ///
    /// Draws uniform universal embeddings (scaled `1/√D`, clipped to the
    /// unit ball) and near-identity projections, and projects (Eq. 1–2): at
    /// step 0 every facet space is a mild perturbation of the universal
    /// space, and the facet-separating loss drives them apart. The facet
    /// embeddings are then constrained (normalized for spherical geometry,
    /// ball-clipped for Euclidean).
    ///
    /// # Panics
    /// If the configuration fails [`MarsConfig::validate`].
    pub fn new(cfg: MarsConfig, num_users: usize, num_items: usize) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid MarsConfig: {e}");
        }
        assert!(num_users > 0 && num_items > 0);
        let mut rng = StdRng::seed_from_u64(cfg.seed); // audit:allow(determinism) — seeded: pure function of the seed
        let k = cfg.facets;
        let d = cfg.dim;

        let scale = 1.0 / (d as f32).sqrt();
        let mut user_emb = EmbeddingTable::uniform(&mut rng, num_users, d, scale);
        let mut item_emb = EmbeddingTable::uniform(&mut rng, num_items, d, scale);
        user_emb.clip_rows_to_unit_ball();
        item_emb.clip_rows_to_unit_ball();
        let phi: Vec<Matrix> = (0..k)
            .map(|_| init::near_identity_matrix(&mut rng, d, 1.0, 0.35 * scale))
            .collect();
        let psi: Vec<Matrix> = (0..k)
            .map(|_| init::near_identity_matrix(&mut rng, d, 1.0, 0.35 * scale))
            .collect();

        let mut user_facets = FacetTable::zeros(num_users, k, d);
        let mut item_facets = FacetTable::zeros(num_items, k, d);
        let mut tmp = vec![0.0; d];
        for u in 0..num_users {
            for (f, m) in phi.iter().enumerate() {
                m.matvec_t(user_emb.row(u), &mut tmp);
                user_facets.facet_mut(u, f).copy_from_slice(&tmp);
            }
        }
        for v in 0..num_items {
            for (f, m) in psi.iter().enumerate() {
                m.matvec_t(item_emb.row(v), &mut tmp);
                item_facets.facet_mut(v, f).copy_from_slice(&tmp);
            }
        }
        match cfg.geometry {
            Geometry::Spherical => {
                user_facets.normalize();
                item_facets.normalize();
            }
            Geometry::Euclidean => {
                user_facets.clip_to_unit_ball();
                item_facets.clip_to_unit_ball();
            }
        }

        // Uniform facet weights at init (zero logits).
        let theta_logits = EmbeddingTable::zeros(num_users, k);

        Self {
            cfg,
            num_users,
            num_items,
            params: Params {
                user_facets,
                item_facets,
            },
            theta_logits,
            item_norms: OnceLock::new(),
        }
    }

    /// The configuration the model was built with.
    pub fn config(&self) -> &MarsConfig {
        &self.cfg
    }

    pub fn num_users(&self) -> usize {
        self.num_users
    }

    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// Borrow of the parameters (for analysis / persistence).
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// Mutable borrow of the parameters (training steps and persistence
    /// round-trips). The only way to a `&mut` facet table, and therefore
    /// where the item-norm table is dropped.
    pub fn params_mut(&mut self) -> &mut Params {
        self.item_norms.take();
        &mut self.params
    }

    /// The item-norm table: `ops::norm` of item `v`'s facet `f` at
    /// `[v * K + f]`, computed on the first call after the parameters last
    /// changed (concurrent first callers block on one computation).
    pub(crate) fn item_norms(&self) -> &[f32] {
        self.item_norms.get_or_init(|| {
            let rows = self.params.item_facets.as_slice();
            rows.chunks_exact(self.cfg.dim).map(ops::norm).collect()
        })
    }

    /// Raw Θ logits table.
    pub fn theta_logits(&self) -> &EmbeddingTable {
        &self.theta_logits
    }

    /// Mutable Θ logits table (persistence).
    pub fn theta_logits_mut(&mut self) -> &mut EmbeddingTable {
        &mut self.theta_logits
    }

    /// Softmaxed facet weights `Θ_u` of one user.
    pub fn theta(&self, u: UserId) -> Vec<f32> {
        nonlin::softmax_vec(self.theta_logits.row(u as usize))
    }

    /// Writes user `u`'s facet-`k` embedding into `out`.
    pub fn user_facet(&self, u: UserId, k: usize, out: &mut [f32]) {
        out.copy_from_slice(self.params.user_facets.facet(u as usize, k));
    }

    /// Writes item `v`'s facet-`k` embedding into `out`.
    pub fn item_facet(&self, v: ItemId, k: usize, out: &mut [f32]) {
        out.copy_from_slice(self.params.item_facets.facet(v as usize, k));
    }

    /// Writes all `K` facet embeddings of user `u` into a flat `K × D`
    /// buffer.
    pub(crate) fn gather_user_facets(&self, u: UserId, out: &mut [f32]) {
        let d = self.cfg.dim;
        for f in 0..self.cfg.facets {
            self.user_facet(u, f, rows::row_mut(out, d, f));
        }
    }

    /// Writes all `K` facet embeddings of item `v` into a flat `K × D`
    /// buffer.
    pub(crate) fn gather_item_facets(&self, v: ItemId, out: &mut [f32]) {
        let d = self.cfg.dim;
        for f in 0..self.cfg.facets {
            self.item_facet(v, f, rows::row_mut(out, d, f));
        }
    }

    /// Facet-specific similarity `g_k` for the configured geometry
    /// (Eq. 3 Euclidean, Eq. 13 spherical).
    #[inline]
    pub fn facet_similarity(&self, a: &[f32], b: &[f32]) -> f32 {
        kernels::facet_similarity(self.cfg.geometry, a, b)
    }

    /// Cross-facet similarity `g(u, v) = Σ_k θ_u^k g_k(u^k, v^k)`
    /// (Eq. 4 / Eq. 14). Allocates scratch; the trainer and evaluator use
    /// the buffered paths instead.
    pub fn similarity(&self, u: UserId, v: ItemId) -> f32 {
        let d = self.cfg.dim;
        let theta = self.theta(u);
        let mut uf = vec![0.0; d];
        let mut vf = vec![0.0; d];
        let mut s = 0.0;
        for k in 0..self.cfg.facets {
            self.user_facet(u, k, &mut uf);
            self.item_facet(v, k, &mut vf);
            s += theta[k] * self.facet_similarity(&uf, &vf);
        }
        s
    }

    // ------------------------------------------------------------------
    // Training (per-triplet reference path)
    // ------------------------------------------------------------------

    /// Gathers the triplet's facet sets into the scratch buffers.
    fn gather_triplet(&self, t: Triplet, s: &mut Scratch) {
        self.gather_user_facets(t.user, &mut s.uf);
        self.gather_item_facets(t.positive, &mut s.pf);
        self.gather_item_facets(t.negative, &mut s.qf);
    }

    /// Gradient staging of the per-triplet reference path. Expects `s.theta`
    /// and the gathered facet sets (`s.uf/pf/qf`) to be filled; computes the
    /// similarity gradients into `s.du/dp/dq` (overwriting) and the Θ-logit
    /// gradient into `s.theta_grad`. Returns `(push, pull)`.
    fn stage_triplet(&self, gamma: f32, s: &mut Scratch) -> (f32, f32) {
        let geometry = self.cfg.geometry;
        let d = self.cfg.dim;
        kernels::similarities(geometry, &s.uf, &s.pf, d, &mut s.gp);
        kernels::similarities(geometry, &s.uf, &s.qf, d, &mut s.gq);
        let loss = self.stage_weights(gamma, s);
        kernels::similarity_gradients(
            geometry, &s.w_p, &s.w_q, &s.uf, &s.pf, &s.qf, &mut s.du, &mut s.dp, &mut s.dq, d,
        );
        loss
    }

    /// The `K`-wide middle of the gradient staging, shared by both training
    /// paths: from `s.theta` and the per-facet similarities `s.gp` / `s.gq`
    /// to the per-facet loss weights `s.w_p` / `s.w_q` and the Θ-logit
    /// gradient `s.theta_grad`. Returns `(push, pull)`.
    pub(crate) fn stage_weights(&self, gamma: f32, s: &mut Scratch) -> (f32, f32) {
        let s_p = ops::dot(&s.theta, &s.gp);
        let s_q = ops::dot(&s.theta, &s.gq);
        let (push, pull, c_p, c_q) = loss::push_pull(gamma, s_p, s_q, self.cfg.lambda_pull);
        for f in 0..self.cfg.facets {
            s.w_p[f] = c_p * s.theta[f];
            s.w_q[f] = c_q * s.theta[f];
            // Θ logits gradient through the softmax parameterization.
            s.theta_upstream[f] = c_p * s.gp[f] + c_q * s.gq[f];
        }
        nonlin::softmax_backward(&s.theta, &s.theta_upstream, &mut s.theta_grad);
        (push, pull)
    }

    /// Applies one SGD/RSGD update for the triplet `(u, v⁺, v⁻)` with the
    /// user's adaptive margin `gamma`, learning rate `lr`. Returns the loss
    /// breakdown *before* the update.
    ///
    /// This is the seed's reference path — one immediate optimizer step per
    /// row per triplet. The batched engine
    /// ([`MultiFacetModel::train_batch`]) is asserted numerically equivalent
    /// to it at batch size 1.
    // audit:allow(orphan-pub) — reference twin: per-triplet step the batch-1 equivalence tests pin
    pub fn train_triplet(
        &mut self,
        t: Triplet,
        gamma: f32,
        lr: f32,
        s: &mut Scratch,
    ) -> TripletLoss {
        let u = t.user as usize;
        let d = self.cfg.dim;
        let k = self.cfg.facets;

        self.gather_triplet(t, s);
        nonlin::softmax(self.theta_logits.row(u), &mut s.theta);
        let (push, pull) = self.stage_triplet(gamma, s);

        // Facet-separating loss over this triplet's entities (Eq. 6/12) —
        // the reference path counts every occurrence.
        let mut facet_loss = 0.0;
        if self.cfg.lambda_facet > 0.0 && k > 1 {
            let geometry = self.cfg.geometry;
            let (alpha, lam) = (self.cfg.alpha, self.cfg.lambda_facet);
            facet_loss += loss::facet_separation(geometry, alpha, lam, &s.uf, d, &mut s.du);
            facet_loss += loss::facet_separation(geometry, alpha, lam, &s.pf, d, &mut s.dp);
            facet_loss += loss::facet_separation(geometry, alpha, lam, &s.qf, d, &mut s.dq);
        }

        // Θ logits update (plain SGD on the softmax parameterization).
        ops::axpy(
            -self.cfg.theta_lr,
            &s.theta_grad,
            self.theta_logits.row_mut(u),
        );

        // Parameter updates.
        self.apply_updates(t, lr, s);

        TripletLoss {
            push,
            pull,
            facet: facet_loss,
        }
    }

    /// Routes the staged gradients into the parameters (immediate steps).
    fn apply_updates(&mut self, t: Triplet, lr: f32, s: &Scratch) {
        let k = self.cfg.facets;
        let dim = self.cfg.dim;
        let optimizer = self.cfg.optimizer;
        let geometry = self.cfg.geometry;
        let Params {
            user_facets,
            item_facets,
        } = self.params_mut();
        let step = |param: &mut [f32], grad: &[f32]| match (optimizer, geometry) {
            (OptimKind::Sgd, Geometry::Euclidean) => {
                Sgd::with_max_norm(lr, 1.0).step(param, grad);
            }
            (OptimKind::Sgd, Geometry::Spherical) => {
                // Projected SGD: Euclidean step, renormalize.
                Sgd::new(lr).step(param, grad);
                ops::normalize(param);
            }
            (OptimKind::Riemannian, _) => {
                RiemannianSgd::new(lr).step(param, grad);
            }
            (OptimKind::CalibratedRiemannian, _) => {
                CalibratedRiemannianSgd::new(lr).step(param, grad);
            }
        };
        for f in 0..k {
            step(
                user_facets.facet_mut(t.user as usize, f),
                rows::row(&s.du, dim, f),
            );
            step(
                item_facets.facet_mut(t.positive as usize, f),
                rows::row(&s.dp, dim, f),
            );
            step(
                item_facets.facet_mut(t.negative as usize, f),
                rows::row(&s.dq, dim, f),
            );
        }
    }

    /// Does nothing: the model has no projection matrices to constrain (the
    /// facet embeddings are the parameters, and every optimizer step leaves
    /// them on their constraint set). Kept only because `marsbench`, which
    /// must compile against this crate unmodified, still calls it; it goes
    /// with the rest of the staged engine surface (ROADMAP item 1c).
    pub fn enforce_projection_constraint(&mut self) {}

    /// How far the parameters are from their constraint set, and whether
    /// they are all finite — the numeric guard the trainer evaluates at
    /// every epoch boundary. Drift over the facet rows is `max |‖row‖ − 1|`
    /// on the unit sphere (spherical geometry) and `max(‖row‖ − 1, 0)` under
    /// the unit-ball constraint (Euclidean).
    pub fn norm_report(&self) -> NormReport {
        let tables = [
            self.params.user_facets.as_slice(),
            self.params.item_facets.as_slice(),
        ];
        let sphere = self.cfg.geometry == Geometry::Spherical;
        let mut report = NormReport {
            max_drift: 0.0,
            finite: self.theta_logits.as_slice().iter().all(|v| v.is_finite()),
        };
        for row in tables.iter().flat_map(|t| t.chunks_exact(self.cfg.dim)) {
            // A NaN or infinite entry makes the norm non-finite, so one
            // reduction per row answers both questions.
            let n = ops::norm(row);
            if !n.is_finite() {
                report.finite = false;
                continue;
            }
            let drift = if sphere { (n - 1.0).abs() } else { n - 1.0 };
            report.max_drift = report.max_drift.max(drift);
        }
        report
    }

    /// Checks the geometry invariant within `tol`: every parameter finite,
    /// and on the unit sphere (spherical geometry) or inside the unit ball
    /// (Euclidean) — see [`MultiFacetModel::norm_report`].
    pub fn check_norm_invariant(&self, tol: f32) -> bool {
        let report = self.norm_report();
        report.finite && report.max_drift <= tol
    }

    /// Evaluation-time loss of a triplet (no update) — used by the gradient
    /// checks and convergence tests.
    // audit:allow(orphan-pub) — reference twin: loss oracle of the gradient checks
    pub fn triplet_loss(&self, t: Triplet, gamma: f32) -> TripletLoss {
        let k = self.cfg.facets;
        let d = self.cfg.dim;
        let geometry = self.cfg.geometry;
        let mut uf = vec![0.0; k * d];
        let mut pf = vec![0.0; k * d];
        let mut qf = vec![0.0; k * d];
        self.gather_user_facets(t.user, &mut uf);
        self.gather_item_facets(t.positive, &mut pf);
        self.gather_item_facets(t.negative, &mut qf);
        let theta = self.theta(t.user);
        let mut s_p = 0.0;
        let mut s_q = 0.0;
        for f in 0..k {
            s_p += theta[f] * self.facet_similarity(rows::row(&uf, d, f), rows::row(&pf, d, f));
            s_q += theta[f] * self.facet_similarity(rows::row(&uf, d, f), rows::row(&qf, d, f));
        }
        let push = (gamma - s_p + s_q).max(0.0);
        let pull = -s_p;
        let mut facet = 0.0;
        if k > 1 {
            let mut sink = vec![0.0; k * d];
            facet += loss::facet_separation(geometry, self.cfg.alpha, 0.0, &uf, d, &mut sink);
            facet += loss::facet_separation(geometry, self.cfg.alpha, 0.0, &pf, d, &mut sink);
            facet += loss::facet_separation(geometry, self.cfg.alpha, 0.0, &qf, d, &mut sink);
        }
        TripletLoss { push, pull, facet }
    }
}

impl MultiFacetModel {
    /// Top-N recommendation: the `n` highest-scoring items for `user`
    /// excluding `seen` (the user's training interactions, **sorted
    /// ascending**), highest first. Deterministic tie-break by item id.
    ///
    /// Since the serving layer landed this is a thin wrapper over the
    /// `mars-serve` retrieval engine (bounded-heap selection instead of a
    /// catalogue-wide sort) — kept for convenience; production callers
    /// should hold a `mars_serve::Retriever` and reuse its scratch. Ties
    /// and NaN now follow `mars_serve::rank_cmp`'s total order: for real
    /// scores this is exactly the old descending-score/ascending-id
    /// order, while NaN scores — which used to poison the sort's
    /// transitivity via `partial_cmp(..).unwrap_or(Equal)` — now
    /// deterministically rank last.
    ///
    /// ```
    /// use mars_core::{MarsConfig, MultiFacetModel};
    /// let model = MultiFacetModel::new(MarsConfig::mars(2, 8), 4, 10);
    /// let recs = model.recommend(0, &[1, 2], 3);
    /// assert_eq!(recs.len(), 3);
    /// assert!(recs.iter().all(|(v, _)| *v != 1 && *v != 2));
    /// ```
    pub fn recommend(&self, user: UserId, seen: &[ItemId], n: usize) -> Vec<(ItemId, f32)> {
        let query = RecQuery::top_k(user, n).excluding(seen);
        let mut ranked = Vec::new();
        mars_serve::rank_into(
            self,
            self.num_items,
            mars_serve::DEFAULT_CHUNK_ITEMS,
            &query,
            &mut RetrievalScratch::new(),
            &mut ranked,
        );
        ranked
    }
}

impl Scorer for MultiFacetModel {
    fn score(&self, user: UserId, item: ItemId) -> f32 {
        self.similarity(user, item)
    }

    fn score_many(&self, user: UserId, items: &[ItemId], out: &mut Vec<f32>) {
        // Share the user-side work (facet gather + softmax) across
        // candidates — the evaluator scores 100 negatives per test case.
        let k = self.cfg.facets;
        let d = self.cfg.dim;
        let theta = self.theta(user);
        let mut uf = vec![0.0; k * d];
        self.gather_user_facets(user, &mut uf);
        let mut vf = vec![0.0; d];
        out.clear();
        out.reserve(items.len());
        for &v in items {
            let mut sum = 0.0;
            for f in 0..k {
                self.item_facet(v, f, &mut vf);
                sum += theta[f] * self.facet_similarity(rows::row(&uf, d, f), &vf);
            }
            out.push(sum);
        }
    }

    fn score_block(&self, user: UserId, items: &[ItemId], out: &mut Vec<f32>) {
        // Batched-evaluation hot path. Both facet tables store each entity's
        // K facets contiguously, so every candidate's whole facet set is
        // scored by one fused `kernels::similarities` call
        // (mars-tensor::rows dot/dist kernels) on *borrowed* blocks — no
        // per-facet gather copies. Bit-identical to `score_many` by the
        // kernels' bitwise-agreement guarantee and the identical facet-order
        // reduction.
        let Params {
            user_facets,
            item_facets,
        } = &self.params;
        let k = self.cfg.facets;
        let d = self.cfg.dim;
        let ub = user_facets.entity(user as usize);
        out.clear();
        out.reserve(items.len());
        with_score_scratch(k, |theta, sims, na| {
            nonlin::softmax(self.theta_logits.row(user as usize), theta);
            match self.cfg.geometry {
                Geometry::Spherical => {
                    // `ops::cosine` recomputes both norms per candidate.
                    // The user-side norms are loop-invariant across the
                    // block and the item-side ones across every block
                    // until the parameters change, so the former are
                    // hoisted and the latter read from the item-norm
                    // table. Same ops on the same inputs (norm, dot, the
                    // zero guard, the clamp) ⇒ the per-facet values stay
                    // bit-identical to `facet_similarity`.
                    let norms = self.item_norms();
                    for (f, n) in na.iter_mut().enumerate() {
                        *n = ops::norm(rows::row(ub, d, f));
                    }
                    for &v in items {
                        let vb = item_facets.entity(v as usize);
                        let nb = rows::row(norms, k, v as usize);
                        rows::dot_rows(ub, vb, d, sims);
                        let mut sum = 0.0;
                        for f in 0..k {
                            let sim = if na[f] <= f32::MIN_POSITIVE || nb[f] <= f32::MIN_POSITIVE {
                                0.0
                            } else {
                                (sims[f] / (na[f] * nb[f])).clamp(-1.0, 1.0)
                            };
                            sum += theta[f] * sim;
                        }
                        out.push(sum);
                    }
                }
                Geometry::Euclidean => {
                    for &v in items {
                        rows::dist_sq_rows(ub, item_facets.entity(v as usize), d, sims);
                        let mut sum = 0.0;
                        for f in 0..k {
                            sum += theta[f] * -sims[f];
                        }
                        out.push(sum);
                    }
                }
            }
        });
    }
}

/// Runs `f` with three `k`-wide thread-local buffers — `score_block`'s
/// `Θ_u`, per-facet similarities and user-side norms — so the hot path
/// allocates nothing per block (evaluation and serving workers are
/// persistent threads, so the buffers amortize across a whole run).
fn with_score_scratch<R>(k: usize, f: impl FnOnce(&mut [f32], &mut [f32], &mut [f32]) -> R) -> R {
    thread_local! {
        static SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    }
    SCRATCH.with(|s| {
        let mut s = s.borrow_mut();
        s.resize(3 * k, 0.0);
        let (theta, rest) = s.split_at_mut(k);
        let (sims, na) = rest.split_at_mut(k);
        f(theta, sims, na)
    })
}

impl MultiFacetModel {
    /// Scales `v`, whose norm is `n`, to unit length, or zeroes it when the
    /// norm underflows — the same guard `facet_similarity`'s cosine applies,
    /// so a degenerate facet contributes 0 on both the exact and the indexed
    /// path.
    fn normalize_or_zero(v: &mut [f32], n: f32) {
        if n <= f32::MIN_POSITIVE {
            v.fill(0.0);
        } else {
            for x in v.iter_mut() {
                *x /= n;
            }
        }
    }
}

/// IVF index surface (`mars-serve::index`): per-facet vectors such that
/// `Σ_f θ_u^f · m(q_f, x_f)` equals the model similarity. Spherical
/// geometry pre-normalizes both sides so cosine becomes an inner product;
/// Euclidean geometry exposes the raw facets under negative squared L2.
impl IndexEmbeddings for MultiFacetModel {
    fn num_index_facets(&self) -> usize {
        self.cfg.facets
    }

    fn index_dim(&self) -> usize {
        self.cfg.dim
    }

    fn index_metric(&self) -> IndexMetric {
        match self.cfg.geometry {
            Geometry::Spherical => IndexMetric::InnerProduct,
            Geometry::Euclidean => IndexMetric::NegSquaredL2,
        }
    }

    fn item_index_vector(&self, v: ItemId, f: usize, out: &mut [f32]) {
        self.item_facet(v, f, out);
        if self.cfg.geometry == Geometry::Spherical {
            let n = self.item_norms()[v as usize * self.cfg.facets + f];
            Self::normalize_or_zero(out, n);
        }
    }

    fn query_index_vector(&self, user: UserId, f: usize, out: &mut [f32]) -> f32 {
        self.user_facet(user, f, out);
        if self.cfg.geometry == Geometry::Spherical {
            let n = ops::norm(out);
            Self::normalize_or_zero(out, n);
        }
        self.theta(user)[f]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MarsConfig;

    fn triplet() -> Triplet {
        Triplet {
            user: 1,
            positive: 2,
            negative: 5,
        }
    }

    fn mar_model() -> MultiFacetModel {
        let mut cfg = MarsConfig::mar(3, 6);
        cfg.seed = 9;
        MultiFacetModel::new(cfg, 4, 8)
    }

    fn mars_model() -> MultiFacetModel {
        let mut cfg = MarsConfig::mars(3, 6);
        cfg.seed = 9;
        MultiFacetModel::new(cfg, 4, 8)
    }

    #[test]
    fn recommend_excludes_seen_and_ranks_descending() {
        let mut m = mars_model();
        let mut s = Scratch::new(3, 6);
        for _ in 0..300 {
            m.train_triplet(triplet(), 0.5, 0.05, &mut s);
        }
        let seen: Vec<ItemId> = vec![0, 3];
        let recs = m.recommend(1, &seen, 4);
        assert_eq!(recs.len(), 4);
        for w in recs.windows(2) {
            assert!(w[0].1 >= w[1].1, "not sorted: {recs:?}");
        }
        assert!(recs.iter().all(|(v, _)| !seen.contains(v)));
        // Trained positive (item 2) should be the top recommendation.
        assert_eq!(recs[0].0, 2);
    }

    #[test]
    fn recommend_truncates_to_catalogue() {
        let m = mars_model();
        let recs = m.recommend(0, &[], 100);
        assert_eq!(recs.len(), 8); // only 8 items exist
    }

    #[test]
    fn recommend_preserves_the_pre_serve_behaviour_exactly() {
        // `recommend` is now a thin wrapper over the mars-serve engine;
        // its output must stay bit-identical to the seed's materialize +
        // full-sort implementation (whose comparator agrees with
        // `rank_cmp` on every real score the model produces).
        for (mut m, s) in [
            (mar_model(), Scratch::new(3, 6)),
            (mars_model(), Scratch::new(3, 6)),
        ] {
            let mut s = s;
            for i in 0..60 {
                let t = Triplet {
                    user: (i % 4) as UserId,
                    positive: (i % 8) as ItemId,
                    negative: ((i + 3) % 8) as ItemId,
                };
                m.train_triplet(t, 0.4, 0.1, &mut s);
            }
            for u in 0..4u32 {
                for (seen, n) in [(vec![], 3usize), (vec![1, 2], 8), (vec![0, 4, 7], 100)] {
                    // The seed implementation, inlined verbatim.
                    let candidates: Vec<ItemId> =
                        (0..8).filter(|v| seen.binary_search(v).is_err()).collect();
                    let mut scores = Vec::new();
                    m.score_many(u, &candidates, &mut scores);
                    let mut expect: Vec<(ItemId, f32)> =
                        candidates.into_iter().zip(scores).collect();
                    expect.sort_by(|a, b| {
                        // Deliberately inlines the seed's comparator to pin
                        // the compat contract.
                        // audit:allow(nan-ordering) — verbatim seed code
                        b.1.partial_cmp(&a.1)
                            .unwrap_or(std::cmp::Ordering::Equal)
                            .then(a.0.cmp(&b.0))
                    });
                    expect.truncate(n);

                    let got = m.recommend(u, &seen, n);
                    let as_bits = |v: &[(ItemId, f32)]| -> Vec<(ItemId, u32)> {
                        v.iter().map(|&(i, s)| (i, s.to_bits())).collect()
                    };
                    assert_eq!(as_bits(&got), as_bits(&expect), "user {u} seen {seen:?}");
                }
            }
        }
    }

    #[test]
    fn theta_starts_uniform() {
        let m = mar_model();
        let t = m.theta(0);
        for &w in &t {
            assert!((w - 1.0 / 3.0).abs() < 1e-6);
        }
    }

    #[test]
    fn init_respects_geometry_constraints() {
        assert!(mar_model().check_norm_invariant(1e-4));
        let mars = mars_model();
        assert!(mars.check_norm_invariant(1e-4));
        assert!(mars.params().user_facets.all_unit(1e-4));
    }

    #[test]
    fn similarity_matches_manual_computation() {
        let m = mars_model();
        let theta = m.theta(1);
        let mut uf = vec![0.0; 6];
        let mut vf = vec![0.0; 6];
        let mut expect = 0.0;
        for k in 0..3 {
            m.user_facet(1, k, &mut uf);
            m.item_facet(2, k, &mut vf);
            expect += theta[k] * ops::cosine(&uf, &vf);
        }
        assert!((m.similarity(1, 2) - expect).abs() < 1e-5);
    }

    #[test]
    fn score_many_agrees_with_score() {
        for m in [mar_model(), mars_model()] {
            let items: Vec<ItemId> = (0..8).collect();
            let mut batch = Vec::new();
            m.score_many(1, &items, &mut batch);
            for (i, &v) in items.iter().enumerate() {
                let single = m.score(1, v);
                assert!(
                    (batch[i] - single).abs() < 1e-5,
                    "item {v}: batch {} vs single {single}",
                    batch[i]
                );
            }
        }
    }

    #[test]
    fn score_block_is_bit_identical_to_score_many() {
        // The batched evaluator's exactness rests on this: the fused block
        // path and the per-facet score_many path must agree to the last
        // bit, for both geometries.
        for m in [mar_model(), mars_model()] {
            let items: Vec<ItemId> = (0..8).rev().collect();
            let mut many = Vec::new();
            let mut block = Vec::new();
            for u in 0..4 {
                m.score_many(u, &items, &mut many);
                m.score_block(u, &items, &mut block);
                let many_bits: Vec<u32> = many.iter().map(|v| v.to_bits()).collect();
                let block_bits: Vec<u32> = block.iter().map(|v| v.to_bits()).collect();
                assert_eq!(many_bits, block_bits, "user {u} diverged");
                // The full Scorer contract: `score` must agree bitwise too
                // (the sequential protocol scores positives through it).
                for (idx, &v) in items.iter().enumerate() {
                    assert_eq!(m.score(u, v).to_bits(), block_bits[idx], "item {v}");
                }
            }
        }
    }

    #[test]
    fn item_norm_table_is_built_once_and_dropped_by_params_mut() {
        use mars_data::{SyntheticConfig, SyntheticDataset};
        use mars_metrics::{EvalConfig, RankingEvaluator};
        use mars_runtime::WorkerPool;
        use std::sync::Mutex;
        use std::thread::ThreadId;

        /// Scores through the model and records which thread saw which
        /// table after each block.
        struct Probe<'a> {
            model: &'a MultiFacetModel,
            sightings: Mutex<Vec<(ThreadId, usize)>>,
        }
        impl Scorer for Probe<'_> {
            fn score(&self, user: UserId, item: ItemId) -> f32 {
                self.model.score(user, item)
            }
            fn score_block(&self, user: UserId, items: &[ItemId], out: &mut Vec<f32>) {
                self.model.score_block(user, items, out);
                let table = self.model.item_norms.get().expect("score_block builds it");
                let sighting = (std::thread::current().id(), table.as_ptr() as usize);
                self.sightings.lock().unwrap().push(sighting);
            }
        }

        let data = SyntheticDataset::generate(
            "norm-table",
            &SyntheticConfig {
                num_users: 40,
                num_items: 30,
                num_interactions: 600,
                num_categories: 3,
                seed: 3,
                ..Default::default()
            },
        )
        .dataset;
        let mut m = MultiFacetModel::new(MarsConfig::mars(3, 6), 40, 30);
        assert!(m.item_norms.get().is_none(), "lazy: nothing built yet");

        // The workers of one evaluation race to the first `score_block`;
        // all of them must end up reading one table.
        let probe = Probe {
            model: &m,
            sightings: Mutex::new(Vec::new()),
        };
        let evaluator = RankingEvaluator::new(EvalConfig {
            num_negatives: 10,
            cutoffs: vec![5],
            seed: 1,
            threads: 3,
        });
        let report = evaluator.evaluate_pairs_on(&probe, &data, &data.test, &WorkerPool::new(3));
        assert!(report.cases > 0);
        let sightings = probe.sightings.into_inner().unwrap();
        let (first_thread, table) = sightings[0];
        assert!(
            sightings.iter().any(|&(thread, _)| thread != first_thread),
            "one worker proves nothing"
        );
        assert!(
            sightings.iter().all(|&(_, seen)| seen == table),
            "the table was rebuilt or duplicated"
        );

        // Later calls keep reading it; its values are `ops::norm` of the rows.
        m.score_block(0, &[1, 2, 3], &mut Vec::new());
        assert_eq!(m.item_norms().as_ptr() as usize, table);
        let mut row = vec![0.0; 6];
        m.item_facet(7, 2, &mut row);
        assert_eq!(
            m.item_norms()[7 * 3 + 2].to_bits(),
            ops::norm(&row).to_bits()
        );

        // A clone carries the table; handing out `&mut Params` drops it.
        let cloned = m.clone();
        assert_eq!(cloned.item_norms.get(), m.item_norms.get());
        m.params_mut();
        assert!(m.item_norms.get().is_none());
        assert!(cloned.item_norms.get().is_some());

        // A loaded snapshot arrives with the table built; Euclidean scoring
        // never builds one, loaded or not.
        let path = std::env::temp_dir().join(format!("mars-norm-table-{}", std::process::id()));
        for (model, expect_table) in [(cloned, true), (mar_model(), false)] {
            crate::io::save(&model, &path).unwrap();
            let loaded = crate::io::load(model.config().clone(), &path).unwrap();
            assert_eq!(loaded.item_norms.get().is_some(), expect_table);
            assert_eq!(loaded.item_norms.get(), model.item_norms.get());
            loaded.score_block(0, &[1, 2, 3], &mut Vec::new());
            assert_eq!(loaded.item_norms.get().is_some(), expect_table);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn train_step_reduces_triplet_loss_mar() {
        let mut m = mar_model();
        let t = triplet();
        let before = m.triplet_loss(t, 0.5);
        let mut s = Scratch::new(3, 6);
        for _ in 0..50 {
            m.train_triplet(t, 0.5, 0.05, &mut s);
        }
        let after = m.triplet_loss(t, 0.5);
        assert!(
            after.total(0.1, 0.01) < before.total(0.1, 0.01),
            "before {:?} after {:?}",
            before,
            after
        );
    }

    #[test]
    fn train_step_reduces_triplet_loss_mars() {
        let mut m = mars_model();
        let t = triplet();
        let before = m.triplet_loss(t, 0.5);
        let mut s = Scratch::new(3, 6);
        for _ in 0..50 {
            m.train_triplet(t, 0.5, 0.05, &mut s);
        }
        let after = m.triplet_loss(t, 0.5);
        assert!(
            after.total(0.1, 0.01) < before.total(0.1, 0.01),
            "before {:?} after {:?}",
            before,
            after
        );
    }

    #[test]
    fn training_separates_positive_from_negative() {
        for mut m in [mar_model(), mars_model()] {
            let t = triplet();
            let mut s = Scratch::new(3, 6);
            for _ in 0..200 {
                m.train_triplet(t, 0.5, 0.05, &mut s);
            }
            let sp = m.score(t.user, t.positive);
            let sq = m.score(t.user, t.negative);
            assert!(sp > sq, "positive {sp} should outscore negative {sq}");
        }
    }

    #[test]
    fn mars_preserves_sphere_through_training() {
        let mut m = mars_model();
        let mut s = Scratch::new(3, 6);
        for i in 0..100 {
            let t = Triplet {
                user: (i % 4) as UserId,
                positive: (i % 8) as ItemId,
                negative: ((i + 3) % 8) as ItemId,
            };
            m.train_triplet(t, 0.4, 0.1, &mut s);
        }
        assert!(m.check_norm_invariant(1e-3));
    }

    #[test]
    fn mar_ball_constraint_holds_through_training() {
        let mut m = mar_model();
        let mut s = Scratch::new(3, 6);
        for i in 0..100 {
            let t = Triplet {
                user: (i % 4) as UserId,
                positive: (i % 8) as ItemId,
                negative: ((i + 3) % 8) as ItemId,
            };
            m.train_triplet(t, 0.4, 0.1, &mut s);
        }
        assert!(m.check_norm_invariant(1e-3));
    }

    #[test]
    fn theta_moves_towards_discriminative_facets() {
        // After training on one triplet repeatedly, theta should deviate
        // from uniform (some facet becomes more useful).
        let mut m = mars_model();
        let mut s = Scratch::new(3, 6);
        for _ in 0..300 {
            m.train_triplet(triplet(), 0.8, 0.05, &mut s);
        }
        let theta = m.theta(1);
        let spread = theta.iter().cloned().fold(0.0f32, f32::max)
            - theta.iter().cloned().fold(1.0f32, f32::min);
        assert!(spread > 1e-3, "theta stayed uniform: {theta:?}");
        let sum: f32 = theta.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
    }

    #[test]
    fn ivf_full_probe_reproduces_exact_retrieval_for_every_geometry() {
        // The IndexEmbeddings impl must satisfy the index module's
        // equivalence guarantee: with every cell probed, ExactRescore
        // retrieval is bit-identical to the exact scan — spherical
        // (normalized IP index) and Euclidean (raw negative-L2 index).
        use mars_serve::{IvfConfig, RecQuery, Retriever};
        for mut m in [mars_model(), mar_model()] {
            let mut s = Scratch::new(3, 6);
            for i in 0..40 {
                let t = Triplet {
                    user: (i % 4) as UserId,
                    positive: (i % 8) as ItemId,
                    negative: ((i + 3) % 8) as ItemId,
                };
                m.train_triplet(t, 0.4, 0.1, &mut s);
            }
            let n = m.num_items();
            let exact = Retriever::new(m, n);
            let indexed = exact.clone().with_index(IvfConfig {
                cells: 4,
                nprobe: 4,
                ..IvfConfig::default()
            });
            let as_bits = |v: &[(ItemId, f32)]| -> Vec<(ItemId, u32)> {
                v.iter().map(|&(i, s)| (i, s.to_bits())).collect()
            };
            for u in 0..4u32 {
                let q = RecQuery::top_k(u, 5).excluding(&[1, 6]);
                assert_eq!(
                    as_bits(&indexed.retrieve(&q).ranked),
                    as_bits(&exact.retrieve(&q).ranked),
                    "user {u}"
                );
            }
        }
    }
}
