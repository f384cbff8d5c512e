//! # mars-metrics
//!
//! Ranking metrics and the evaluation protocol of the paper (§V-A2):
//! leave-one-out with 100 sampled negatives, reporting HR@{10,20} and
//! nDCG@{10,20}. The [`Scorer`] trait is the only thing a model must
//! implement to be evaluated — every baseline and MAR/MARS plug into the
//! same [`RankingEvaluator`], so comparisons in the harness differ only in
//! the model.

// This crate is part of the deterministic numeric core: no unsafe
// anywhere (the vetted unsafe surface lives in mars-tensor::simd
// and mars-runtime; see `cargo run -p mars-audit -- check`).
#![forbid(unsafe_code)]
pub mod beyond_accuracy;
pub mod protocol;
pub mod ranking;

pub use protocol::{EvalConfig, RankingEvaluator, Report};
pub use ranking::{auc_from_rank, hit_ratio_at, mrr_from_rank, ndcg_at};

use mars_data::{ItemId, UserId};

/// Anything that can score a `(user, item)` pair. Higher = more relevant.
///
/// Implementations must be deterministic during evaluation (train first,
/// then score).
///
/// **Bitwise-agreement contract:** all three scoring entry points must
/// produce bit-identical values for the same `(user, item)` — `score`,
/// `score_many`, and `score_block` may reorganize the computation (hoist
/// loop-invariant work, fuse kernels, read values that depend only on the
/// parameters — MARS's item-facet norms — from a table the model keeps
/// current) but not its float semantics. The
/// batched evaluation engine is asserted bit-identical to the sequential
/// protocol, and the two paths mix entry points freely (sequential scores
/// the held-out item via `score` and the negatives via `score_many`;
/// batched scores the whole candidate block via `score_block`), so a model
/// whose entry points disagree in even the last bit can flip a rank on a
/// near-tie and silently break that guarantee.
///
/// **Ordering contract (retrieval):** scores only need to be *comparable*,
/// not calibrated. `mars-serve`'s top-k retriever orders candidates by
/// descending score under a **total** order (`mars_serve::rank_cmp`):
/// equal scores — including `+0.0` vs `-0.0`, which compare IEEE-equal —
/// break by ascending item id, and NaN ranks strictly after every real
/// score (either sign, any payload). A scorer should avoid NaN — it means
/// "rank this item last", never "rank it high" — but emitting one cannot
/// produce nondeterminism, an inconsistent sort, or a panic downstream.
/// Note the *evaluation* protocol's tie convention is different and
/// stricter: `rank_of_positive` is pessimistic (a negative tying the
/// held-out item ranks above it, with no id tie-break), so score ties are
/// harmless in serving but cost HR/nDCG in evaluation.
pub trait Scorer {
    /// Preference score of `user` for `item`.
    fn score(&self, user: UserId, item: ItemId) -> f32;

    /// Scores one user against many items. The default loops over
    /// [`Scorer::score`]; models with shareable per-user work (projecting
    /// the user into K facet spaces, say) override this.
    fn score_many(&self, user: UserId, items: &[ItemId], out: &mut Vec<f32>) {
        out.clear();
        out.extend(items.iter().map(|&v| self.score(user, v)));
    }

    /// Scores one user against a whole candidate *block* — the batched
    /// evaluator's hot path (one call per 101-candidate leave-one-out
    /// case). The default delegates to [`Scorer::score_many`]; models whose
    /// parameters admit fused row kernels (MARS over contiguous facet
    /// blocks, the metric baselines over `mars-tensor::rows`) override this
    /// with a gather-free / fused implementation.
    ///
    /// **Contract:** must be bit-identical to [`Scorer::score_many`] on the
    /// same inputs — the evaluator's batched path is asserted to reproduce
    /// the sequential protocol exactly, which holds only if the two scoring
    /// entry points agree bitwise.
    fn score_block(&self, user: UserId, items: &[ItemId], out: &mut Vec<f32>) {
        self.score_many(user, items, out)
    }
}
