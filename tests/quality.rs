//! Quality pins: recommendation quality of the trained models, fixed to the
//! last bit.
//!
//! Training is bit-deterministic for a seed, batch size, thread count and
//! `mars_tensor::simd` tier, and so is the evaluation protocol — so HR@10 and
//! NDCG@10 of a model trained here are constants of the code. A refactor of
//! the engine, the kernels or the sampler that claims "same results" must
//! leave them exactly where they are; one that moves them by rounding (a
//! reordered sum, a fused kernel) shows up as a small diff to re-pin and
//! justify, not as a silent drift. The paper's ordering claim rides along:
//! on a multi-facet world, MARS is at least as good as MAR.
//!
//! The pins hold on the AVX2+FMA tier (every x86-64 CI runner). The portable
//! tier rounds differently (no FMA contraction), so there the same models
//! are only required to land within a band of the pins.

use mars_repro::core::{MarsConfig, Trainer};
use mars_repro::data::{generate_latent_metric, Dataset, LatentMetricConfig};
use mars_repro::metrics::RankingEvaluator;
use mars_repro::tensor::simd::{self, Path};

/// A small multi-facet latent-metric world (the benchmark's generator):
/// 4 facet spheres, items clustered independently per facet, a wide sparse
/// catalogue (3 items per user) and sharp in-facet tastes — the regime in
/// which the paper reports its multi-facet gains. The MARS ≥ MAR ordering
/// asserted below is a property of this regime at this training budget, not
/// of every small world: on denser ones MAR's plain SGD converges faster
/// and still leads after a dozen epochs.
fn multi_facet_world() -> Dataset {
    generate_latent_metric(
        "quality-pin",
        &LatentMetricConfig {
            num_users: 200,
            num_items: 600,
            num_interactions: 6_000,
            facet_alpha: 0.15,
            cluster_alpha: 0.10,
            seed: 3,
            ..LatentMetricConfig::default()
        },
    )
    .dataset
}

/// HR@10 / NDCG@10 (paper protocol) of `cfg` trained for 12 epochs.
fn quality(mut cfg: MarsConfig, data: &Dataset) -> (f32, f32) {
    cfg.epochs = 12;
    let outcome = Trainer::new(cfg).fit(data);
    let last = outcome.history.last().expect("twelve epochs of history");
    assert!(last.params_finite && last.max_norm_drift <= 1e-3);
    assert_eq!(last.nonfinite_rows, 0);
    let report = RankingEvaluator::paper().evaluate(&outcome.model, data);
    (report.hr_at(10), report.ndcg_at(10))
}

/// Exact on the tier the pins were recorded on, a band elsewhere.
fn assert_pinned(name: &str, got: (f32, f32), pin: (f32, f32)) {
    match simd::active_path() {
        Path::Avx2Fma => assert_eq!(
            got, pin,
            "{name}: HR@10/NDCG@10 moved — if the change is meant to alter \
             rounding or the sample stream, re-pin and say why in CHANGES.md"
        ),
        Path::Portable => assert!(
            (got.0 - pin.0).abs() <= 0.03 && (got.1 - pin.1).abs() <= 0.03,
            "{name}: {got:?} is outside the portable-tier band around {pin:?}"
        ),
    }
}

#[test]
fn mar_and_mars_quality_is_pinned_and_ordered() {
    let data = multi_facet_world();
    let mar = quality(MarsConfig::mar(2, 16), &data);
    let mars = quality(MarsConfig::mars(2, 16), &data);
    assert_pinned("MAR", mar, (0.195, 0.095_498_83));
    assert_pinned("MARS", mars, (0.235, 0.118_022_7));
    // The paper's ordering on a multi-facet world.
    assert!(
        mars.0 >= mar.0 && mars.1 >= mar.1,
        "MARS {mars:?} fell below MAR {mar:?}"
    );
}
