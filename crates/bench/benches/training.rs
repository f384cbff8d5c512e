//! Training-throughput bench: the seed's per-triplet reference path vs the
//! batched engine vs the batched engine with user-sharded threads, on the
//! synthetic multi-facet dataset.
//!
//! Run with `cargo bench --bench training`. Results are printed as a table
//! and written to `BENCH_training.json` at the workspace root so the
//! speedup is recorded alongside the code that produced it.
//!
//! This is a custom `harness = false` bench (not criterion): one
//! measurement *is* a full multi-epoch training run, and the JSON artifact
//! is the point.

use mars_bench::BenchArtifact;
use mars_core::{BatchMode, MarsConfig, Trainer};
use mars_data::{SyntheticConfig, SyntheticDataset};
use std::fmt::Write as _;
use std::time::Instant;

struct Variant {
    name: &'static str,
    mode: BatchMode,
    /// `0` = all available cores.
    threads: usize,
}

struct Measurement {
    name: &'static str,
    threads: usize,
    seconds: f64,
    triplets_per_sec: f64,
}

fn main() {
    let smoke = BenchArtifact::smoke_from_env("TRAINING_BENCH_SMOKE");
    // Item catalogue deliberately smaller than the batch so popular rows
    // repeat within a batch — the regime the accumulate/apply engine is
    // built for (and the regime real recommendation data is in: Table I's
    // datasets are long-tailed with heavy head items).
    let data = SyntheticDataset::generate(
        "bench-training",
        &SyntheticConfig {
            num_users: 300,
            num_items: 150,
            num_interactions: 9_000,
            num_categories: 4,
            seed: 7,
            ..Default::default()
        },
    );

    let mut base = MarsConfig::mars(4, 32);
    base.epochs = if smoke { 1 } else { 2 };
    base.batch_size = 1024;
    base.seed = 7;
    let triplets_per_run =
        (base.epochs * data.dataset.train.num_interactions() * base.negatives_per_positive) as f64;

    let variants = [
        Variant {
            name: "per_triplet",
            mode: BatchMode::PerTriplet,
            threads: 1,
        },
        Variant {
            name: "batched",
            mode: BatchMode::Batched,
            threads: 1,
        },
        Variant {
            name: "batched_parallel",
            mode: BatchMode::Batched,
            threads: 0,
        },
    ];

    let mut results = Vec::new();
    for v in &variants {
        let mut cfg = base.clone();
        cfg.batch_mode = v.mode;
        cfg.threads = v.threads;
        let effective_threads = mars_runtime::resolve_threads(v.threads);
        // Warm-up run (page in the dataset, JIT the branch predictors),
        // then best-of-two measured runs.
        let _ = Trainer::new(cfg.clone()).fit(&data.dataset);
        let mut best = f64::INFINITY;
        for _ in 0..2 {
            let t = Instant::now();
            let out = Trainer::new(cfg.clone()).fit(&data.dataset);
            let dt = t.elapsed().as_secs_f64();
            assert!(
                out.model.check_norm_invariant(1e-3),
                "{}: invariant violated",
                v.name
            );
            best = best.min(dt);
        }
        let m = Measurement {
            name: v.name,
            threads: effective_threads,
            seconds: best,
            triplets_per_sec: triplets_per_run / best,
        };
        println!(
            "{:<18} threads={:<2} {:>8.3}s  {:>12.0} triplets/s",
            m.name, m.threads, m.seconds, m.triplets_per_sec
        );
        results.push(m);
    }

    let baseline = results[0].seconds;
    // The header's thread count gives context for the per-variant thread
    // counts below (the `*_parallel` variant uses exactly that many).
    let mut art = BenchArtifact::open("training_throughput", "BENCH_training.json", smoke);
    let json = art.body();
    let _ = writeln!(
        json,
        "  \"dataset\": {{\"users\": 300, \"items\": 150, \"interactions\": {}}},",
        data.dataset.train.num_interactions()
    );
    let _ = writeln!(
        json,
        "  \"config\": {{\"model\": \"MARS\", \"facets\": 4, \"dim\": 32, \"epochs\": {}, \"batch_size\": {}}},",
        base.epochs, base.batch_size
    );
    json.push_str("  \"variants\": [\n");
    for (i, m) in results.iter().enumerate() {
        // Be honest when the "parallel" variant could not actually shard:
        // on a 1-core machine it degenerates to the serial batched path and
        // its speedup must not be read as evidence for threading.
        let note = if m.name == "batched_parallel" && m.threads <= 1 {
            ", \"note\": \"only 1 core available; parallel path degenerated to serial batched\""
        } else {
            ""
        };
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"threads\": {}, \"seconds\": {:.4}, \"triplets_per_sec\": {:.0}, \"speedup_vs_per_triplet\": {:.2}{}}}{}",
            m.name,
            m.threads,
            m.seconds,
            m.triplets_per_sec,
            baseline / m.seconds,
            note,
            if i + 1 < results.len() { "," } else { "" }
        );
    }
    json.push_str("  ]\n");
    art.finish();
    for m in &results[1..] {
        println!(
            "speedup {} vs per_triplet: {:.2}x",
            m.name,
            baseline / m.seconds
        );
    }
}
