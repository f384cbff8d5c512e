//! Per-layer measurements of the traced run (layer = crate.module): short
//! timing loops over single public functions, plus the two decomposed
//! loops — a training-batch loop that mirrors `trainer::run_batch` stage by
//! stage, and a per-request loop (score only → direct retrieval → through
//! the service) — and a short guarded burst. None of it counts towards the
//! end-to-end metrics; each value names, in `spec::PER_LAYER`, the
//! end-to-end metric it should move.

use crate::harness::{arrival_schedule, median, median_secs, percentile, repeat_for};
use crate::load::{self, Load, Service, Snapshot, Submit};
use crate::pipeline::{Artifacts, Outcome, RunConfig};
use crate::spec::{self, Workload};
use crate::trace::{self, SpanId, SpanLog};
use mars_core::{io, BatchAccum, MarsConfig, MultiFacetModel, Scratch, Trainer};
use mars_data::batch::{Triplet, TripletBatcher};
use mars_data::margin::compute_margins;
use mars_data::sampler::{
    NegativeSampler, PopularityNegativeSampler, UniformNegativeSampler, UserSampler,
};
use mars_data::{Dataset, Interactions, ItemId, UserId};
use mars_metrics::{EvalConfig, RankingEvaluator, Scorer};
use mars_runtime::rng::seeds;
use mars_runtime::{CounterRng, OneShotSlot, WorkerPool};
use mars_serve::{CellStore, DegradeConfig, IndexEmbeddings, IvfConfig, IvfIndex, IvfMode};
use mars_serve::{RetrievalScratch, Retriever, ServiceConfig, DEFAULT_CHUNK_ITEMS};
use mars_tensor::{kmeans, simd, Matrix};
use std::collections::HashSet;
use std::hint::black_box;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Time each micro measurement may take.
const MICRO: Duration = Duration::from_millis(150);
/// Counter stream of the guarded burst's arrival schedule.
const STREAM_BURST: u64 = 7;
/// Counter stream of the kernel micro measurements' operands.
const STREAM_OPERANDS: u64 = 8;

/// Median seconds per call of `f`, over [`MICRO`].
fn secs_per_call(mut f: impl FnMut()) -> f64 {
    f(); // warm caches and lazily sized buffers
    median_secs(&repeat_for(MICRO, 3, &mut f))
}

// --- mars-runtime ---------------------------------------------------------------

fn runtime(threads: usize, out: &mut Outcome) {
    const CALLS: usize = 1_000;
    let pool = WorkerPool::new(threads);
    let mut shards = vec![0u64; pool.workers()];
    let per_rep = secs_per_call(|| {
        for _ in 0..CALLS {
            pool.scatter(&mut shards, |i, s| *s += i as u64);
        }
    });
    black_box(&shards);
    out.set("runtime.pool.scatter_ns", per_rep * 1e9 / CALLS as f64);

    // One round trip = hand an index to another thread over a bounded
    // channel, park on a stack slot, get woken by its `fill` — the path a
    // served request takes to the dispatcher and back.
    let per_rep = secs_per_call(|| {
        let slots: Vec<OneShotSlot<usize>> = (0..CALLS).map(|_| OneShotSlot::new()).collect();
        thread::scope(|scope| {
            let (tx, rx) = mpsc::sync_channel::<usize>(1);
            let slots = &slots;
            scope.spawn(move || {
                for i in rx {
                    slots[i].fill(i);
                }
            });
            for (i, slot) in slots.iter().enumerate() {
                tx.send(i).expect("echo thread alive");
                black_box(slot.wait());
            }
        });
    });
    out.set("runtime.oneshot.roundtrip_ns", per_rep * 1e9 / CALLS as f64);

    simd::install_rng_kernel();
    let mut words = vec![0u64; 4_096];
    let mut rng = CounterRng::keyed(1, 1);
    let per_rep = secs_per_call(|| {
        for _ in 0..64 {
            rng.fill_block(&mut words);
        }
        black_box(&words);
    });
    out.set(
        "runtime.rng.fill_ns_per_word",
        per_rep * 1e9 / (64 * words.len()) as f64,
    );
}

// --- mars-tensor ----------------------------------------------------------------

fn operands(rng: &mut CounterRng, len: usize) -> Vec<f32> {
    (0..len)
        .map(|_| crate::harness::unit_f64(rng) as f32 - 0.5)
        .collect()
}

fn tensor(w: &Workload, art: &Artifacts, out: &mut Outcome) {
    // As many rows as the workload's item table has facet rows, so the
    // kernels stream a working set of the workload's size.
    let model = art.model.as_ref();
    let rows = art.inputs.data.num_items() * model.num_index_facets();
    let mut rng = CounterRng::keyed(art.inputs.data.num_items() as u64, STREAM_OPERANDS);
    let mut scores = vec![0.0f32; rows];
    let per_row = |secs: f64| secs * 1e9 / rows as f64;
    let (a, mut b) = (operands(&mut rng, rows * 32), operands(&mut rng, rows * 32));
    out.set(
        "tensor.simd.dot_rows_ns_per_row",
        per_row(secs_per_call(|| simd::dot_rows(&a, &b, 32, &mut scores))),
    );
    let alpha = operands(&mut rng, rows);
    // Alternate the sign so `b` stays bounded over many calls.
    let mut sign = 1.0f32;
    let axpy = secs_per_call(|| {
        let alpha: Vec<f32> = alpha.iter().map(|x| x * sign).collect();
        sign = -sign;
        simd::axpy_rows(&alpha, &a, &mut b, 32);
    });
    out.set("tensor.simd.axpy_rows_ns_per_row", per_row(axpy));
    let (a, b) = (operands(&mut rng, rows * 64), operands(&mut rng, rows * 64));
    out.set(
        "tensor.simd.dist_sq_rows_ns_per_row",
        per_row(secs_per_call(|| {
            simd::dist_sq_rows(&a, &b, 64, &mut scores)
        })),
    );
    black_box(&scores);

    // The clustering one facet of the IVF build runs.
    let cfg = w.ivf_config();
    let n = art.inputs.data.num_items().min(cfg.train_sample.max(1));
    let dim = model.index_dim();
    let mut data = Matrix::zeros(n, dim);
    for v in 0..n {
        model.item_index_vector(v as ItemId, 0, data.row_mut(v));
    }
    let cells = (art.inputs.data.num_items() as f64).sqrt().ceil() as usize;
    let reps = repeat_for(MICRO, 1, || {
        black_box(kmeans::kmeans(&data, cells.min(n), cfg.max_iters, cfg.seed)).iterations
    });
    out.set("tensor.kmeans.fit_ms", median_secs(&reps) * 1e3);
}

// --- the decomposed training-batch loop -----------------------------------------------

/// The trainer draws its negatives through a private wrapper that forwards
/// only `sample_negative`, so the engine's batches come from the trait's
/// default block path — not from `UniformNegativeSampler`'s own block
/// override, which may consume the counter stream differently (it does:
/// seed 3 of `dense` trains a different model). The mirror must draw the
/// way the engine draws.
struct ScalarDraws<S>(S);

impl<S: NegativeSampler> NegativeSampler for ScalarDraws<S> {
    fn sample_negative<R: rand::RngCore + ?Sized>(
        &self,
        x: &Interactions,
        u: UserId,
        rng: &mut R,
    ) -> Option<ItemId> {
        self.0.sample_negative(x, u, rng)
    }
}

struct Shard {
    buf: Vec<(Triplet, f32)>,
    scratch: Scratch,
    acc: BatchAccum,
    log: SpanLog,
}

/// What one attempt of the decomposed loop measured.
struct TrainAttempt {
    /// Spans of this attempt only, by name.
    totals: std::collections::BTreeMap<&'static str, trace::NameTotals>,
    triplets: u64,
    /// Unique parameter rows ÷ triplets, on a sample of batches.
    rows_per_triplet: f64,
    /// Check pairs on which the decomposed model differs from the fit's.
    differing: usize,
    ratio: f64,
}

/// Trains one epoch from a fresh model with the stages of
/// `trainer::run_batch` called one by one from here, a span around each,
/// and compares it with the engine's own one-epoch fit (same seed, same
/// thread count, serial fill): the same batches, so the two models must be
/// bit-equal, and the stage times must add up to the engine's wall time.
fn train_attempt(
    model_cfg: &MarsConfig,
    art: &Artifacts,
    log: &mut SpanLog,
    root: SpanId,
) -> TrainAttempt {
    let data: &Dataset = &art.inputs.data;
    let x = &data.train;
    let first_span = log.spans().len();

    // The engine's wall time for the epoch's batches alone: a one-epoch
    // fit minus a zero-epoch fit, which pays the same model init, margins,
    // samplers and thread start-up and then trains nothing.
    let timed_fit = |epochs: usize, log: &mut SpanLog| {
        let mut c = model_cfg.clone();
        c.epochs = epochs;
        let t = Instant::now();
        let model = log
            .span("core.trainer.fit", root, epochs as u64, || {
                Trainer::new(c).fit(data)
            })
            .model;
        (model, t.elapsed().as_secs_f64())
    };
    let (_, fixed_s) = timed_fit(0, log);
    let (reference, fit_s) = timed_fit(1, log);

    let margins = compute_margins(x, model_cfg.margin, model_cfg.min_margin);
    let k = model_cfg.negatives_per_positive.max(1);
    let slots = (model_cfg.batch_size.max(1) / k).max(1);
    let mut batcher = TripletBatcher::with_negatives(
        UserSampler::explorative(x, model_cfg.beta_explore),
        ScalarDraws(UniformNegativeSampler),
        slots,
        k,
        seeds::sampling(model_cfg.seed),
    );
    let batches = batcher.batches_per_epoch(x);
    let pool = WorkerPool::new(art.threads);
    let mut shards: Vec<Shard> = (0..pool.workers())
        .map(|_| Shard {
            buf: Vec::new(),
            scratch: Scratch::new(model_cfg.facets, model_cfg.dim),
            acc: BatchAccum::new(model_cfg),
            log: log.fork(),
        })
        .collect();
    let mut merged = BatchAccum::new(model_cfg);
    let mut scratch = Scratch::new(model_cfg.facets, model_cfg.dim);
    let mut buf: Vec<(Triplet, f32)> = Vec::with_capacity(slots * k);
    let mut model = MultiFacetModel::new(model_cfg.clone(), data.num_users(), data.num_items());
    simd::install_rng_kernel();

    let mut triplets = 0u64;
    let (mut sampled_rows, mut sampled_triplets) = (0usize, 0usize);
    let phase = log.open("marsbench.layers.train_loop", root, 0);
    for b in 0..batches as u64 {
        let span = log.open("core.trainer.batch", phase, b);
        let batch = log.span("data.batch.fill", span, b, || batcher.fill(x, b));
        if batch.is_empty() {
            log.close(span);
            continue;
        }
        buf.clear();
        buf.extend(
            batch
                .triplets()
                .iter()
                .map(|&t| (t, margins[t.user as usize])),
        );
        triplets += buf.len() as u64;
        if shards.len() <= 1 {
            let sh = &mut shards[0];
            log.span("core.engine.accumulate_batch", span, b, || {
                sh.acc.begin_batch();
                model.accumulate_batch(&buf, &mut sh.scratch, &mut sh.acc)
            });
            log.span("core.engine.finish_batch", span, b, || {
                model.finish_batch(&mut sh.acc, model_cfg.lr, &mut sh.scratch)
            });
        } else {
            log.span("runtime.pool.shard_items", span, b, || {
                mars_runtime::shard_items(&buf, shards.iter_mut().map(|s| &mut s.buf), |(t, _)| {
                    t.user as usize
                })
            });
            let frozen: &MultiFacetModel = &model;
            let scatter = log.open("runtime.pool.scatter", span, b);
            pool.scatter(&mut shards, |_, sh| {
                let Shard {
                    buf,
                    scratch,
                    acc,
                    log,
                } = sh;
                log.span("core.engine.accumulate_batch", scatter, b, || {
                    acc.begin_batch();
                    frozen.accumulate_batch(buf, scratch, acc)
                });
            });
            log.close(scatter);
            log.span("core.engine.merge_from", span, b, || {
                merged.begin_batch();
                for sh in &shards {
                    merged.merge_from(&sh.acc);
                }
            });
            log.span("core.engine.finish_batch", span, b, || {
                model.finish_batch(&mut merged, model_cfg.lr, &mut scratch)
            });
        }
        log.close(span);
        // Row reuse, counted outside the batch span on a sample of batches.
        if b % 16 == 0 {
            let mut rows: HashSet<(bool, u32)> = HashSet::new();
            for (t, _) in &buf {
                rows.extend([(false, t.user), (true, t.positive), (true, t.negative)]);
            }
            sampled_rows += rows.len();
            sampled_triplets += buf.len();
        }
    }
    model.enforce_projection_constraint();
    log.close(phase);
    for sh in shards {
        log.absorb(sh.log);
    }

    let totals = trace::totals_by_name(&log.spans()[first_span..]);
    let of = |name: &str| totals.get(name).copied().unwrap_or_default();
    let batch = of("core.trainer.batch");
    // The parts: the batch span's own glue plus the wall time of each stage
    // directly under it (the shards' accumulate spans overlap each other
    // inside the scatter span, whose wall time already covers them).
    let stages = [
        "data.batch.fill",
        "runtime.pool.shard_items",
        "runtime.pool.scatter",
        "core.engine.merge_from",
        "core.engine.finish_batch",
    ];
    let mut stage_ns = batch.self_ns + stages.iter().map(|n| of(n).total_ns).sum::<u64>();
    if art.threads <= 1 {
        stage_ns += of("core.engine.accumulate_batch").total_ns;
    }
    let engine_batch_ns = (fit_s - fixed_s).max(1e-9) * 1e9 / batches as f64;
    TrainAttempt {
        ratio: trace::stage_sum_ratio(stage_ns, batch.count, engine_batch_ns),
        differing: art
            .inputs
            .check_pairs
            .iter()
            .filter(|&&(u, v)| model.score(u, v).to_bits() != reference.score(u, v).to_bits())
            .count(),
        rows_per_triplet: sampled_rows as f64 / sampled_triplets.max(1) as f64,
        triplets,
        totals,
    }
}

fn train_loop(
    cfg: &RunConfig,
    art: &Artifacts,
    log: &mut SpanLog,
    root: SpanId,
    out: &mut Outcome,
) {
    let w = cfg.workload.at(cfg.scale);
    let mut model_cfg: MarsConfig = w.model_config(art.threads);
    model_cfg.prefetch = false;

    // Two walls of a couple of seconds each are compared, and this kind of
    // VM has seconds in which two-thread work runs at half speed: a ratio
    // outside the band is measured again, up to twice. Noise does not
    // repeat; a decomposition that does not mirror the engine does.
    let mut attempt = train_attempt(&model_cfg, art, log, root);
    let mut attempts = 1;
    while !trace::stage_sum_ok(attempt.ratio) && attempts < 3 {
        attempt = train_attempt(&model_cfg, art, log, root);
        attempts += 1;
    }
    let TrainAttempt {
        totals,
        triplets,
        rows_per_triplet,
        differing,
        ratio,
    } = attempt;
    out.note("train_loop_attempts", attempts as f64);
    out.note("train_loop_threads", art.threads as f64);
    out.check(differing == 0, || {
        format!(
            "decomposed training loop differs from Trainer::fit on {differing} of the check pairs"
        )
    });
    out.set("core.trainer.stage_sum_ratio", ratio);
    // A smoke-scale epoch is a few dozen batches: its ratio is printed but
    // too noisy to gate on.
    out.check(
        cfg.scale == spec::Scale::Smoke || trace::stage_sum_ok(ratio),
        || {
            format!(
                "core.trainer.stage_sum_ratio {ratio:.3} outside 0.85..1.15 in {attempts} attempts"
            )
        },
    );

    let of = |name: &str| totals.get(name).copied().unwrap_or_default();
    let batch = of("core.trainer.batch");
    let per_triplet = |ns: u64| ns as f64 / triplets.max(1) as f64;
    out.set(
        "data.batch.fill_ns_per_triplet",
        per_triplet(of("data.batch.fill").total_ns),
    );
    out.set(
        "data.batch.sampling_share",
        of("data.batch.fill").total_ns as f64 / batch.total_ns.max(1) as f64,
    );
    out.set(
        "core.engine.accumulate_ns_per_triplet",
        per_triplet(of("core.engine.accumulate_batch").total_ns),
    );
    out.set(
        "core.engine.finish_ns_per_triplet",
        per_triplet(of("core.engine.finish_batch").total_ns),
    );
    out.set(
        "core.engine.merge_ns_per_triplet",
        per_triplet(of("core.engine.merge_from").total_ns),
    );
    out.set("core.engine.rows_per_triplet", rows_per_triplet);
    out.set(
        "core.trainer.batch_ns",
        batch.total_ns as f64 / batch.count.max(1) as f64,
    );
    out.set("core.trainer.par_speedup", art.fit_s / art.fit_par_s);

    // The popularity sampler's fill, which no workload trains with, drawn
    // the way the trainer would draw with it.
    let x = &art.inputs.data.train;
    let k = model_cfg.negatives_per_positive.max(1);
    let mut pop = TripletBatcher::with_negatives(
        UserSampler::explorative(x, model_cfg.beta_explore),
        ScalarDraws(PopularityNegativeSampler::new(x, 0.75)),
        (model_cfg.batch_size.max(1) / k).max(1),
        k,
        seeds::sampling(model_cfg.seed),
    );
    let mut filled = 0usize;
    let mut next = 0u64;
    let per_rep = secs_per_call(|| {
        filled = 0;
        for _ in 0..16 {
            filled += pop.fill(x, next).len();
            next += 1;
        }
    });
    out.set(
        "data.batch.fill_pop_ns_per_triplet",
        per_rep * 1e9 / filled.max(1) as f64,
    );
}

// --- mars-core::io -----------------------------------------------------------------

fn snapshot_io(art: &Artifacts, load_ms: f64, out: &mut Outcome) {
    let path = art.snapshot_path.with_extension("layer.snap");
    let saves = repeat_for(MICRO, 3, || io::save(art.model.as_ref(), &path));
    out.check(saves.iter().all(|(_, r)| r.is_ok()), || {
        "io::save failed in the layer measurement".into()
    });
    out.set("core.io.save_ms", median_secs(&saves) * 1e3);
    out.set("core.io.load_ms", load_ms);
    let bytes = std::fs::read(&path).unwrap_or_default();
    let _ = std::fs::remove_file(&path);
    out.set("core.io.snapshot_bytes", bytes.len() as f64);
    let secs = secs_per_call(|| {
        let mut crc = io::Crc32::new();
        crc.update(&bytes);
        black_box(crc.finish());
    });
    out.set("core.io.crc_mb_per_s", bytes.len() as f64 / 1e6 / secs);
}

// --- mars-metrics -------------------------------------------------------------------

fn protocol(art: &Artifacts, out: &mut Outcome) {
    let data = &art.inputs.data;
    let model = art.model.as_ref();
    let serial = RankingEvaluator::new(EvalConfig {
        threads: 1,
        ..EvalConfig::default()
    });
    let secs = secs_per_call(|| {
        black_box(serial.evaluate(model, data));
    });
    out.set(
        "metrics.protocol.eval_ns_per_pair",
        secs * 1e9 / data.test.len().max(1) as f64,
    );

    // The protocol's 101-candidate block per held-out pair, scoring only.
    let mut rng = CounterRng::keyed(data.test.len() as u64, STREAM_OPERANDS);
    let blocks: Vec<Vec<ItemId>> = data
        .test
        .iter()
        .map(|h| {
            let mut block = vec![h.item];
            block.extend((0..100).map(|_| rng.gen_below(data.num_items() as u64) as ItemId));
            block
        })
        .collect();
    let mut scores = Vec::with_capacity(101);
    let secs = secs_per_call(|| {
        for (h, block) in data.test.iter().zip(&blocks) {
            model.score_block(h.user, block, &mut scores);
        }
        black_box(&scores);
    });
    out.set(
        "metrics.protocol.score_ns_per_pair",
        secs * 1e9 / data.test.len().max(1) as f64,
    );
}

// --- mars-serve: retriever, topk, index ------------------------------------------------

/// Median seconds per query of `retriever` on one thread with warm scratch.
fn secs_per_query(retriever: &Retriever<MultiFacetModel>, art: &Artifacts) -> f64 {
    let mut scratch = RetrievalScratch::new();
    let mut ranked = Vec::new();
    let queries = &art.inputs.queries;
    secs_per_call(|| {
        for q in queries {
            retriever.retrieve_ranked_into(&q.as_query(), &mut scratch, &mut ranked);
        }
        black_box(&ranked);
    }) / queries.len() as f64
}

fn retrieval(w: &Workload, art: &Artifacts, build_ms: f64, out: &mut Outcome) {
    let items = art.inputs.data.num_items();
    let model = art.exact.model().as_ref();
    let scan = secs_per_query(&art.exact, art);
    // The scan's scoring alone: the whole catalogue through `score_block`
    // in the retriever's chunks, nothing selected.
    let ids: Vec<ItemId> = (0..items as ItemId).collect();
    let mut scores = Vec::with_capacity(DEFAULT_CHUNK_ITEMS);
    let queries = &art.inputs.queries;
    let score = secs_per_call(|| {
        for q in queries {
            for chunk in ids.chunks(DEFAULT_CHUNK_ITEMS) {
                model.score_block(q.user, chunk, &mut scores);
            }
        }
        black_box(&scores);
    }) / queries.len() as f64;
    out.set(
        "serve.retriever.scan_ns_per_item",
        scan * 1e9 / items as f64,
    );
    out.set(
        "serve.retriever.score_ns_per_item",
        score * 1e9 / items as f64,
    );
    out.set(
        "serve.topk.select_ns_per_item",
        (scan - score) * 1e9 / items as f64,
    );

    // The pipeline's `nproc`-worker batch rate over this thread's
    // one-query-at-a-time rate. (A pool started here would not do: a fresh
    // worker thread can share the caller's core for seconds on this kind
    // of VM — see "Deviations" in the README.)
    out.set("serve.retriever.batch_speedup", art.exact_qps * scan);
    out.note("batch_speedup_threads", art.threads as f64);

    out.set("serve.index.build_ms", build_ms);
    out.set("serve.index.query_us", secs_per_query(&art.ivf, art) * 1e6);
    // Coarse scan over int8 cell blocks, top k·4 exactly rescored: the gap
    // to `query_us` is what exact rescoring of every probed candidate costs.
    let int8 = IvfIndex::build(
        model,
        items,
        IvfConfig {
            store: CellStore::Int8,
            ..w.ivf_config()
        },
    );
    let coarse = art
        .exact
        .clone()
        .with_prebuilt_index(Arc::new(int8))
        .with_probe(w.ivf_config().nprobe, IvfMode::Coarse { refine: 4 });
    out.set(
        "serve.index.coarse_query_us",
        secs_per_query(&coarse, art) * 1e6,
    );
    out.set("serve.index.recall10", art.recall10);
}

// --- mars-serve: service -----------------------------------------------------------------

/// The per-request loop: each request is answered three ways in turn —
/// scoring alone, direct retrieval, through the service with this thread
/// as its only client — with one span each, tagged with the request index.
fn request_loop(
    served: &Retriever<MultiFacetModel>,
    art: &Artifacts,
    log: &mut SpanLog,
    root: SpanId,
    out: &mut Outcome,
) {
    const REQUESTS: usize = 400;
    let service = Service::start(served.clone(), spec::service_config());
    let model = served.model().as_ref();
    let ids: Vec<ItemId> = (0..art.inputs.data.num_items() as ItemId).collect();
    let mut scores = Vec::new();
    let mut scratch = RetrievalScratch::new();
    let mut ranked = Vec::new();
    let (mut direct_us, mut service_us) = (Vec::new(), Vec::new());
    let phase = log.open("marsbench.layers.request_loop", root, 0);
    for (i, req) in art.inputs.requests.iter().take(REQUESTS).enumerate() {
        let tag = i as u64;
        log.span("metrics.scorer.score_block", phase, tag, || {
            for chunk in ids.chunks(DEFAULT_CHUNK_ITEMS) {
                model.score_block(req.user, chunk, &mut scores);
            }
        });
        let t = Instant::now();
        log.span("serve.retriever.retrieve_ranked_into", phase, tag, || {
            served.retrieve_ranked_into(&req.as_query(), &mut scratch, &mut ranked)
        });
        direct_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        let answer = log.span("serve.service.retrieve", phase, tag, || {
            service.retrieve(req)
        });
        service_us.push(t.elapsed().as_secs_f64() * 1e6);
        out.check(answer.is_ok(), || {
            format!("request loop: request {i} failed: {answer:?}")
        });
    }
    log.close(phase);
    out.set(
        "serve.service.overhead_us",
        median(&service_us) - median(&direct_us),
    );

    let snapshot = Snapshot::single(served.clone());
    let mut publish_ns = Vec::new();
    for _ in 0..200 {
        let t = Instant::now();
        service.publish(snapshot.clone());
        publish_ns.push(t.elapsed().as_nanos() as f64);
    }
    out.set("serve.service.publish_ns", median(&publish_ns));
}

/// A second of arrivals at 1.2 × the measured closed-loop rate against a
/// guarded service: shedding submits, a 2 ms deadline, and the IVF
/// degradation ladder. Its refusals are the point and do not count as
/// failed operations.
fn guarded_burst(
    w: &Workload,
    art: &Artifacts,
    seed: u64,
    log: &mut SpanLog,
    root: SpanId,
    out: &mut Outcome,
) {
    let nprobe = w.ivf_config().nprobe.max(1);
    let mut rungs = vec![
        art.exact.clone(),
        art.ivf.clone().with_probe(nprobe, IvfMode::ExactRescore),
    ];
    let mut np = nprobe;
    loop {
        rungs.push(
            art.ivf
                .clone()
                .with_probe(np, IvfMode::Coarse { refine: 2 }),
        );
        if np <= 1 {
            break;
        }
        np /= 2;
    }
    let backlog = (art.threads / 2).max(1);
    let service = Service::start(
        Snapshot::ladder(rungs),
        ServiceConfig {
            queue_depth: backlog,
            default_deadline: Some(Duration::from_millis(2)),
            degrade: DegradeConfig {
                high_backlog: backlog,
                low_backlog: 0,
                step_down_after: 2,
                step_up_after: 8,
                ..DegradeConfig::default()
            },
            ..spec::service_config()
        },
    );
    let rate = 1.2 * art.serve_qps;
    let schedule = arrival_schedule(seed, STREAM_BURST, rate, rate.ceil() as usize);
    let phase = log.open("marsbench.layers.guarded_burst", root, 0);
    let load = Load {
        service: &service,
        requests: &art.inputs.requests,
        clients: art.threads,
        churn: None,
    };
    let burst = load::open_loop(
        load,
        &schedule,
        Duration::ZERO,
        0,
        Submit::Shedding,
        log,
        phase,
    );
    log.close(phase);
    let stats = service.stats();
    let attempted = burst.tally.attempted.max(1) as f64;
    out.set("serve.service.shed_share", stats.shed as f64 / attempted);
    out.set(
        "serve.service.deadline_drop_share",
        stats.deadline_dropped as f64 / attempted,
    );
    out.set(
        "serve.service.degraded_share",
        stats.degraded_served as f64 / attempted,
    );
    let p99 = if burst.latency_ms.is_empty() {
        0.0
    } else {
        percentile(&burst.latency_ms, 0.99)
    };
    out.set("serve.service.guarded_p99_ms", p99);
    out.note("guarded_attempted", attempted);
    out.note("guarded_rate_qps", rate);
}

/// Every per-layer metric of the traced run.
pub fn measure(cfg: &RunConfig, art: &Artifacts, log: &mut SpanLog, out: &mut Outcome) {
    let w = &cfg.workload.at(cfg.scale);
    let seed = cfg.seed;
    let root = log.open("marsbench.layers", 0, seed);
    // Mean of the pipeline's own spans around the two publish stages.
    let (load_ms, build_ms) = {
        let totals = trace::totals_by_name(log.spans());
        let mean_ms = |name: &str| {
            totals
                .get(name)
                .map_or(0.0, |t| t.total_ns as f64 / t.count.max(1) as f64 / 1e6)
        };
        (mean_ms("core.io.load"), mean_ms("serve.index.build"))
    };
    runtime(art.threads, out);
    tensor(w, art, out);
    train_loop(cfg, art, log, root, out);
    snapshot_io(art, load_ms, out);
    protocol(art, out);
    retrieval(w, art, build_ms, out);
    let served = match w.rung {
        spec::Rung::Exact => &art.exact,
        spec::Rung::Ivf => &art.ivf,
    };
    request_loop(served, art, log, root, out);
    guarded_burst(w, art, seed, log, root, out);
    log.close(root);

    out.set("serve.service.mean_batch", art.mean_batch);
    out.set("serve.service.open_p99_ms", art.open_p99_ms);
    out.set("serve.service.gen_late_p50_us", median(&art.late_us));
    out.set("trace.overhead_share", art.overhead_share);
}
