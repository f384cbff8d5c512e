//! The one pipeline every workload runs: generate inputs → fit (1 thread)
//! → fit (all cores) → evaluate → snapshot load + IVF build + publish →
//! direct retrieval (exact, IVF) → service closed loop → service open
//! loop, with every correctness check outside the timed windows.
//!
//! Every layer is driven through its public functions only. The untraced
//! run yields the end-to-end metrics; the traced run repeats the same
//! phases with spans around each call (every other repetition, so the cost
//! of recording is measured inside that run) and hands its intermediate
//! state to `layers` for the per-layer measurements.

use crate::harness::{median, median_percentile, median_secs, percentile, repeat_for};
use crate::harness::{segment_count, supported_percentile, Reps};
use crate::inputs::{self, Inputs};
use crate::load::{self, ClientTally, ClosedProgress, Load, Service, Submit};
use crate::spec::{self, Rung, Scale, Workload};
use crate::trace::{SpanId, SpanLog};
use mars_core::{io, MarsConfig, MultiFacetModel, Trainer};
use mars_metrics::{RankingEvaluator, Scorer};
use mars_runtime::WorkerPool;
use mars_serve::{IvfIndex, IvfMode, RecQuery, RecRequest, Retriever};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub struct RunConfig {
    pub workload: Workload,
    pub scale: Scale,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Corrupt one expected answer (the smoke test's negative control).
    pub tamper: bool,
    /// Where `model.snap`, `result.json` and `trace.jsonl` go.
    pub out_dir: PathBuf,
}

/// Named values with the account of what was attempted and what failed.
#[derive(Default)]
pub struct Outcome {
    pub metrics: BTreeMap<&'static str, f64>,
    /// Numbers worth printing that are not metrics (sample counts, the
    /// supported percentile, thread counts per phase, …).
    pub notes: BTreeMap<&'static str, f64>,
    /// Failed correctness checks, human-readable; empty = correct.
    pub failures: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
    pub fn note(&mut self, name: &'static str, value: f64) {
        self.notes.insert(name, value);
    }
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Records how many repetitions a phase made and how far apart they were
/// (quartile distance over median), beside the metric itself.
fn note_reps(out: &mut Outcome, reps: &Reps, count: &'static str, spread: &'static str) {
    out.note(count, reps.len() as f64);
    if let Some(s) = reps.spread() {
        out.note(spread, s);
    }
}

/// Time of one nominal pass of the pipeline (see `spec::NOMINAL_*`).
struct Nominal<'a> {
    fit_s: f64,
    fit_par_s: f64,
    eval_pass_s: &'a Reps,
    publish_s: &'a Reps,
    exact_qps: &'a Reps,
    ivf_qps: &'a Reps,
    serve_qps: &'a Reps,
}

impl Nominal<'_> {
    fn seconds(&self, pick: impl Fn(&Reps) -> f64) -> f64 {
        self.fit_s
            + self.fit_par_s
            + pick(self.eval_pass_s)
            + pick(self.publish_s)
            + spec::NOMINAL_QUERIES / pick(self.exact_qps)
            + spec::NOMINAL_QUERIES / pick(self.ivf_qps)
            + spec::NOMINAL_REQUESTS / pick(self.serve_qps)
    }
}

/// What the traced run's per-layer measurements need from the pipeline.
pub struct Artifacts {
    pub inputs: Inputs,
    pub model: Arc<MultiFacetModel>,
    pub snapshot_path: PathBuf,
    pub exact: Retriever<MultiFacetModel>,
    pub ivf: Retriever<MultiFacetModel>,
    pub threads: usize,
    pub fit_s: f64,
    pub fit_par_s: f64,
    pub exact_qps: f64,
    pub serve_qps: f64,
    pub mean_batch: f64,
    pub late_us: Vec<f64>,
    pub open_p99_ms: f64,
    pub recall10: f64,
    pub overhead_share: f64,
}

fn triplets_per_fit(w: &Workload, cfg: &MarsConfig, inputs: &Inputs) -> f64 {
    (w.epochs * inputs.data.train.num_interactions() * cfg.negatives_per_positive) as f64
}

fn as_queries(requests: &[RecRequest]) -> Vec<RecQuery<'_>> {
    requests.iter().map(RecRequest::as_query).collect()
}

fn overlap10(a: &[(u32, f32)], b: &[(u32, f32)]) -> f64 {
    if b.is_empty() {
        return 1.0;
    }
    let hits = a
        .iter()
        .filter(|(v, _)| b.iter().any(|(w, _)| w == v))
        .count();
    hits as f64 / b.len() as f64
}

/// One repeated phase: its share of the time the fits left, what it has
/// used of it, and the value of each repetition.
struct Phase {
    share: f64,
    used: f64,
    reps: Reps,
}

impl Phase {
    fn new(share: f64) -> Self {
        Self {
            share,
            used: 0.0,
            reps: Reps::default(),
        }
    }

    /// Whether the phase has not yet used its share of `elapsed_budget`
    /// seconds of the run (or has fewer than `min_reps` repetitions).
    fn behind(&self, elapsed_budget: f64, min_reps: usize) -> bool {
        self.reps.len() < min_reps || self.used < self.share * elapsed_budget
    }

    /// Times one repetition under a span named `name`; a traced run
    /// records every other repetition. Returns the closure's result, the
    /// wall time in seconds and whether the repetition was recorded.
    fn rep<T>(
        &mut self,
        log: &mut SpanLog,
        name: &'static str,
        parent: SpanId,
        f: impl FnOnce(&mut SpanLog, SpanId) -> T,
    ) -> (T, f64, bool) {
        let traced = log.enabled();
        let record = traced && self.reps.len().is_multiple_of(2);
        log.set_enabled(record);
        let t = Instant::now();
        let id = log.open(name, parent, self.reps.len() as u64);
        let result = f(log, id);
        log.close(id);
        let secs = t.elapsed().as_secs_f64();
        log.set_enabled(traced);
        self.used += secs;
        (result, secs, record)
    }
}

/// The retrievers of the last publish repetition.
struct Published {
    exact: Retriever<MultiFacetModel>,
    ivf: Retriever<MultiFacetModel>,
    index: Arc<IvfIndex>,
    served: Retriever<MultiFacetModel>,
}

/// Runs the pipeline. `log` is the run's root span log (disabled in the
/// untraced run).
pub fn run(cfg: &RunConfig, log: &mut SpanLog, out: &mut Outcome) -> Artifacts {
    let w = cfg.workload.at(cfg.scale);
    let threads = mars_runtime::resolve_threads(0);
    let traced = log.enabled();
    // A traced phase alternates recorded and unrecorded repetitions and
    // needs enough of both.
    let min_reps = |n: usize| if traced { 2 * n } else { n };
    let root = log.open("marsbench.run", 0, cfg.seed);
    out.note("nproc", threads as f64);

    // --- set-up ---------------------------------------------------------
    let max_open_secs = cfg.seconds * spec::SHARE_OPEN;
    let mut setups = repeat_for(Duration::ZERO, spec::SETUP_REPS, || {
        inputs::generate(&w, cfg.seed, max_open_secs)
    });
    out.set("setup_s", median_secs(&setups));
    let inputs = setups.pop().expect("at least one set-up").1;
    drop(setups);
    let data = &inputs.data;
    let items = data.num_items();

    // --- fits -------------------------------------------------------------
    let cfg1 = w.model_config(1);
    let triplets = triplets_per_fit(&w, &cfg1, &inputs);
    let t = Instant::now();
    let fit = log.span("core.trainer.fit", root, 1, || {
        Trainer::new(cfg1.clone()).fit(data)
    });
    let fit_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let fit_par = log.span("core.trainer.fit", root, threads as u64, || {
        Trainer::new(w.model_config(0)).fit(data)
    });
    let fit_par_s = t.elapsed().as_secs_f64();
    out.set("fit_triplets_per_s", triplets / fit_s);
    out.set("fit_par_triplets_per_s", triplets / fit_par_s);
    out.note("fit_threads", 1.0);
    out.note("fit_par_threads", threads as f64);
    let model = Arc::new(fit.model);
    if w.is_spherical() {
        out.check(model.check_norm_invariant(1e-3), || {
            "norm invariant violated (threads 1)".into()
        });
        out.check(fit_par.model.check_norm_invariant(1e-3), || {
            "norm invariant violated (all cores)".into()
        });
    }
    drop(fit_par);

    // --- the repeated phases, in rounds -----------------------------------------
    // What the fits left of `--seconds` is cut into rounds, and every round
    // gives each phase its share: a noisy neighbour that takes a core for a
    // few seconds then slows a minority of every phase's repetitions, which
    // the medians ignore, instead of the whole of one phase.
    let rest = (cfg.seconds - fit_s - fit_par_s).max(0.5 * cfg.seconds);
    let round_secs = rest / spec::ROUNDS as f64;
    let snapshot_path = cfg.out_dir.join("model.snap");
    if let Err(e) = io::save(model.as_ref(), &snapshot_path) {
        out.failures.push(format!("io::save failed: {e}"));
    }
    let service = Service::start(
        Retriever::from_arc(Arc::clone(&model), items),
        spec::service_config(),
    );
    let evaluator = RankingEvaluator::paper();
    let pool = WorkerPool::with_threads(0);
    let queries = as_queries(&inputs.queries);

    let mut eval = Phase::new(spec::SHARE_EVAL);
    let mut publish = Phase::new(spec::SHARE_PUBLISH);
    let mut exact = Phase::new(spec::SHARE_EXACT);
    let mut ivf = Phase::new(spec::SHARE_IVF);
    let mut closed = ClosedProgress::default();
    let mut report = None;
    let mut published: Option<Published> = None;
    let stats_before = service.stats();

    // The open loop runs in windows of at least `MIN_SEGMENT_SAMPLES`
    // arrivals, spread over the rounds; each window yields one p99.
    let open_secs = rest * spec::SHARE_OPEN;
    let arrivals = inputs
        .schedule
        .partition_point(|&at| at.as_secs_f64() <= open_secs)
        .max(1);
    let windows = segment_count(arrivals, spec::MIN_SEGMENT_SAMPLES, spec::ROUNDS);
    let window_ranges = mars_runtime::chunk_ranges(arrivals, windows);
    let mut open_latency_ms: Vec<Vec<f64>> = Vec::new();
    let mut open_late_us = Vec::new();
    let mut open_tally = ClientTally::default();

    for round in 0..spec::ROUNDS {
        let last = round + 1 == spec::ROUNDS;
        let due = round_secs * (round + 1) as f64;
        // Minimum repetition counts are made up for in the last round.
        let at_least = |n: usize| if last { min_reps(n) } else { 1 };
        let span = log.open("marsbench.round", root, round as u64);

        while eval.behind(due, at_least(2)) {
            let (r, secs, record) = eval.rep(log, "metrics.protocol.evaluate", span, |_, _| {
                evaluator.evaluate_pairs_on(model.as_ref(), data, &data.test, &pool)
            });
            eval.reps.push(secs, record);
            report = Some(r);
        }

        while publish.behind(due, at_least(3)) {
            let n = publish.reps.len() as u64;
            let (p, secs, record) = publish.rep(log, "marsbench.publish", span, |log, rep| {
                let loaded = log.span("core.io.load", rep, n, || {
                    io::load(cfg1.clone(), &snapshot_path)
                });
                let loaded = match loaded {
                    Ok(m) => Arc::new(m),
                    Err(e) => {
                        out.failures.push(format!("io::load failed: {e}"));
                        Arc::clone(&model)
                    }
                };
                let index = log.span("serve.index.build", rep, n, || {
                    Arc::new(IvfIndex::build(loaded.as_ref(), items, w.ivf_config()))
                });
                let exact = Retriever::from_arc(loaded, items);
                let ivf = exact.clone().with_prebuilt_index(Arc::clone(&index));
                let served = match w.rung {
                    Rung::Exact => exact.clone(),
                    Rung::Ivf => ivf.clone(),
                };
                log.span("serve.service.publish", rep, n, || {
                    service.publish(served.clone())
                });
                Published {
                    exact,
                    ivf,
                    index,
                    served,
                }
            });
            publish.reps.push(secs, record);
            published = Some(p);
        }
        let p = published.as_ref().expect("published in round 0");

        for (phase, retriever) in [(&mut exact, &p.exact), (&mut ivf, &p.ivf)] {
            while phase.behind(due, at_least(3)) {
                let (answers, secs, record) =
                    phase.rep(log, "serve.retriever.retrieve_batch", span, |_, _| {
                        retriever.retrieve_batch(&queries, &pool)
                    });
                std::hint::black_box(answers.len());
                phase.reps.push(queries.len() as f64 / secs, record);
            }
        }

        // Every publish is content-identical, so the same snapshot serves
        // as the churn workload's republished one in every round.
        let snapshot = load::Snapshot::single(p.served.clone());
        let load = Load {
            service: &service,
            requests: &inputs.requests,
            clients: threads,
            churn: w.churn.then_some(&snapshot),
        };
        let behind = spec::SHARE_CLOSED * due - closed.used;
        load::closed_loop(
            load,
            Duration::from_secs_f64(behind.max(0.0)),
            at_least(3),
            &mut closed,
            log,
            span,
        );

        // Window k runs in round ⌊k · ROUNDS / windows⌋.
        let k = open_latency_ms.len();
        if k < windows && k * spec::ROUNDS / windows == round {
            let range = window_ranges[k].clone();
            let origin = if range.start == 0 {
                Duration::ZERO
            } else {
                inputs.schedule[range.start - 1]
            };
            let id = log.open("marsbench.open.window", span, k as u64);
            let open = load::open_loop(
                load,
                &inputs.schedule[range.clone()],
                origin,
                range.start,
                Submit::Blocking,
                log,
                id,
            );
            log.close(id);
            open_latency_ms.push(open.latency_ms);
            open_late_us.extend(open.late_us);
            open_tally.merge(open.tally);
        }
        log.close(span);
    }
    let stats = service.stats();
    drop(service);
    let Published {
        exact: exact_retriever,
        ivf: ivf_retriever,
        index,
        served,
    } = published.expect("published in round 0");

    // --- metrics and checks of the repeated phases ------------------------------------
    let report = report.expect("evaluated in round 0");
    let (hr10, ndcg10) = (f64::from(report.hr_at(10)), f64::from(report.ndcg_at(10)));
    out.set(
        "eval_pairs_per_s",
        data.test.len() as f64 / eval.reps.median(),
    );
    out.set("hr10", hr10);
    out.set("ndcg10", ndcg10);
    out.note("eval_threads", threads as f64);
    out.note("eval_pairs", data.test.len() as f64);
    note_reps(out, &eval.reps, "eval_reps", "eval_rep_spread");
    out.check(hr10 >= w.hr10_floor, || {
        format!("hr10 {hr10:.4} below floor {}", w.hr10_floor)
    });

    out.set("publish_ms", publish.reps.median() * 1e3);
    note_reps(out, &publish.reps, "publish_reps", "publish_rep_spread");
    let differing = inputs
        .check_pairs
        .iter()
        .filter(|&&(u, v)| {
            exact_retriever.model().score(u, v).to_bits() != model.score(u, v).to_bits()
        })
        .count();
    out.check(differing == 0, || {
        format!("loaded snapshot differs on {differing} of the check pairs")
    });

    out.set("exact_qps", exact.reps.median());
    out.set("ivf_qps", ivf.reps.median());
    out.note("retrieve_threads", threads as f64);
    note_reps(out, &exact.reps, "exact_reps", "exact_rep_spread");
    note_reps(out, &ivf.reps, "ivf_reps", "ivf_rep_spread");
    let exact_answers = exact_retriever.retrieve_batch(&queries, &pool);
    let ivf_answers = ivf_retriever.retrieve_batch(&queries, &pool);
    let recall10 = exact_answers
        .iter()
        .zip(&ivf_answers)
        .map(|(e, i)| overlap10(&i.ranked, &e.ranked))
        .sum::<f64>()
        / queries.len() as f64;
    out.set("ivf_recall10", recall10);
    out.check(recall10 >= w.recall10_floor, || {
        format!(
            "ivf_recall10 {recall10:.4} below floor {}",
            w.recall10_floor
        )
    });
    let full_probe = ivf_retriever
        .clone()
        .with_probe(index.cells(), IvfMode::ExactRescore);
    let differing = queries
        .iter()
        .take(spec::FULL_PROBE_QUERIES)
        .zip(&exact_answers)
        .filter(|(q, e)| !load::same_bits(&full_probe.retrieve(q), e))
        .count();
    out.check(differing == 0, || {
        format!("IVF at nprobe = cells differs from the exact scan on {differing} queries")
    });
    drop(pool);

    let serve_qps = &closed.reps;
    out.set("serve_qps", serve_qps.median());
    out.note("serve_clients", threads as f64);
    note_reps(out, serve_qps, "closed_reps", "closed_rep_spread");

    let pooled: Vec<f64> = open_latency_ms.iter().flatten().copied().collect();
    let mut open_p99_ms = 0.0;
    if !pooled.is_empty() {
        out.set("serve_p50_ms", percentile(&pooled, 0.5));
        open_p99_ms = median_percentile(&open_latency_ms, 0.99);
        out.note("open_p99_ms", open_p99_ms);
        let top = supported_percentile(pooled.len());
        out.note("open_top_percentile", top);
        out.note("open_top_percentile_ms", percentile(&pooled, top));
    }
    out.note("open_samples", pooled.len() as f64);
    out.note("open_windows", windows as f64);
    out.note("open_rate_qps", w.open_rate_qps);
    out.note("open_gen_late_p50_us", median(&open_late_us));

    // --- the operations-failed account -------------------------------------------------
    // Every request either loop sent, whether it was answered `Ok`, and
    // whether every kept answer equals direct retrieval bit for bit.
    let mut tally = open_tally;
    tally.merge(std::mem::take(&mut closed.tally));
    let wrong = load::mismatches(&tally.kept, &inputs.requests, &served, cfg.tamper);
    out.attempted = tally.attempted;
    out.failed = tally.not_ok + wrong;
    out.set(
        "serve_ok_share",
        1.0 - out.failed as f64 / out.attempted.max(1) as f64,
    );
    out.note("spot_checked", tally.kept.len() as f64);
    out.check(out.failed == 0, || {
        format!(
            "{} requests not answered Ok, {wrong} answers differ from direct retrieval",
            tally.not_ok
        )
    });
    out.check(
        stats.batch_faults == 0 && stats.degraded_served == 0,
        || format!("service faulted or degraded: {stats:?}"),
    );
    let batches = (stats.healthy_batches - stats_before.healthy_batches).max(1);
    let mean_batch = tally.attempted as f64 / batches as f64;

    // --- one nominal pass --------------------------------------------------------------
    let nominal = Nominal {
        fit_s,
        fit_par_s,
        eval_pass_s: &eval.reps,
        publish_s: &publish.reps,
        exact_qps: &exact.reps,
        ivf_qps: &ivf.reps,
        serve_qps,
    };
    out.set("pipeline_s", nominal.seconds(Reps::median));
    let overhead_share = if traced {
        nominal.seconds(|r| r.median_of(true)) / nominal.seconds(|r| r.median_of(false)) - 1.0
    } else {
        0.0
    };
    log.close(root);

    Artifacts {
        model,
        snapshot_path,
        exact: exact_retriever,
        ivf: ivf_retriever,
        threads,
        fit_s,
        fit_par_s,
        exact_qps: exact.reps.median(),
        serve_qps: serve_qps.median(),
        mean_batch,
        late_us: open_late_us,
        open_p99_ms,
        recall10,
        overhead_share,
        inputs,
    }
}

/// `<CARGO_TARGET_DIR or target>/marsbench/<workload>`, created.
pub fn default_out_dir(workload: &str) -> std::io::Result<PathBuf> {
    let base =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let dir = base.join("marsbench").join(workload);
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}
