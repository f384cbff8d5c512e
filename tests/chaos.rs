//! Chaos test for the fault-tolerant serving layer.
//!
//! One `RecService` is driven through the fault families of
//! `mars_serve::fault` — scorer panics under concurrent hot-swaps, NaN
//! storms, injected latency — plus corrupt-snapshot load attempts, and
//! after every phase the harness re-checks the service's standing
//! invariants:
//!
//! * **No caller is ever stranded** — every submitted request resolves
//!   with `Ok` or a *typed* error appropriate to its phase; `Stopped`
//!   never appears while the service is live (the restart budget
//!   replenishes on healthy progress).
//! * **No response mixes epochs** — every successful response is
//!   bit-identical to the direct-retrieval reference of **exactly one**
//!   published snapshot, even while publishes race the panic storm.
//! * **No corrupt snapshot is ever published** — a truncated or
//!   bit-flipped model file fails `io::load` with a typed error and the
//!   old epoch keeps serving.
//! * **The service returns to its latency SLO** — after all faults are
//!   disarmed, p99 recovers to within 2× the fault-free baseline (with a
//!   small absolute floor to keep the bound meaningful on noisy CI).
//!
//! `CHAOS_SMOKE=1` shrinks the request counts for a quick CI pass; the
//! phase structure and every invariant stay identical.

use mars_repro::core::{io, MarsConfig, MultiFacetModel};
use mars_repro::data::{ItemId, UserId};
use mars_repro::metrics::Scorer;
use mars_repro::serve::{
    DegradeConfig, Fault, FaultConfig, FaultScorer, RecRequest, RecResponse, RecService, Retriever,
    ServiceConfig, ServiceError, ServingSnapshot,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

const CATALOG: usize = 512;
const K: usize = 10;
const CLIENTS: usize = 4;
const EPOCHS: usize = 3;

/// A deterministic hash scorer whose output depends on an epoch tag —
/// two epochs never agree on a ranked list, which is what makes the
/// "matches exactly one epoch" check meaningful.
struct Tagged {
    tag: u64,
}

impl Scorer for Tagged {
    fn score(&self, user: UserId, item: ItemId) -> f32 {
        let mut h = self.tag ^ ((user as u64) << 32 | item as u64);
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51afd7ed558ccd);
        h ^= h >> 29;
        (h % 100_000) as f32 / 100_000.0
    }
}

type ChaosScorer = FaultScorer<Tagged>;

fn bits(v: &[(ItemId, f32)]) -> Vec<(ItemId, u32)> {
    v.iter().map(|&(i, s)| (i, s.to_bits())).collect()
}

fn p99(latencies: &mut [Duration]) -> Duration {
    assert!(!latencies.is_empty());
    latencies.sort();
    let idx = (latencies.len() as f64 * 0.99).ceil() as usize;
    latencies[idx.saturating_sub(1).min(latencies.len() - 1)]
}

/// Fires `n` sequential requests per client thread and returns every
/// `(user, outcome, latency)` observed. Panics only on a stranded caller
/// (a hang would fail the test harness's own timeout).
fn run_load(
    service: &Arc<RecService<ChaosScorer>>,
    n: usize,
    budget: Option<Duration>,
) -> Vec<(UserId, Result<RecResponse, ServiceError>, Duration)> {
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let service = Arc::clone(service);
            thread::spawn(move || {
                let mut out = Vec::with_capacity(n);
                for i in 0..n {
                    let user = ((c * n + i) % 97) as UserId;
                    let mut req = RecRequest::top_k(user, K);
                    if let Some(b) = budget {
                        req = req.within(b);
                    }
                    let t0 = Instant::now();
                    let outcome = service.retrieve(&req);
                    out.push((user, outcome, t0.elapsed()));
                }
                out
            })
        })
        .collect();
    handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread must not die"))
        .collect()
}

/// Asserts `resp` is bit-identical to the direct-retrieval reference of
/// exactly one published epoch — the no-epoch-mixing invariant.
fn assert_one_epoch(refs: &[Retriever<ChaosScorer>], user: UserId, resp: &RecResponse) {
    let got = bits(&resp.ranked);
    let q = RecRequest::top_k(user, K);
    let matches = refs
        .iter()
        .filter(|r| bits(&r.retrieve(&q.as_query()).ranked) == got)
        .count();
    assert_eq!(
        matches, 1,
        "response for user {user} matched {matches} epochs — epoch mixing or torn snapshot"
    );
}

#[test]
fn chaos_faults_never_strand_callers_and_the_service_recovers() {
    let smoke = std::env::var("CHAOS_SMOKE").is_ok();
    let reqs = if smoke { 150 } else { 600 };

    // One FaultScorer per epoch: the service snapshot and the reference
    // retriever share the instance (Retriever::from_arc), so armed NaN
    // verdicts agree call-for-call.
    // ~2 sleeps per 512-item scan ⇒ ~1ms injected per request: enough to
    // trip a sub-millisecond EWMA trigger, cheap enough that the latency
    // phase stays a second, not a minute.
    let fault_cfg = FaultConfig {
        panic_every: 20_000,
        sleep_every: 256,
        sleep_for: Duration::from_micros(500),
        ..FaultConfig::default()
    };
    let scorers: Vec<Arc<ChaosScorer>> = (0..EPOCHS as u64)
        .map(|tag| Arc::new(FaultScorer::new(Tagged { tag }, fault_cfg)))
        .collect();
    let refs: Vec<Retriever<ChaosScorer>> = scorers
        .iter()
        .map(|s| Retriever::from_arc(Arc::clone(s), CATALOG))
        .collect();
    let arm_all = |fault: Fault, on: bool| {
        for s in &scorers {
            s.arm(fault, on);
        }
    };

    let service = Arc::new(RecService::start(
        refs[0].clone(),
        ServiceConfig {
            queue_depth: 256,
            max_batch: 8,
            max_wait: Duration::from_micros(100),
            threads: 2,
            // Generous enough that healthy traffic never trips it; the
            // deadline sub-phase overrides per request.
            default_deadline: Some(Duration::from_secs(5)),
            // The panic storm can fault several incarnations in a row
            // before a healthy batch lands; the budget only needs to
            // outlast the longest such run (healthy progress refills it).
            restart_budget: 10,
            degrade: DegradeConfig {
                high_backlog: 64,
                low_backlog: 4,
                // The latency phase injects ~1ms per request ⇒ EWMA well
                // above this; fault-free traffic is well below it.
                high_latency: Some(Duration::from_micros(300)),
                step_down_after: 2,
                step_up_after: 3,
            },
        },
    ));

    // ---- Phase A: fault-free baseline ------------------------------------
    let baseline = run_load(&service, reqs, None);
    let mut base_lat: Vec<Duration> = Vec::new();
    for (user, outcome, lat) in &baseline {
        let resp = outcome.as_ref().expect("baseline must be fault-free");
        assert!(!resp.degraded, "baseline must serve at full fidelity");
        assert_one_epoch(&refs[..1], *user, resp);
        base_lat.push(*lat);
    }
    let p99_baseline = p99(&mut base_lat);

    // ---- Phase B: panic storm under concurrent hot-swaps -----------------
    arm_all(Fault::Panic, true);
    let stop_publishing = Arc::new(AtomicBool::new(false));
    let publisher = {
        let service = Arc::clone(&service);
        let refs: Vec<_> = refs.to_vec();
        let stop = Arc::clone(&stop_publishing);
        thread::spawn(move || {
            let mut e = 0usize;
            let mut publishes = 0u64;
            // ORDERING: plain stop flag — the thread join synchronizes
            // everything else.
            while !stop.load(Ordering::Relaxed) {
                e = (e + 1) % EPOCHS;
                service.publish(refs[e].clone());
                publishes += 1;
                thread::sleep(Duration::from_millis(3));
            }
            publishes
        })
    };
    let stormed = run_load(&service, reqs, None);
    // ORDERING: stop flag; `join` below synchronizes the hand-off.
    stop_publishing.store(true, Ordering::Relaxed);
    let publishes = publisher.join().unwrap();
    arm_all(Fault::Panic, false);

    let mut ok_in_storm = 0u64;
    let mut internal_in_storm = 0u64;
    for (user, outcome, _) in &stormed {
        match outcome {
            Ok(resp) => {
                ok_in_storm += 1;
                // Verified post-hoc with panics disarmed: scores are pure
                // in (tag, user, item), so the reference ranking equals
                // what the service computed mid-storm.
                assert_one_epoch(&refs, *user, resp);
            }
            // The one fault a panicked batch may surface.
            Err(ServiceError::Internal) => internal_in_storm += 1,
            Err(e) => panic!("panic storm produced unexpected error {e:?}"),
        }
    }
    let s = service.stats();
    assert!(publishes > 0, "publisher never ran");
    assert_eq!(service.snapshot_version(), publishes);
    assert!(ok_in_storm > 0, "storm served nothing");
    assert!(
        s.batch_faults > 0 && internal_in_storm > 0,
        "panic schedule never fired (batch_faults={}, internal={internal_in_storm})",
        s.batch_faults
    );
    assert_eq!(
        s.dispatcher_restarts, s.batch_faults,
        "every batch fault must be followed by a supervisor restart"
    );

    // ---- Phase C: NaN storm ----------------------------------------------
    arm_all(Fault::Nan, true);
    let nan_phase = run_load(&service, reqs, None);
    for (user, outcome, _) in &nan_phase {
        let resp = outcome
            .as_ref()
            .expect("NaN scores rank last — they must never fault a batch");
        // ~10% NaN over a 512-item catalogue cannot crowd real scores out
        // of a top-10: rank_cmp's total order keeps every NaN below every
        // real score.
        assert!(
            resp.ranked.iter().all(|(_, s)| !s.is_nan()),
            "NaN leaked into a top-{K} for user {user}"
        );
        // Purity: the reference FaultScorer shares the seed and the armed
        // NaN flag, so bit-identity must hold through the storm too.
        assert_one_epoch(&refs, *user, resp);
    }
    arm_all(Fault::Nan, false);

    // ---- Phase D: injected latency — degradation + deadline drops --------
    // Publish a two-rung ladder for the current epoch. The rungs are
    // equal-fidelity clones, so bit-identity keeps holding; what we
    // observe is the *controller*: the EWMA latency trigger steps the
    // rung down and the responses get flagged.
    let current = service.snapshot().rung(0).clone();
    service.publish(ServingSnapshot::ladder(vec![current.clone(), current]));
    arm_all(Fault::Latency, true);
    let slow_phase = run_load(&service, reqs.min(200), None);
    let degraded_responses = slow_phase
        .iter()
        .filter(|(_, o, _)| o.as_ref().is_ok_and(|r| r.degraded))
        .count();
    assert!(
        degraded_responses > 0,
        "latency never pushed the ladder off rung 0"
    );
    assert!(service.stats().degraded_served > 0);
    // Tiny budgets under the same injected latency: some requests must
    // expire while queued and be dropped at dequeue, typed.
    let hurried = run_load(&service, reqs.min(200), Some(Duration::from_micros(300)));
    let mut deadline_drops = 0u64;
    for (_, outcome, _) in &hurried {
        match outcome {
            Ok(_) => {}
            Err(ServiceError::DeadlineExceeded) => deadline_drops += 1,
            Err(e) => panic!("deadline phase produced unexpected error {e:?}"),
        }
    }
    assert!(
        deadline_drops > 0,
        "300µs budgets under 2ms injected sleeps must drop at dequeue"
    );
    assert_eq!(service.stats().deadline_dropped, deadline_drops);
    arm_all(Fault::Latency, false);

    // ---- Phase E: corrupt snapshots are rejected, old epoch keeps serving
    let cfg = MarsConfig::mars(2, 8);
    let model = MultiFacetModel::new(cfg.clone(), 16, 64);
    let dir = std::env::temp_dir();
    let path = dir.join(format!("mars-chaos-{}.mdl", std::process::id()));
    io::save(&model, &path).expect("healthy save");
    let healthy = std::fs::read(&path).unwrap();
    // Bit flip mid-payload ⇒ typed corruption, not a bad model.
    let mut flipped = healthy.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x40;
    std::fs::write(&path, &flipped).unwrap();
    match io::load(cfg.clone(), &path) {
        Err(io::SnapshotError::Corrupt(_)) | Err(io::SnapshotError::ShapeMismatch { .. }) => {}
        other => panic!("bit flip must be detected, got {other:?}"),
    }
    // Truncation ⇒ typed truncation.
    std::fs::write(&path, &healthy[..healthy.len() - 7]).unwrap();
    match io::load(cfg, &path) {
        Err(io::SnapshotError::Truncated(_)) | Err(io::SnapshotError::TrailerMismatch { .. }) => {}
        other => panic!("truncation must be detected, got {other:?}"),
    }
    let _ = std::fs::remove_file(&path);
    // Neither failed load touched the service: same version, still serving.
    let version_before = service.snapshot_version();
    let still = service.retrieve(&RecRequest::top_k(1, K)).unwrap();
    assert_eq!(service.snapshot_version(), version_before);
    assert_eq!(still.len(), K);

    // ---- Phase F: recovery to SLO ----------------------------------------
    // Sequential quiet traffic first: lets the EWMA decay and the ladder
    // step back up to full fidelity.
    for _ in 0..40 {
        service.retrieve(&RecRequest::top_k(3, K)).unwrap();
    }
    assert_eq!(
        service.stats().current_rung,
        0,
        "ladder must recover to full fidelity once faults clear"
    );
    let recovered = run_load(&service, reqs, None);
    let mut rec_lat = Vec::new();
    for (user, outcome, lat) in &recovered {
        let resp = outcome.as_ref().expect("recovered service must serve");
        assert!(!resp.degraded, "recovered service must serve full fidelity");
        assert_one_epoch(&refs, *user, resp);
        rec_lat.push(*lat);
    }
    let p99_recovered = p99(&mut rec_lat);
    // 2× the fault-free baseline, with an absolute floor so a very fast
    // baseline doesn't turn scheduler noise into flakes.
    let slo = (p99_baseline * 2).max(Duration::from_millis(10));
    assert!(
        p99_recovered <= slo,
        "p99 after faults {p99_recovered:?} exceeds SLO {slo:?} (baseline {p99_baseline:?})"
    );

    // Global accounting: everything submitted was resolved, nothing shed
    // (blocking retrieve), nothing stopped.
    let s = service.stats();
    assert_eq!(s.backlog, 0, "no caller left queued");
    assert_eq!(s.shed, 0, "blocking submitters never shed");
    let observed = (baseline.len() + stormed.len() + nan_phase.len() + slow_phase.len() + hurried.len()
            + recovered.len()) as u64
            + 1 // phase E probe
            + 40; // phase F warm-up
    assert_eq!(s.submitted, observed, "every submission accounted for");
}
