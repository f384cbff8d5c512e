//! In-process load generation against a live [`RecService`]: a closed loop
//! (each client sends its next request when the previous one returned) and
//! an open loop (requests are due on a seeded schedule whatever the service
//! does). Clients are plain blocking threads, at most one per core, and
//! wait by sleeping only.

use crate::harness::{wait_until, Reps};
use crate::spec::{CLOSED_REQUESTS_PER_CLIENT, PUBLISH_EVERY, SPOT_CHECK_EVERY};
use crate::trace::{SpanId, SpanLog};
use mars_core::MultiFacetModel;
use mars_serve::{RecRequest, RecResponse, RecService, Retriever, ServiceError, ServingSnapshot};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::thread;
use std::time::{Duration, Instant};

pub type Service = RecService<MultiFacetModel>;
pub type Snapshot = ServingSnapshot<MultiFacetModel>;

/// What one client thread saw.
#[derive(Default)]
pub struct ClientTally {
    pub attempted: u64,
    /// Requests not answered `Ok` (refusals of a guarded service included).
    pub not_ok: u64,
    /// Every [`SPOT_CHECK_EVERY`]-th answer with its request-pool index,
    /// verified outside the timed window.
    pub kept: Vec<(usize, RecResponse)>,
}

impl ClientTally {
    pub fn merge(&mut self, other: ClientTally) {
        self.attempted += other.attempted;
        self.not_ok += other.not_ok;
        self.kept.extend(other.kept);
    }
}

/// How a client submits: blocking, or shedding (`try_retrieve`).
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Submit {
    Blocking,
    Shedding,
}

/// One client thread of a load loop.
struct Client<'a> {
    service: &'a Service,
    requests: &'a [RecRequest],
    /// `Some`: this client republishes the (content-identical) snapshot
    /// before every [`PUBLISH_EVERY`]-th of its requests.
    churn: Option<&'a Snapshot>,
    submit: Submit,
    sent: usize,
    tally: ClientTally,
    log: SpanLog,
}

impl Client<'_> {
    /// Sends pool request `index` and returns when its answer arrived.
    fn send(&mut self, index: usize, parent: SpanId) -> Result<(), ServiceError> {
        if let Some(snapshot) = self.churn {
            if self.sent.is_multiple_of(PUBLISH_EVERY) {
                let id = self.log.open("serve.service.publish", parent, index as u64);
                self.service.publish(snapshot.clone());
                self.log.close(id);
            }
        }
        self.sent += 1;
        let req = &self.requests[index % self.requests.len()];
        let id = self
            .log
            .open("serve.service.retrieve", parent, index as u64);
        let outcome = match self.submit {
            Submit::Blocking => self.service.retrieve(req),
            Submit::Shedding => self.service.try_retrieve(req),
        };
        self.log.close(id);
        self.tally.attempted += 1;
        match outcome {
            Ok(resp) => {
                if index.is_multiple_of(SPOT_CHECK_EVERY) {
                    self.tally.kept.push((index % self.requests.len(), resp));
                }
                Ok(())
            }
            Err(e) => {
                self.tally.not_ok += 1;
                Err(e)
            }
        }
    }
}

/// Who sends what to whom: the parts every load loop shares.
#[derive(Clone, Copy)]
pub struct Load<'a> {
    pub service: &'a Service,
    /// The request pool the loops cycle through by index.
    pub requests: &'a [RecRequest],
    /// Client threads (at most one per core).
    pub clients: usize,
    /// `Some`: client 0 republishes this (content-identical) snapshot
    /// before every [`PUBLISH_EVERY`]-th of its requests.
    pub churn: Option<&'a Snapshot>,
}

impl<'a> Load<'a> {
    fn client(&self, c: usize, submit: Submit, sent: usize, log: SpanLog) -> Client<'a> {
        Client {
            service: self.service,
            requests: self.requests,
            churn: self.churn.filter(|_| c == 0),
            submit,
            sent,
            tally: ClientTally::default(),
            log,
        }
    }
}

/// A closed loop's progress across the rounds of a run.
#[derive(Default)]
pub struct ClosedProgress {
    /// Requests per second of each counted repetition.
    pub reps: Reps,
    /// Seconds spent, warm-up included.
    pub used: f64,
    /// Repetitions started so far (the first one ever is the warm-up).
    started: usize,
    pub tally: ClientTally,
}

/// Closed loop: `clients` threads each send [`CLOSED_REQUESTS_PER_CLIENT`]
/// requests back to back per repetition; repetitions run until `budget`
/// has elapsed and `progress` holds at least `min_reps` counted ones. The
/// first repetition of a run is a warm-up and is not counted. With an
/// enabled `log` every other repetition records one span per request, so
/// the traced run measures the loop both ways.
pub fn closed_loop(
    load: Load<'_>,
    budget: Duration,
    min_reps: usize,
    progress: &mut ClosedProgress,
    log: &mut SpanLog,
    parent: SpanId,
) {
    let clients = load.clients;
    let per_rep = CLOSED_REQUESTS_PER_CLIENT;
    let gate = Barrier::new(clients + 1);
    let stop = AtomicBool::new(false);
    let record = AtomicBool::new(false);
    let rep_span = AtomicU64::new(0);
    let traced = log.enabled();
    let first_rep = progress.started;
    let mut client_logs = Vec::new();
    let start = Instant::now();

    thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (gate, stop, record, rep_span) = (&gate, &stop, &record, &rep_span);
                let mut client = load.client(c, Submit::Blocking, first_rep * per_rep, log.fork());
                scope.spawn(move || {
                    let mut rep = first_rep;
                    loop {
                        gate.wait();
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        client.log.set_enabled(record.load(Ordering::SeqCst));
                        let parent = rep_span.load(Ordering::SeqCst);
                        for j in 0..per_rep {
                            let index = (rep * per_rep + j) * clients + c;
                            // A blocking submit fails only if the service
                            // died; the tally records it and the run fails.
                            let _ = client.send(index, parent);
                        }
                        gate.wait();
                        rep += 1;
                    }
                    (client.tally, client.log)
                })
            })
            .collect();

        loop {
            let rep = progress.started;
            let done = rep > 0 && progress.reps.len() >= min_reps && start.elapsed() >= budget;
            stop.store(done, Ordering::SeqCst);
            let record_rep = traced && !done && rep % 2 == 1;
            record.store(record_rep, Ordering::SeqCst);
            log.set_enabled(record_rep);
            let id = log.open("marsbench.closed.rep", parent, rep as u64);
            rep_span.store(id, Ordering::SeqCst);
            gate.wait();
            if done {
                break;
            }
            let t = Instant::now();
            gate.wait();
            let secs = t.elapsed().as_secs_f64();
            log.close(id);
            if rep > 0 {
                progress
                    .reps
                    .push((per_rep * clients) as f64 / secs, record_rep);
            }
            progress.started += 1;
        }
        log.set_enabled(traced);
        for h in handles {
            let (t, l) = h.join().expect("closed-loop client panicked");
            progress.tally.merge(t);
            client_logs.push(l);
        }
    });
    for l in client_logs {
        log.absorb(l);
    }
    progress.used += start.elapsed().as_secs_f64();
}

pub struct OpenOutcome {
    /// Latency from scheduled arrival to answer, in ms (answered requests).
    pub latency_ms: Vec<f64>,
    /// How late the generator itself sent each request, in µs.
    pub late_us: Vec<f64>,
    pub tally: ClientTally,
}

/// Open loop over one window of the arrival schedule: request `first + i`
/// is due `window[i] - origin` after the start; `clients` threads take the
/// arrivals round-robin and sleep until each is due. Latency runs from the
/// **scheduled** arrival, so the wait a stall imposes on later requests is
/// counted.
pub fn open_loop(
    load: Load<'_>,
    window: &[Duration],
    origin: Duration,
    first: usize,
    submit: Submit,
    log: &mut SpanLog,
    parent: SpanId,
) -> OpenOutcome {
    let clients = load.clients;
    let start = Instant::now() + Duration::from_millis(5);
    let mut per_client = Vec::new();
    thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let mut client = load.client(c, submit, first / clients, log.fork());
                scope.spawn(move || {
                    let mut latency = Vec::with_capacity(window.len() / clients + 1);
                    let mut late = Vec::with_capacity(window.len() / clients + 1);
                    for i in (c..window.len()).step_by(clients) {
                        let due = start + window[i].saturating_sub(origin);
                        late.push(wait_until(due).as_secs_f64() * 1e6);
                        if client.send(first + i, parent).is_ok() {
                            latency.push(due.elapsed().as_secs_f64() * 1e3);
                        }
                    }
                    (latency, late, client.tally, client.log)
                })
            })
            .collect();
        for h in handles {
            per_client.push(h.join().expect("open-loop client panicked"));
        }
    });
    let mut out = OpenOutcome {
        latency_ms: Vec::new(),
        late_us: Vec::new(),
        tally: ClientTally::default(),
    };
    for (latency, late, tally, client_log) in per_client {
        out.latency_ms.extend(latency);
        out.late_us.extend(late);
        out.tally.merge(tally);
        log.absorb(client_log);
    }
    out
}

/// Same user, same items in the same order, same score bits, same
/// `degraded` flag.
pub fn same_bits(a: &RecResponse, b: &RecResponse) -> bool {
    a.user == b.user
        && a.degraded == b.degraded
        && a.ranked.len() == b.ranked.len()
        && a.ranked
            .iter()
            .zip(&b.ranked)
            .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}

/// Compares every kept service answer bit-for-bit with a direct
/// `Retriever::retrieve` on the served retriever; returns how many differ.
/// `tamper` corrupts the first expected answer — the smoke test's proof
/// that a wrong answer fails the run.
pub fn mismatches(
    kept: &[(usize, RecResponse)],
    requests: &[RecRequest],
    reference: &Retriever<MultiFacetModel>,
    tamper: bool,
) -> u64 {
    let mut bad = 0;
    for (n, (index, got)) in kept.iter().enumerate() {
        let mut expected = reference.retrieve(&requests[*index].as_query());
        if tamper && n == 0 {
            match expected.ranked.first_mut() {
                Some(first) => first.1 = f32::from_bits(first.1.to_bits() ^ 1),
                None => expected.ranked.push((0, 0.0)),
            }
        }
        bad += u64::from(!same_bits(got, &expected));
    }
    bad
}
