//! The measurement building blocks every workload is composed of: set-up,
//! open- and closed-loop query load, durable publishes with a visibility
//! probe, and cold start to first answer. Each block records its samples
//! into a [`Record`] and brackets its calls into `atd-serve` with spans.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use atd_core::ScoredTeam;
use atd_graph::{ExpertGraph, GraphDelta};
use atd_serve::{
    AppendReceipt, DurableConfig, DurableService, QueryService, RecoveryReport, Request,
    ServeResponse, Snapshot,
};

use crate::inputs::{Query, QueryMix, Testbed, GAMMA, TOP_K};
use crate::trace::Tracer;
use crate::util::{ms, Rng};

/// Run-wide settings.
#[derive(Clone, Debug)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Synthetic corpus size (3000 for the benchmark, less for smoke runs).
    pub authors: usize,
    /// Records in the restart WAL tail and in the lifecycle probe.
    pub tail_records: usize,
    /// Directory for stores, index files, traces and reports.
    pub out: PathBuf,
}

/// One served reply kept for the bit-identity gate, with the snapshot
/// that answered it.
pub struct Check {
    pub snapshot: Arc<Snapshot>,
    pub query: Query,
    pub teams: Vec<ScoredTeam>,
}

/// A first answer, kept for the recovery gates.
pub struct FirstAnswer {
    pub case: &'static str,
    pub fingerprint: u64,
    pub teams: Vec<ScoredTeam>,
}

/// One acknowledged publish.
#[derive(Clone, Debug)]
pub struct PublishSample {
    pub ack_ms: f64,
    pub visible_ms: f64,
    pub incremental: bool,
    pub receipt: AppendReceipt,
}

/// Everything a run measured or checked.
#[derive(Default)]
pub struct Record {
    pub attempted: u64,
    pub failed: u64,
    pub gate_failures: Vec<String>,
    pub setup_s: Vec<f64>,
    /// Client latency of the workload's timed queries.
    pub query_ms: Vec<f64>,
    /// `ServeResponse::latency` of the same queries.
    pub engine_ms: Vec<f64>,
    pub capacity_qps: Vec<f64>,
    pub publishes: Vec<PublishSample>,
    pub first_cold_ms: Vec<f64>,
    pub first_clean_ms: Vec<f64>,
    pub first_tail_ms: Vec<f64>,
    pub replayed_records: Vec<f64>,
    pub generator_lag_ms: Vec<f64>,
    /// Client latency of the tracing-overhead batches, traced and not,
    /// in the same query order on both sides (NaN for a failed query).
    pub overhead_traced_ms: Vec<f64>,
    pub overhead_untraced_ms: Vec<f64>,
    pub checks: Vec<Check>,
    pub first_answers: Vec<FirstAnswer>,
}

impl Record {
    /// Fingerprint of the last acknowledged publish: what every later
    /// recovery must reproduce.
    pub fn last_receipt(&self) -> u64 {
        self.publishes
            .last()
            .map_or(0, |p| p.receipt.graph_fingerprint)
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.gate_failures.len() < 20 {
            self.gate_failures.push(why);
        }
    }
}

/// Shared state of one run.
pub struct Ctx {
    pub cfg: Config,
    pub tracer: Tracer,
    pub rec: Mutex<Record>,
    work: PathBuf,
    dirs: AtomicUsize,
    requests: AtomicUsize,
}

impl Ctx {
    pub fn new(cfg: Config) -> Ctx {
        let work = cfg.out.join(format!("work-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&work);
        std::fs::create_dir_all(&work).expect("work directory");
        Ctx {
            tracer: Tracer::new(cfg.trace),
            cfg,
            rec: Mutex::new(Record::default()),
            work,
            dirs: AtomicUsize::new(0),
            requests: AtomicUsize::new(0),
        }
    }

    /// A path for a new store directory (not created).
    pub fn fresh_dir(&self, tag: &str) -> PathBuf {
        let i = self.dirs.fetch_add(1, Ordering::Relaxed);
        self.work.join(format!("{tag}-{i}"))
    }

    pub fn work(&self) -> &Path {
        &self.work
    }

    pub fn request_id(&self) -> u64 {
        self.requests.fetch_add(1, Ordering::Relaxed) as u64
    }

    pub fn rec(&self) -> std::sync::MutexGuard<'_, Record> {
        self.rec.lock().unwrap()
    }

    pub fn cleanup(&self) {
        let _ = std::fs::remove_dir_all(&self.work);
    }
}

pub fn request(q: &Query) -> Request {
    Request::new(q.project.clone(), q.strategy, TOP_K)
}

/// Bit-identical answers: same members, same objective and cost bits.
pub fn same_teams(a: &[ScoredTeam], b: &[ScoredTeam]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.team.member_key() == y.team.member_key()
                && x.objective.to_bits() == y.objective.to_bits()
                && x.algorithm_cost.to_bits() == y.algorithm_cost.to_bits()
        })
}

/// Checks a reply and returns whether it is a full-fidelity answer.
fn accept(
    rec: &mut Record,
    what: &str,
    reply: &Result<ServeResponse, atd_serve::ServeError>,
) -> bool {
    match reply {
        Ok(r) if r.degraded.is_none() && !r.teams.is_empty() => true,
        Ok(_) => {
            rec.fail(format!("{what}: degraded or empty reply"));
            false
        }
        Err(e) => {
            rec.fail(format!("{what}: {e}"));
            false
        }
    }
}

/// What a set-up leaves for the workload.
pub struct Stage {
    pub tb: Testbed,
    pub mix: QueryMix,
    pub dir: PathBuf,
    pub dsvc: DurableService,
    /// Copy of the store right after the set-up checkpoint (empty tail).
    pub clean_copy: PathBuf,
}

/// Builds the testbed, opens a durable service on a fresh store (the
/// genesis open builds the index: one cold first answer), checkpoints it
/// with a persisted index, builds the γ index and warms every worker.
/// Repeated three times; `setup_s` is the median.
pub fn setup(ctx: &Ctx) -> Stage {
    let mut stage = None;
    for _ in 0..3 {
        if let Some(old) = stage.take() {
            retire(ctx, old);
        }
        let t0 = Instant::now();
        let tb = Testbed::new(ctx.cfg.authors);
        let mix = QueryMix::new(&tb.skills);
        let dir = ctx.fresh_dir("store");
        let expect = atd_distance::graph_fingerprint(&tb.graph);
        let dsvc = first_answer(ctx, "cold", &dir, &tb, &mix, expect).expect("genesis open");
        dsvc.checkpoint().expect("set-up checkpoint");
        let clean_copy = ctx.fresh_dir("clean");
        crate::util::copy_dir(&dir, &clean_copy).expect("copy store");
        dsvc.current_snapshot()
            .engine()
            .prepare_gamma(GAMMA)
            .expect("γ index");
        let warm = mix.sequence(&mut Rng::new(ctx.cfg.seed ^ 0x5eed), 6);
        for q in &warm {
            let reply = dsvc.query(request(q));
            accept(&mut ctx.rec(), "warm-up", &reply);
            ctx.rec().attempted += 1;
        }
        ctx.rec().setup_s.push(t0.elapsed().as_secs_f64());
        stage = Some(Stage {
            tb,
            mix,
            dir,
            dsvc,
            clean_copy,
        });
    }
    stage.expect("three set-ups")
}

/// Shuts a stage's service down and removes its directories.
pub fn retire(ctx: &Ctx, mut stage: Stage) {
    shutdown(ctx, &mut stage.dsvc, "set-up");
    let _ = std::fs::remove_dir_all(&stage.dir);
    let _ = std::fs::remove_dir_all(&stage.clean_copy);
}

/// Stops a service and checks its outcome ledger at quiescence.
pub fn shutdown(ctx: &Ctx, dsvc: &mut DurableService, what: &str) {
    dsvc.shutdown();
    let stats = dsvc.service().stats();
    if !stats.reconciles() {
        ctx.rec().fail(format!(
            "{what}: ServeStats ledger does not reconcile: {stats}"
        ));
    }
}

/// Opens the store at `dir` (a genesis open when the directory is empty)
/// and sends the fixed CC query: the time to first answer. The recovered
/// fingerprint must equal `expect`, and the answer is kept for the
/// rebuild gate.
pub fn first_answer(
    ctx: &Ctx,
    case: &'static str,
    dir: &Path,
    tb: &Testbed,
    mix: &QueryMix,
    expect: u64,
) -> Option<DurableService> {
    let tr = &ctx.tracer;
    let req = ctx.request_id();
    let parent = tr.id();
    let t0 = Instant::now();
    let (opened, _) = tr.time("serve.open", parent, req, || {
        // The service as it ships: default journal (fsync on), two
        // workers, default engine options, no auto-checkpoint.
        DurableService::open(dir, tb.skills.clone(), DurableConfig::default(), || {
            tb.graph.clone()
        })
    });
    let q = mix.first_answer();
    let (dsvc, report): (DurableService, RecoveryReport) = match opened {
        Ok(x) => x,
        Err(e) => {
            let mut rec = ctx.rec();
            rec.attempted += 1;
            rec.fail(format!("{case} open: {e}"));
            return None;
        }
    };
    let (reply, _) = tr.time("serve.query", parent, req, || dsvc.query(request(&q)));
    let total = t0.elapsed();
    tr.record(parent, "restart.first_answer", 0, req, t0, t0 + total);
    let mut rec_guard = ctx.rec();
    rec_guard.attempted += 1;
    if !accept(&mut rec_guard, case, &reply) {
        return Some(dsvc);
    }
    let fp = dsvc.graph_fingerprint();
    if fp != expect {
        rec_guard.fail(format!(
            "{case}: recovered fingerprint {fp:x} != last receipt {expect:x}"
        ));
    }
    match case {
        "cold" => rec_guard.first_cold_ms.push(ms(total)),
        "clean" => rec_guard.first_clean_ms.push(ms(total)),
        _ => rec_guard.first_tail_ms.push(ms(total)),
    }
    if case == "tail" {
        rec_guard
            .replayed_records
            .push(report.replayed_records as f64);
    }
    rec_guard.first_answers.push(FirstAnswer {
        case,
        fingerprint: fp,
        teams: reply.map(|r| r.teams).unwrap_or_default(),
    });
    Some(dsvc)
}

/// Publishes one mutation and, after the ack, sends the γ probe: the
/// probe's reply on the new snapshot version is the moment the mutation
/// became visible to a caller.
pub fn publish(ctx: &Ctx, dsvc: &DurableService, delta: &GraphDelta, probe: &Query) -> bool {
    let tr = &ctx.tracer;
    let req = ctx.request_id();
    let parent = tr.id();
    let before = dsvc.service().stats();
    let t0 = Instant::now();
    let (acked, ack_ms) = tr.time("serve.publish", parent, req, || {
        dsvc.publish_mutation(delta)
    });
    let version = dsvc.service().current_version();
    let receipt = match acked {
        Ok(r) => r,
        Err(e) => {
            let mut rec = ctx.rec();
            rec.attempted += 1;
            rec.fail(format!("publish: {e}"));
            return false;
        }
    };
    let (reply, _) = tr.time("serve.gamma_probe", parent, req, || {
        dsvc.query(request(probe))
    });
    let visible = t0.elapsed();
    tr.record(parent, "serve.visible", 0, req, t0, t0 + visible);
    let after = dsvc.service().stats();
    let mut rec = ctx.rec();
    rec.attempted += 2;
    if !accept(&mut rec, "γ probe", &reply) {
        return false;
    }
    let seen = reply.as_ref().map(|r| r.snapshot_version).unwrap_or(0);
    if seen < version {
        rec.fail(format!(
            "γ probe answered from version {seen}, published {version}"
        ));
        return false;
    }
    rec.publishes.push(PublishSample {
        ack_ms,
        visible_ms: ms(visible),
        incremental: after.incremental_applied > before.incremental_applied,
        receipt,
    });
    true
}

/// Keeps every `stride`-th full-fidelity reply answered by one of the
/// pinned snapshots, for the bit-identity gate.
struct Sampler<'a> {
    pinned: &'a [Arc<Snapshot>],
    stride: usize,
    seen: usize,
}

impl Sampler<'_> {
    fn offer(&mut self, rec: &mut Record, q: &Query, r: &ServeResponse) {
        let Some(snap) = self
            .pinned
            .iter()
            .find(|s| s.version() == r.snapshot_version)
        else {
            return;
        };
        self.seen += 1;
        if self.seen % self.stride == 1 || self.stride == 1 {
            rec.checks.push(Check {
                snapshot: Arc::clone(snap),
                query: q.clone(),
                teams: r.teams.clone(),
            });
        }
    }
}

/// Open-loop load from one thread: request `i` is due at `schedule[i]`
/// after the start and is timed from its due time, so a stall delays
/// every later request's clock too. Replies are polled, not awaited in
/// order, so a slow request does not hold back the timing of others.
pub fn open_loop(
    ctx: &Ctx,
    svc: &QueryService,
    queries: &[Query],
    schedule: &[Duration],
    pinned: &[Arc<Snapshot>],
) {
    struct Pending {
        i: usize,
        req: u64,
        due: Instant,
        sent: Instant,
        handle: atd_serve::ResponseHandle,
    }
    let start = Instant::now();
    let mut pending: Vec<Pending> = Vec::new();
    let mut next = 0;
    let mut sampler = Sampler {
        pinned,
        stride: 7,
        seen: 0,
    };
    while next < queries.len() || !pending.is_empty() {
        if next < queries.len() && Instant::now() >= start + schedule[next] {
            let due = start + schedule[next];
            let sent = Instant::now();
            let req = ctx.request_id();
            let mut rec = ctx.rec();
            rec.attempted += 1;
            rec.generator_lag_ms.push(ms(sent - due));
            match svc.submit(request(&queries[next])) {
                Ok(handle) => pending.push(Pending {
                    i: next,
                    req,
                    due,
                    sent,
                    handle,
                }),
                Err(e) => rec.fail(format!("open-loop submit: {e}")),
            }
            next += 1;
            continue;
        }
        let mut k = 0;
        while k < pending.len() {
            let Some(reply) = pending[k].handle.try_wait() else {
                k += 1;
                continue;
            };
            let done = Instant::now();
            let p = pending.swap_remove(k);
            let mut rec = ctx.rec();
            if !accept(&mut rec, "open-loop query", &reply) {
                continue;
            }
            let r = reply.expect("accepted");
            sample(ctx, &mut rec, p.req, p.due, p.sent, done, &r);
            sampler.offer(&mut rec, &queries[p.i], &r);
        }
        let idle = if next < queries.len() {
            (start + schedule[next]).saturating_duration_since(Instant::now())
        } else {
            Duration::from_micros(200)
        };
        std::thread::sleep(idle.min(Duration::from_micros(200)));
    }
}

/// Closed-loop load: `callers` threads each send their next query as
/// soon as the previous one is answered, for `secs` seconds. Returns
/// the completed queries per second; with `timed`, each query's latency
/// from its call is also a query sample.
pub fn closed_loop(
    ctx: &Ctx,
    svc: &QueryService,
    queries: &[Query],
    callers: usize,
    secs: f64,
    pinned: &[Arc<Snapshot>],
    timed: bool,
) -> f64 {
    let start = Instant::now();
    let stop = start + Duration::from_secs_f64(secs);
    let done: usize = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..callers)
            .map(|c| {
                scope.spawn(move || {
                    let mut sampler = Sampler {
                        pinned,
                        stride: 5,
                        seen: 0,
                    };
                    let mut completed = 0;
                    let mut i = c;
                    let mut due = Instant::now();
                    while Instant::now() < stop {
                        let q = &queries[i % queries.len()];
                        let req = ctx.request_id();
                        let sent = Instant::now();
                        let reply = svc.query(request(q));
                        let done = Instant::now();
                        let mut rec = ctx.rec();
                        // A closed-loop caller is due again the moment
                        // its previous reply arrives.
                        rec.generator_lag_ms.push(ms(sent - due));
                        due = done;
                        rec.attempted += 1;
                        if accept(&mut rec, "closed-loop query", &reply) {
                            completed += 1;
                            let r = reply.as_ref().expect("accepted");
                            if timed {
                                sample(ctx, &mut rec, req, sent, sent, done, r);
                            }
                            sampler.offer(&mut rec, q, r);
                        }
                        i += callers;
                    }
                    completed
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("caller")).sum()
    });
    done as f64 / start.elapsed().as_secs_f64()
}

/// Records one timed query: client latency from `from` (its due time in
/// an open loop, its call otherwise) to `done`, and the engine time the
/// service reports. A traced run also records the request's spans:
/// request, queue wait and engine.
fn sample(
    ctx: &Ctx,
    rec: &mut Record,
    req: u64,
    from: Instant,
    sent: Instant,
    done: Instant,
    r: &ServeResponse,
) {
    trace_request(ctx, req, from, sent, done, r);
    rec.query_ms.push(ms(done - from));
    rec.engine_ms.push(ms(r.latency));
}

/// A traced run's spans of one served request: request, queue wait and
/// engine.
fn trace_request(
    ctx: &Ctx,
    req: u64,
    from: Instant,
    sent: Instant,
    done: Instant,
    r: &ServeResponse,
) {
    let tr = &ctx.tracer;
    if tr.on() {
        let engine_start = done.checked_sub(r.latency).unwrap_or(sent).max(sent);
        let id = tr.record(0, "serve.request", 0, req, from, done);
        tr.record(0, "serve.queue_wait", id, req, from, engine_start);
        tr.record(0, "serve.engine", id, req, engine_start, done);
    }
}

/// Rounds of the tracing-overhead measurement; each runs the batch
/// once traced and once untraced, the order alternating by round.
const OVERHEAD_ROUNDS: usize = 6;

/// Tracing overhead, measured in a traced run: the same batch of
/// queries from two closed-loop callers, alternately with the tracer
/// recording each request's spans (as the workload's timed queries do)
/// and with it off. The client latencies of both sides are recorded in
/// batch order, so each traced query pairs with its untraced run in the
/// same round; nothing here is a query sample of the workload.
pub fn trace_overhead(ctx: &Ctx, svc: &QueryService, batch: &[Query]) {
    for round in 0..OVERHEAD_ROUNDS {
        let order = if round % 2 == 0 {
            [true, false]
        } else {
            [false, true]
        };
        for traced in order {
            ctx.tracer.set_on(traced);
            let latencies: Vec<f64> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..2)
                    .map(|c| {
                        scope.spawn(move || {
                            let mut out = Vec::new();
                            for q in batch.iter().skip(c).step_by(2) {
                                let req = ctx.request_id();
                                let sent = Instant::now();
                                let reply = svc.query(request(q));
                                let done = Instant::now();
                                let mut rec = ctx.rec();
                                rec.attempted += 1;
                                if accept(&mut rec, "overhead query", &reply) {
                                    let r = reply.as_ref().expect("accepted");
                                    trace_request(ctx, req, sent, sent, done, r);
                                    out.push(ms(done - sent));
                                } else {
                                    out.push(f64::NAN);
                                }
                            }
                            out
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("caller"))
                    .collect()
            });
            let mut rec = ctx.rec();
            let side = if traced {
                &mut rec.overhead_traced_ms
            } else {
                &mut rec.overhead_untraced_ms
            };
            side.extend(latencies);
        }
    }
    ctx.tracer.set_on(true);
}

/// The graph after applying `deltas` to `base`.
pub fn graph_after(base: &ExpertGraph, deltas: &[GraphDelta]) -> ExpertGraph {
    deltas.iter().fold(base.clone(), |g, d| {
        g.apply_delta(d).expect("published delta applies")
    })
}

/// Restart probe shared by the workloads that do not restart as their
/// main load: the store at `dir` (holding a WAL tail, service stopped)
/// is recovered `TAIL_REPS` times from fresh copies (tail cases); the
/// last recovery is checkpointed and that store recovered `CLEAN_REPS`
/// times (clean cases).
pub fn recovery_probe(ctx: &Ctx, stage: &Stage, dir: &Path, expect: u64) {
    const TAIL_REPS: usize = 3;
    const CLEAN_REPS: usize = 9;
    for r in 0..TAIL_REPS {
        let copy = ctx.fresh_dir("tail");
        crate::util::copy_dir(dir, &copy).expect("copy store");
        let Some(mut dsvc) = first_answer(ctx, "tail", &copy, &stage.tb, &stage.mix, expect) else {
            let _ = std::fs::remove_dir_all(&copy);
            continue;
        };
        if r + 1 < TAIL_REPS {
            close_store(ctx, (dsvc, copy), "tail recovery");
            continue;
        }
        if let Err(e) = dsvc.checkpoint() {
            ctx.rec().fail(format!("checkpoint after recovery: {e}"));
        }
        shutdown(ctx, &mut dsvc, "tail recovery");
        drop(dsvc);
        for _ in 0..CLEAN_REPS {
            let clean = ctx.fresh_dir("clean");
            crate::util::copy_dir(&copy, &clean).expect("copy store");
            if let Some(d) = first_answer(ctx, "clean", &clean, &stage.tb, &stage.mix, expect) {
                close_store(ctx, (d, clean), "clean recovery");
            }
        }
        let _ = std::fs::remove_dir_all(&copy);
    }
}

/// Stops a recovered service and removes its directory.
pub fn close_store(ctx: &Ctx, (mut dsvc, dir): (DurableService, PathBuf), what: &str) {
    shutdown(ctx, &mut dsvc, what);
    drop(dsvc);
    let _ = std::fs::remove_dir_all(dir);
}
