//! The workloads, composed from the blocks in [`crate::phases`].
//!
//! Every workload reports every end-to-end metric. Each has a main load
//! that takes most of the run (`--seconds`) and stresses its layers; the
//! metrics its main load does not produce come from short fixed probes
//! run after it, so they never overlap the main load.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use atd_graph::GraphDelta;
use atd_serve::Snapshot;

use crate::inputs;
use crate::phases::{self, Ctx, Stage};
use crate::util::Rng;

/// What a workload leaves behind for the gates and the layer replays.
pub struct Outcome {
    pub stage: Stage,
    /// The published deltas, in order, starting from the testbed graph.
    pub chain: Vec<GraphDelta>,
    /// A stopped store holding the checkpointed testbed plus `chain` as
    /// its WAL tail.
    pub tail_dir: PathBuf,
    /// The snapshot whose engine the layer replays query.
    pub snapshot: Arc<Snapshot>,
    /// Fingerprint of the last acknowledged state.
    pub final_fingerprint: u64,
}

pub const WORKLOADS: [&str; 2] = ["query_mix", "restart"];

/// Open-loop rate of `query_mix` phase 1, queries per second: a fixed
/// absolute rate, 20–30% of what the 2-CPU host serves (42–60/s in the
/// closed loop, depending on the other load on the machine). Each
/// query's scan runs on every CPU, so overlapping queries slow each
/// other: at 36/s and at 18/s that overlap amplified the shared host's
/// speed drift, and the latency median moved from run to run by up to
/// 1.5 times as much as a lone query's time did.
pub const QUERY_MIX_RATE: f64 = 12.0;

pub fn run(ctx: &Ctx) -> Outcome {
    match ctx.cfg.workload.as_str() {
        "query_mix" => query_mix(ctx),
        "restart" => restart(ctx),
        other => unreachable!("unknown workload {other}"),
    }
}

fn rng(ctx: &Ctx, stream: u64) -> Rng {
    Rng::new(ctx.cfg.seed.wrapping_mul(0x9e37_79b9).wrapping_add(stream))
}

/// In a traced run, measures what tracing adds to a query, on a fixed
/// batch of three queries per (size, strategy) cell.
fn overhead(ctx: &Ctx, svc: &atd_serve::QueryService, stage: &Stage) {
    if ctx.cfg.trace {
        let batch = stage.mix.sequence(&mut rng(ctx, 6), 27);
        phases::trace_overhead(ctx, svc, &batch);
    }
}

/// Publishes `deltas` one after another, each followed by the γ probe,
/// and returns the last receipt's fingerprint.
fn publish_all(ctx: &Ctx, stage: &Stage, deltas: &[GraphDelta]) -> u64 {
    let probe = stage.mix.gamma_probe();
    for d in deltas {
        phases::publish(ctx, &stage.dsvc, d, &probe);
    }
    ctx.rec().last_receipt()
}

/// Read-only serving: an open loop at a fixed rate, then a closed loop
/// of two callers. Afterwards, outside the main load, a WAL tail is
/// published and the store recovered (publish and first-answer probes).
fn query_mix(ctx: &Ctx) -> Outcome {
    let mut stage = phases::setup(ctx);
    let secs = ctx.cfg.seconds;
    let pinned = [stage.dsvc.current_snapshot()];
    let mut r = rng(ctx, 1);
    let n = (QUERY_MIX_RATE * secs * 0.6).round().max(1.0) as usize;
    let queries = stage.mix.sequence(&mut r, n);
    let schedule = inputs::poisson_schedule(QUERY_MIX_RATE, n);
    phases::open_loop(ctx, stage.dsvc.service(), &queries, &schedule, &pinned);

    let closed = stage.mix.sequence(&mut r, 512);
    let qps = phases::closed_loop(
        ctx,
        stage.dsvc.service(),
        &closed,
        2,
        secs * 0.25,
        &pinned,
        false,
    );
    ctx.rec().capacity_qps.push(qps);
    overhead(ctx, stage.dsvc.service(), &stage);

    let chain = inputs::relax_tail(&stage.tb.graph, &mut rng(ctx, 2), ctx.cfg.tail_records);
    let fp = publish_all(ctx, &stage, &chain);
    phases::shutdown(ctx, &mut stage.dsvc, "query_mix");
    let tail_dir = stage.dir.clone();
    phases::recovery_probe(ctx, &stage, &tail_dir, fp);
    Outcome {
        snapshot: Arc::clone(&pinned[0]),
        stage,
        chain,
        tail_dir,
        final_fingerprint: fp,
    }
}

/// Cold start and recovery to the first answer. The set-up store gets a
/// WAL tail of relaxations (publish probes); then cycles of one cold,
/// three clean (the cheapest and noisiest case) and one tail open run
/// for three quarters of the time. A closed
/// loop of two callers on the last recovered service ends the run and
/// gives the query samples and the capacity.
fn restart(ctx: &Ctx) -> Outcome {
    let mut stage = phases::setup(ctx);
    let chain = inputs::relax_tail(&stage.tb.graph, &mut rng(ctx, 2), ctx.cfg.tail_records);
    let fp = publish_all(ctx, &stage, &chain);
    phases::shutdown(ctx, &mut stage.dsvc, "restart set-up");
    let start = Instant::now();
    let tail_dir = stage.dir.clone();
    let genesis_fp = atd_distance::graph_fingerprint(&stage.tb.graph);

    let budget = Duration::from_secs_f64(ctx.cfg.seconds * 0.75);
    let mut cycles = 0;
    let mut last = None;
    while cycles == 0 || start.elapsed() < budget {
        for case in ["cold", "clean", "clean", "clean", "tail"] {
            let dir = ctx.fresh_dir(case);
            let expect = match case {
                "cold" => genesis_fp,
                "clean" => {
                    crate::util::copy_dir(&stage.clean_copy, &dir).expect("copy store");
                    genesis_fp
                }
                _ => {
                    crate::util::copy_dir(&tail_dir, &dir).expect("copy store");
                    fp
                }
            };
            let Some(dsvc) = phases::first_answer(ctx, case, &dir, &stage.tb, &stage.mix, expect)
            else {
                let _ = std::fs::remove_dir_all(&dir);
                continue;
            };
            if let Some(prev) = last.replace((dsvc, dir)) {
                phases::close_store(ctx, prev, "restart cycle");
            }
        }
        cycles += 1;
    }
    let (dsvc, dir) = last.expect("at least one recovered service");
    let snapshot = dsvc.current_snapshot();
    let closed = stage.mix.sequence(&mut rng(ctx, 5), 512);
    let qps = phases::closed_loop(
        ctx,
        dsvc.service(),
        &closed,
        2,
        ctx.cfg.seconds * 0.2,
        std::slice::from_ref(&snapshot),
        true,
    );
    ctx.rec().capacity_qps.push(qps);
    overhead(ctx, dsvc.service(), &stage);
    phases::close_store(ctx, (dsvc, dir), "restart cycle");
    Outcome {
        snapshot,
        stage,
        chain,
        tail_dir,
        final_fingerprint: fp,
    }
}
