//! Correctness gates, run after the measurement in every run. A failed
//! gate counts its operation as failed.

use std::collections::HashMap;

use atd_core::{Discovery, DiscoveryOptions, ScoredTeam};
use atd_distance::graph_fingerprint;
use atd_graph::ExpertGraph;
use atd_store::{Journal, JournalConfig};

use crate::inputs::TOP_K;
use crate::phases::{graph_after, same_teams, Ctx};
use crate::workloads::Outcome;

/// Most sampled replies re-checked per run.
const MAX_CHECKS: usize = 40;

pub fn run(ctx: &Ctx, out: &Outcome) {
    sampled_replies(ctx);
    recovered_states(ctx, out);
}

/// Sampled full-fidelity replies must be bit-identical to
/// `Discovery::top_k` on the snapshot that answered them.
fn sampled_replies(ctx: &Ctx) {
    let checks = std::mem::take(&mut ctx.rec().checks);
    let stride = checks.len().div_ceil(MAX_CHECKS).max(1);
    let mut failures = Vec::new();
    let mut checked = 0u64;
    for c in checks.iter().step_by(stride) {
        checked += 1;
        match c
            .snapshot
            .engine()
            .top_k(&c.query.project, c.query.strategy, TOP_K)
        {
            Ok(direct) if same_teams(&direct, &c.teams) => {}
            Ok(_) => failures.push(format!(
                "served reply differs from direct top_k on snapshot {}",
                c.snapshot.version()
            )),
            Err(e) => failures.push(format!("direct top_k failed: {e}")),
        }
    }
    let mut rec = ctx.rec();
    rec.attempted += checked;
    for f in failures {
        rec.fail(f);
    }
    // Keep final-state samples for the from-scratch gate.
    rec.checks = checks;
}

/// The journal's graph must carry the last receipt's fingerprint; the
/// replies served on the final state and every first answer must equal
/// a from-scratch engine on the same graph.
fn recovered_states(ctx: &Ctx, out: &Outcome) {
    let tb = &out.stage.tb;
    let journal_graph = match Journal::open(&out.tail_dir, JournalConfig::default(), || {
        unreachable!("the store exists")
    }) {
        Ok((journal, _)) => journal.graph().clone(),
        Err(e) => {
            ctx.rec().fail(format!("journal reopen: {e}"));
            return;
        }
    };
    let final_fp = graph_fingerprint(&journal_graph);
    {
        let mut rec = ctx.rec();
        rec.attempted += 1;
        if final_fp != out.final_fingerprint {
            rec.fail(format!(
                "journal fingerprint {final_fp:x} != last receipt {:x}",
                out.final_fingerprint
            ));
        }
        if graph_fingerprint(&graph_after(&tb.graph, &out.chain)) != final_fp {
            rec.fail("journal graph differs from the published sequence".into());
        }
    }

    let mut graphs: HashMap<u64, ExpertGraph> = HashMap::new();
    graphs.insert(graph_fingerprint(&tb.graph), tb.graph.clone());
    graphs.insert(final_fp, journal_graph);
    let first_query = out.stage.mix.first_answer();
    let answers: Vec<(u64, &'static str, Vec<ScoredTeam>)> = ctx
        .rec()
        .first_answers
        .iter()
        .map(|a| (a.fingerprint, a.case, a.teams.clone()))
        .collect();
    let final_checks: Vec<_> = ctx
        .rec()
        .checks
        .iter()
        .filter(|c| graph_fingerprint(c.snapshot.engine().graph()) == final_fp)
        .take(MAX_CHECKS / 2)
        .map(|c| (c.query.clone(), c.teams.clone()))
        .collect();

    // One from-scratch engine per distinct state the gates compare with.
    let mut needed: Vec<u64> = answers.iter().map(|a| a.0).collect();
    if !final_checks.is_empty() {
        needed.push(final_fp);
    }
    needed.sort_unstable();
    needed.dedup();
    let mut failures = Vec::new();
    let mut engines: HashMap<u64, Discovery> = HashMap::new();
    for fp in needed {
        let Some(g) = graphs.get(&fp) else {
            failures.push(format!("no published state has fingerprint {fp:x}"));
            continue;
        };
        let skills = tb.skills.padded_to(g.num_nodes());
        match Discovery::with_options(g.clone(), skills, DiscoveryOptions::default()) {
            Ok(e) => {
                engines.insert(fp, e);
            }
            Err(e) => failures.push(format!("from-scratch engine: {e}")),
        }
    }

    let mut reference: HashMap<u64, Vec<ScoredTeam>> = HashMap::new();
    for (fp, case, teams) in &answers {
        let Some(engine) = engines.get(fp) else {
            continue;
        };
        let want = reference.entry(*fp).or_insert_with(|| {
            engine
                .top_k(&first_query.project, first_query.strategy, TOP_K)
                .unwrap_or_default()
        });
        if !same_teams(want, teams) {
            failures.push(format!("{case}: first answer differs from a rebuild"));
        }
    }
    if let Some(scratch) = engines.get(&final_fp) {
        for (q, teams) in &final_checks {
            match scratch.top_k(&q.project, q.strategy, TOP_K) {
                Ok(t) if same_teams(&t, teams) => {}
                Ok(_) => {
                    failures.push("final-state reply differs from a from-scratch engine".into())
                }
                Err(e) => failures.push(format!("from-scratch top_k: {e}")),
            }
        }
    }
    let mut rec = ctx.rec();
    rec.attempted += final_checks.len() as u64;
    rec.checks.clear();
    for f in failures {
        rec.fail(f);
    }
}
