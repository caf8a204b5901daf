//! Per-layer replays for the traced run: direct calls into `atd-core`,
//! `atd-distance`, `atd-graph` and `atd-store` with the inputs the
//! workload used, each bracketed by a span. They run after the main load
//! and the gates, so they never compete with the measured service.

use std::collections::BTreeMap;
use std::time::Instant;

use atd_core::{
    authority_transform, CancelToken, Discovery, DiscoveryOptions, Normalization, Project,
    SkillIndex, Strategy,
};
use atd_distance::{
    BuildConfig, IncrementalError, PrunedLandmarkLabeling, SourceScatter, VertexOrder,
};
use atd_graph::{dijkstra_with_targets, DeltaClass, ExpertGraph, GraphDelta, NodeId};
use atd_store::{Journal, JournalConfig};

use crate::inputs::{strategy_label, Query, GAMMA, TOP_K};
use crate::phases::{same_teams, Ctx};
use crate::util::{mean, median, ms};
use crate::workloads::Outcome;

/// Deltas of the published sequence replayed per layer.
const CHAIN_MAX: usize = 16;
/// Repetitions of each index load.
const LOADS: usize = 5;
/// Repetitions of each replayed query; the median is kept.
pub const REPEATS: usize = 3;

/// Every `IncrementalError` variant, named as in the metric.
pub const REFUSALS: [&str; 6] = [
    "NodeCountChanged",
    "EdgeRemoved",
    "WeightIncreased",
    "OrderChanged",
    "ScaleChanged",
    "HubBudgetExceeded",
];

fn refusal_name(e: &IncrementalError) -> &'static str {
    match e {
        IncrementalError::NodeCountChanged => REFUSALS[0],
        IncrementalError::EdgeRemoved => REFUSALS[1],
        IncrementalError::WeightIncreased => REFUSALS[2],
        IncrementalError::OrderChanged => REFUSALS[3],
        IncrementalError::ScaleChanged => REFUSALS[4],
        IncrementalError::HubBudgetExceeded { .. } => REFUSALS[5],
    }
}

/// Layer figures gathered by the replays.
#[derive(Default)]
pub struct Layers {
    pub top_k_ms: BTreeMap<&'static str, Vec<f64>>,
    pub top_k_seq_ms: Vec<f64>,
    pub scan_ms: Vec<f64>,
    pub scan_lookups: Vec<f64>,
    pub dijkstra_ms: Vec<f64>,
    /// Per replayed query: Dijkstra time summed over its candidates.
    pub dijkstra_per_query_ms: Vec<f64>,
    pub first_query_ms: f64,
    pub gamma_cold_ms: Vec<f64>,
    pub try_incremental_ms: Vec<f64>,
    pub rebuild_ms: Vec<f64>,
    pub refused: BTreeMap<&'static str, u64>,
    pub wasted_ms: Vec<f64>,
    /// Per chain delta: core time to derive the next engine.
    pub core_publish_ms: Vec<f64>,
    pub label_entries: f64,
    pub index_bytes: f64,
    pub build_ms: Vec<f64>,
    pub build_gamma_ms: Vec<f64>,
    pub refresh_ms: Vec<f64>,
    pub refresh_hubs: Vec<f64>,
    pub load_owned_ms: Vec<f64>,
    pub load_mmap_ms: Vec<f64>,
    pub apply_delta_ms: Vec<f64>,
    pub append_fsync_ms: Vec<f64>,
    pub store_open_ms: Vec<f64>,
    /// Replayed queries whose sequential answer differs from the
    /// parallel one.
    pub seq_vs_parallel_differs: u64,
}

pub fn replay(ctx: &Ctx, out: &Outcome, queries: &[Query]) -> Layers {
    let mut l = Layers::default();
    let engine = out.snapshot.engine();
    let chain = &out.chain[..out.chain.len().min(CHAIN_MAX)];
    let (base, base_graph) = queries_per_layer(ctx, &mut l, engine, queries);
    first_query(ctx, &mut l, engine, out);
    core_chain(
        ctx,
        &mut l,
        &out.stage.tb.graph,
        &out.stage.tb.skills,
        chain,
    );
    distance_chain(ctx, &mut l, &out.stage.tb.graph, chain);
    loads(ctx, &mut l, &base, &base_graph);
    store(ctx, &mut l, &out.stage.tb.graph, chain, out);
    l
}

fn fail(ctx: &Ctx, why: String) {
    let mut rec = ctx.rec();
    rec.attempted += 1;
    rec.fail(why);
}

/// Per sampled query: `Discovery::top_k` on the pinned engine (parallel
/// scan, as served), then the sequential `top_k_anytime` alternated with
/// the replay of its root scan and Dijkstra calls through the distance
/// and graph layers, on the benchmark's own indexes. Alternating keeps
/// both sides of the engine sum under the same cache and clock state.
fn queries_per_layer(
    ctx: &Ctx,
    l: &mut Layers,
    engine: &Discovery,
    queries: &[Query],
) -> (PrunedLandmarkLabeling, ExpertGraph) {
    let tr = &ctx.tracer;
    let graph = engine.graph();
    let norm =
        Normalization::compute_with_min_authority(graph, DiscoveryOptions::default().min_authority);
    let base_graph = graph.map_weights(|_, _, w| norm.w_bar(w));
    let config = DiscoveryOptions::default().pll_build;
    let (base, t) = tr.time("distance.build", 0, 0, || {
        PrunedLandmarkLabeling::build_with_config(&base_graph, VertexOrder::default(), &config)
    });
    l.build_ms.push(t);
    let stats = base.stats();
    if stats != engine.pll_stats() {
        fail(
            ctx,
            "own index stats differ from the engine's pll_stats()".into(),
        );
    }
    l.label_entries = stats.total_entries as f64;
    l.index_bytes = stats.bytes as f64;
    let gamma_graph = authority_transform(graph, &norm, GAMMA);
    let (gamma, t) = tr.time("distance.build_gamma", 0, 0, || {
        PrunedLandmarkLabeling::build_with_config(&gamma_graph, VertexOrder::default(), &config)
    });
    l.build_gamma_ms.push(t);

    let mut scatter = base.scatter();
    let mut gamma_scatter = gamma.scatter();
    for (i, q) in queries.iter().enumerate() {
        let req = i as u64;
        let (par, t) = tr.time("core.top_k", 0, req, || {
            engine.top_k(&q.project, q.strategy, TOP_K)
        });
        l.top_k_ms
            .entry(strategy_label(q.strategy))
            .or_default()
            .push(t);
        let (pll, scatter, ranking) = match q.strategy {
            Strategy::Cc => (&base, &mut scatter, &base_graph),
            _ => (&gamma, &mut gamma_scatter, &gamma_graph),
        };
        let (mut seq_ms, mut scan_ms, mut dijkstra_ms) = (Vec::new(), Vec::new(), Vec::new());
        let mut lookups = 0;
        for _ in 0..REPEATS {
            let (seq, t) = tr.time("core.top_k_seq", 0, req, || {
                engine.top_k_anytime(
                    &q.project,
                    q.strategy,
                    TOP_K,
                    None,
                    &CancelToken::never(),
                    None,
                )
            });
            seq_ms.push(t);
            // A difference is counted, not failed: among roots of equal
            // cost the parallel scan can keep other teams than the
            // sequential one (the library's tie-break depends on the
            // scan's thread count).
            match (&par, seq) {
                (Ok(a), Ok(b)) if b.exhausted => {
                    l.seq_vs_parallel_differs += u64::from(!same_teams(a, &b.teams));
                }
                _ => fail(ctx, "sequential top_k did not complete".into()),
            }
            let s = scan(ctx, req, pll, scatter, engine.skills(), &norm, q);
            scan_ms.push(s.ms);
            lookups = s.lookups;
            let mut total = 0.0;
            for (root, holders) in &s.candidates {
                if holders.iter().all(|h| h == root) {
                    continue;
                }
                let (_, t) = tr.time("graph.dijkstra", 0, req, || {
                    dijkstra_with_targets(ranking, *root, Some(holders))
                });
                l.dijkstra_ms.push(t);
                total += t;
            }
            dijkstra_ms.push(total);
        }
        l.top_k_seq_ms.push(median(&seq_ms));
        l.scan_ms.push(median(&scan_ms));
        l.scan_lookups.push(lookups as f64);
        l.dijkstra_per_query_ms.push(median(&dijkstra_ms));
    }
    (base, base_graph)
}

struct Scan {
    ms: f64,
    lookups: u64,
    /// The best `k × oversample` roots with their holders, as the engine
    /// would materialize them.
    candidates: Vec<(NodeId, Vec<NodeId>)>,
}

/// Algorithm 1's root scan through the distance layer's public calls:
/// `load_source` once per root, `query_one_to_many` per (root, holder).
fn scan(
    ctx: &Ctx,
    req: u64,
    pll: &PrunedLandmarkLabeling,
    scatter: &mut SourceScatter,
    skills: &SkillIndex,
    norm: &Normalization,
    q: &Query,
) -> Scan {
    let adjust = |d: f64, v: NodeId| match q.strategy {
        Strategy::Cc => d,
        Strategy::CaCc { gamma } => d - gamma * norm.a_bar(v),
        Strategy::SaCaCc { gamma, lambda } => {
            (1.0 - lambda) * (d - gamma * norm.a_bar(v)) + lambda * norm.a_bar(v)
        }
    };
    let n = skills.num_nodes();
    let project: &Project = &q.project;
    let mut lookups = 0u64;
    let mut ranked: Vec<(f64, NodeId, Vec<NodeId>)> = Vec::new();
    let start = Instant::now();
    for i in 0..n {
        let root = NodeId::from_index(i);
        pll.load_source(scatter, root);
        let mut cost = 0.0;
        let mut holders = Vec::with_capacity(project.len());
        for &s in project.skills() {
            if skills.has_skill(root, s) {
                holders.push(root);
                continue;
            }
            let mut best: Option<(f64, NodeId)> = None;
            for &v in skills.holders(s) {
                lookups += 1;
                if let Some(d) = pll.query_one_to_many(scatter, v) {
                    let adj = adjust(d, v);
                    if best.is_none_or(|(bc, bv)| adj < bc || (adj == bc && v < bv)) {
                        best = Some((adj, v));
                    }
                }
            }
            match best {
                Some((c, v)) => {
                    cost += c;
                    holders.push(v);
                }
                None => break,
            }
        }
        if holders.len() == project.len() {
            ranked.push((cost, root, holders));
        }
    }
    let end = Instant::now();
    ctx.tracer.record(0, "distance.scan", 0, req, start, end);
    let limit = TOP_K * DiscoveryOptions::default().oversample;
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    ranked.truncate(limit);
    Scan {
        ms: ms(end - start),
        lookups,
        candidates: ranked.into_iter().map(|(_, r, h)| (r, h)).collect(),
    }
}

/// The first-answer query on the pinned engine (the query part of the
/// first-answer sum).
fn first_query(ctx: &Ctx, l: &mut Layers, engine: &Discovery, out: &Outcome) {
    let q = out.stage.mix.first_answer();
    let mut t = Vec::new();
    for _ in 0..3 {
        let (_, ms) = ctx.tracer.time("core.first_query", 0, 0, || {
            engine.top_k(&q.project, q.strategy, TOP_K)
        });
        t.push(ms);
    }
    l.first_query_ms = median(&t);
}

/// The publish path's engine derivation, replayed per delta: incremental
/// when the delta allows it, a rebuild otherwise (and after a refusal),
/// then the cold γ build every new engine pays on its first γ query.
fn core_chain(
    ctx: &Ctx,
    l: &mut Layers,
    genesis: &ExpertGraph,
    skills: &SkillIndex,
    chain: &[GraphDelta],
) {
    let tr = &ctx.tracer;
    let options = DiscoveryOptions::default();
    let build = |g: &ExpertGraph| {
        Discovery::with_options(g.clone(), skills.padded_to(g.num_nodes()), options.clone())
            .expect("engine build")
    };
    let mut graph = genesis.clone();
    let (mut engine, t) = tr.time("core.rebuild", 0, 0, || build(&graph));
    l.rebuild_ms.push(t);
    for (i, delta) in chain.iter().enumerate() {
        let req = i as u64;
        let class = delta.classify(&graph);
        let (next, t) = tr.time("graph.apply_delta", 0, req, || graph.apply_delta(delta));
        l.apply_delta_ms.push(t);
        let next = next.expect("published delta applies");
        let mut spent = 0.0;
        let mut derived = None;
        if class != DeltaClass::Structural {
            let padded = skills.padded_to(next.num_nodes());
            let (res, t) = tr.time("core.try_incremental", 0, req, || {
                engine.try_incremental(next.clone(), padded)
            });
            spent += t;
            match res {
                Ok((e, _)) => {
                    l.try_incremental_ms.push(t);
                    derived = Some(e);
                }
                Err(e) => {
                    *l.refused.entry(refusal_name(&e)).or_default() += 1;
                    l.wasted_ms.push(t);
                }
            }
        }
        let e = match derived {
            Some(e) => e,
            None => {
                let (e, t) = tr.time("core.rebuild", 0, req, || build(&next));
                l.rebuild_ms.push(t);
                spent += t;
                e
            }
        };
        l.core_publish_ms.push(spent);
        let (_, t) = tr.time("core.gamma_cold", 0, req, || e.prepare_gamma(GAMMA));
        l.gamma_cold_ms.push(t);
        engine = e;
        graph = next;
    }
}

/// The distance layer's half of the publish path: `refresh` of the base
/// index per relaxation, a build for anything it refuses.
fn distance_chain(ctx: &Ctx, l: &mut Layers, genesis: &ExpertGraph, chain: &[GraphDelta]) {
    let tr = &ctx.tracer;
    let min_authority = DiscoveryOptions::default().min_authority;
    let config: BuildConfig = DiscoveryOptions::default().pll_build;
    let base_of = |g: &ExpertGraph| {
        let norm = Normalization::compute_with_min_authority(g, min_authority);
        (norm.w_scale(), g.map_weights(|_, _, w| norm.w_bar(w)))
    };
    let (mut scale, mut base) = base_of(genesis);
    let mut pll = PrunedLandmarkLabeling::build_with_config(&base, VertexOrder::default(), &config);
    let mut graph = genesis.clone();
    for (i, delta) in chain.iter().enumerate() {
        let class = delta.classify(&graph);
        graph = graph.apply_delta(delta).expect("published delta applies");
        let (next_scale, next_base) = base_of(&graph);
        let refreshed = if class != DeltaClass::Structural && next_scale == scale {
            let (res, t) = tr.time("distance.refresh", 0, i as u64, || {
                atd_distance::refresh(&pll, &base, &next_base, VertexOrder::default(), &config)
            });
            res.ok().map(|(p, report)| {
                l.refresh_ms.push(t);
                l.refresh_hubs.push(report.affected_hubs as f64);
                p
            })
        } else {
            None
        };
        pll = refreshed.unwrap_or_else(|| {
            let (p, t) = tr.time("distance.build", 0, i as u64, || {
                PrunedLandmarkLabeling::build_with_config(
                    &next_base,
                    VertexOrder::default(),
                    &config,
                )
            });
            l.build_ms.push(t);
            p
        });
        scale = next_scale;
        base = next_base;
    }
}

/// Owned and memory-mapped loads of the base index from disk.
fn loads(ctx: &Ctx, l: &mut Layers, pll: &PrunedLandmarkLabeling, base: &ExpertGraph) {
    let path = ctx.work().join("layer-index.atdi");
    if let Err(e) = pll.save_to(&path, base) {
        fail(ctx, format!("index save: {e}"));
        return;
    }
    for _ in 0..LOADS {
        let (r, t) = ctx.tracer.time("distance.load_owned", 0, 0, || {
            PrunedLandmarkLabeling::load_from(&path, base)
        });
        match r {
            Ok(_) => l.load_owned_ms.push(t),
            Err(e) => fail(ctx, format!("owned load: {e}")),
        }
        let (r, t) = ctx.tracer.time("distance.load_mmap", 0, 0, || {
            PrunedLandmarkLabeling::load_mmap(&path, base)
        });
        match r {
            Ok(_) => l.load_mmap_ms.push(t),
            Err(e) => fail(ctx, format!("mmap load: {e}")),
        }
    }
    let _ = std::fs::remove_file(&path);
}

/// `Journal` driven directly: appends of the same deltas to a fresh
/// genesis store (default config, fsync on), and recovery of the
/// workload's store holding the published tail.
fn store(ctx: &Ctx, l: &mut Layers, genesis: &ExpertGraph, chain: &[GraphDelta], out: &Outcome) {
    let tr = &ctx.tracer;
    let dir = ctx.fresh_dir("journal");
    match Journal::open(&dir, JournalConfig::default(), || genesis.clone()) {
        Ok((mut journal, _)) => {
            for (i, d) in chain.iter().enumerate() {
                let (r, t) = tr.time("store.append", 0, i as u64, || journal.append(d));
                match r {
                    Ok(_) => l.append_fsync_ms.push(t),
                    Err(e) => fail(ctx, format!("journal append: {e}")),
                }
            }
        }
        Err(e) => fail(ctx, format!("journal init: {e}")),
    }
    let _ = std::fs::remove_dir_all(&dir);
    for _ in 0..3 {
        let (r, t) = tr.time("store.open", 0, 0, || {
            Journal::open(&out.tail_dir, JournalConfig::default(), || {
                unreachable!("store exists")
            })
        });
        match r {
            Ok(_) => l.store_open_ms.push(t),
            Err(e) => fail(ctx, format!("journal recovery: {e}")),
        }
    }
}

impl Layers {
    pub fn mean_scan_ns_per_lookup(&self) -> f64 {
        let lookups: f64 = self.scan_lookups.iter().sum();
        if lookups == 0.0 {
            0.0
        } else {
            self.scan_ms.iter().sum::<f64>() * 1e6 / lookups
        }
    }

    pub fn mean_lookups(&self) -> f64 {
        mean(&self.scan_lookups)
    }

    pub fn wasted_total_ms(&self) -> f64 {
        self.wasted_ms.iter().fold(0.0, |a, b| a + b)
    }
}
