//! End-to-end and per-layer benchmark of the team-discovery service.
//!
//! One run executes one workload against the synthetic-DBLP testbed
//! through the public APIs of `atd-serve`, `atd-core`, `atd-distance`,
//! `atd-graph` and `atd-store`, checks the answers, and returns every
//! metric by name with its unit. An untraced run reports the end-to-end
//! metrics; a traced run reports the per-layer metrics. See `README.md`.

pub mod gates;
pub mod inputs;
pub mod layers;
pub mod phases;
pub mod trace;
pub mod util;
pub mod workloads;

use std::path::{Path, PathBuf};

use atd_core::DiscoveryOptions;
use atd_serve::{JournalConfig, ServeConfig};

pub use phases::Config;
use util::{median, tail, Json};

/// Largest share of a layer sum left unattributed before the traced run
/// flags it as not reconciled.
pub const RECONCILE_TOLERANCE_PCT: f64 = 20.0;

impl Config {
    /// The benchmark's settings for one workload and seed.
    pub fn new(workload: &str, seed: u64, seconds: f64, trace: bool) -> Config {
        Config {
            workload: workload.to_string(),
            seed,
            seconds,
            trace,
            authors: 3000,
            tail_records: 16,
            out: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
        }
    }
}

/// A finished run: the full report and the result line.
pub struct RunResult {
    pub report: Json,
    pub result: Json,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
}

pub fn run(cfg: Config, command: &str) -> RunResult {
    assert!(
        workloads::WORKLOADS.contains(&cfg.workload.as_str()),
        "unknown workload {}",
        cfg.workload
    );
    std::fs::create_dir_all(&cfg.out).expect("output directory");
    let ctx = phases::Ctx::new(cfg.clone());
    let outcome = workloads::run(&ctx);
    let rss = util::rss_peak_mib();
    gates::run(&ctx, &outcome);

    let mut metrics: Vec<(String, f64, &'static str)> = Vec::new();
    let mut extra: Vec<(String, Json)> = Vec::new();
    if cfg.trace {
        let sampled = layer_queries(&ctx, &outcome);
        let l = layers::replay(&ctx, &outcome, &sampled);
        per_layer(&ctx, &l, &mut metrics, &mut extra);
        let path = cfg
            .out
            .join(format!("trace-{}-{}.jsonl", cfg.workload, cfg.seed));
        if let Err(e) = ctx.tracer.write_jsonl(&path) {
            eprintln!("could not write {}: {e}", path.display());
        }
        extra.push(("trace_file".into(), Json::str(path.display().to_string())));
        extra.push(("spans".into(), ctx.tracer.summary()));
    } else {
        end_to_end(&ctx, rss, &mut metrics, &mut extra);
    }

    let rec = ctx.rec();
    let correct = rec.failed == 0;
    let metric_json = |with_unit: bool| {
        Json::Obj(
            metrics
                .iter()
                .map(|(name, value, unit)| {
                    let v = if with_unit {
                        Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))])
                    } else {
                        Json::Num(*value)
                    };
                    (name.clone(), v)
                })
                .collect(),
        )
    };
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(rec.attempted as i64)),
        ("failed", Json::Int(rec.failed as i64)),
        ("metrics", metric_json(true)),
    ]);
    let mut report = vec![
        ("schema".to_string(), Json::str("atd-perfbench/1")),
        ("workload".into(), Json::str(&cfg.workload)),
        ("trace".into(), Json::Bool(cfg.trace)),
        ("environment".into(), environment(&cfg, &outcome, command)),
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Int(rec.attempted as i64)),
        ("failed".into(), Json::Int(rec.failed as i64)),
        (
            "gate_failures".into(),
            Json::Arr(rec.gate_failures.iter().map(Json::str).collect()),
        ),
        ("metrics".into(), metric_json(false)),
    ];
    report.extend(extra);
    let report = Json::Obj(report);
    let (attempted, failed) = (rec.attempted, rec.failed);
    drop(rec);
    let name = format!(
        "report-{}-{}-trace{}.json",
        cfg.workload, cfg.seed, cfg.trace as u8
    );
    let _ = std::fs::write(cfg.out.join(name), report.render() + "\n");
    ctx.cleanup();
    RunResult {
        report,
        result,
        correct,
        attempted,
        failed,
        metrics,
    }
}

fn end_to_end(
    ctx: &phases::Ctx,
    rss: f64,
    m: &mut Vec<(String, f64, &'static str)>,
    extra: &mut Vec<(String, Json)>,
) {
    let rec = ctx.rec();
    let ack: Vec<f64> = rec.publishes.iter().map(|p| p.ack_ms).collect();
    let visible: Vec<f64> = rec.publishes.iter().map(|p| p.visible_ms).collect();
    let query_tail = tail(&rec.query_ms);
    let ack_tail = tail(&ack);
    let mut put = |name: &str, v: f64, unit: &'static str| m.push((name.to_string(), v, unit));
    put("setup_s", median(&rec.setup_s), "s");
    put("rss_peak_mib", rss, "MiB");
    put("query_p50_ms", median(&rec.query_ms), "ms");
    put("query_tail_ms", query_tail.value, "ms");
    put("query_capacity_qps", median(&rec.capacity_qps), "1/s");
    put("publish_ack_p50_ms", median(&ack), "ms");
    put("publish_ack_tail_ms", ack_tail.value, "ms");
    put("publish_visible_p50_ms", median(&visible), "ms");
    put("first_answer_cold_ms", median(&rec.first_cold_ms), "ms");
    put("first_answer_clean_ms", median(&rec.first_clean_ms), "ms");
    put("first_answer_tail_ms", median(&rec.first_tail_ms), "ms");
    let tail_json = |t: util::Tail| {
        Json::obj([
            ("value", Json::Num(t.value)),
            ("percentile", Json::Num(t.percentile)),
            ("samples", Json::Int(t.samples as i64)),
        ])
    };
    let count = |v: &Vec<f64>| Json::Int(v.len() as i64);
    extra.push((
        "tails".into(),
        Json::obj([
            ("query_tail_ms", tail_json(query_tail)),
            ("publish_ack_tail_ms", tail_json(ack_tail)),
        ]),
    ));
    extra.push((
        "samples".into(),
        Json::obj([
            ("setup", count(&rec.setup_s)),
            ("query", count(&rec.query_ms)),
            ("capacity_phases", count(&rec.capacity_qps)),
            ("publish", Json::Int(ack.len() as i64)),
            ("first_answer_cold", count(&rec.first_cold_ms)),
            ("first_answer_clean", count(&rec.first_clean_ms)),
            ("first_answer_tail", count(&rec.first_tail_ms)),
        ]),
    ));
    extra.push((
        "generator_lag_ms".into(),
        Json::obj([
            ("p50", Json::Num(median(&rec.generator_lag_ms))),
            ("tail", Json::Num(tail(&rec.generator_lag_ms).value)),
        ]),
    ));
}

/// Queries replayed per layer: two of each (size, strategy) cell, drawn
/// like the workload's own.
fn layer_queries(ctx: &phases::Ctx, out: &workloads::Outcome) -> Vec<inputs::Query> {
    let mut r = util::Rng::new(ctx.cfg.seed ^ 0x1a7e);
    let mut qs = out.stage.mix.sequence(&mut r, 18);
    qs.sort_by_key(|q| inputs::strategy_label(q.strategy));
    qs
}

fn pct(remainder: f64, total: f64) -> f64 {
    if total == 0.0 {
        0.0
    } else {
        100.0 * remainder / total
    }
}

fn per_layer(
    ctx: &phases::Ctx,
    l: &layers::Layers,
    m: &mut Vec<(String, f64, &'static str)>,
    extra: &mut Vec<(String, Json)>,
) {
    let rec = ctx.rec();
    let mut put = |name: &str, v: f64, unit: &'static str| m.push((name.to_string(), v, unit));
    let wait: Vec<f64> = rec
        .query_ms
        .iter()
        .zip(&rec.engine_ms)
        .map(|(c, e)| c - e)
        .collect();
    put("serve.queue_wait_ms", median(&wait), "ms");
    put("serve.engine_ms", median(&rec.engine_ms), "ms");
    let incremental = rec.publishes.iter().filter(|p| p.incremental).count() as f64;
    let publishes = rec.publishes.len() as f64;
    put("serve.publish.incremental_applied", incremental, "count");
    put(
        "serve.publish.rebuild_fallbacks",
        publishes - incremental,
        "count",
    );
    put(
        "serve.publish.incremental_share",
        if publishes > 0.0 {
            incremental / publishes
        } else {
            0.0
        },
        "ratio",
    );
    put(
        "serve.recover.replayed_records",
        median(&rec.replayed_records),
        "count",
    );
    for s in inputs::STRATEGIES {
        let label = inputs::strategy_label(s);
        let v = l.top_k_ms.get(label).cloned().unwrap_or_default();
        put(&format!("core.top_k_ms.{label}"), median(&v), "ms");
    }
    put("core.top_k_seq_ms", median(&l.top_k_seq_ms), "ms");
    put("core.gamma_cold_ms", median(&l.gamma_cold_ms), "ms");
    put(
        "core.try_incremental_ms",
        median(&l.try_incremental_ms),
        "ms",
    );
    put("core.rebuild_ms", median(&l.rebuild_ms), "ms");
    for name in layers::REFUSALS {
        let n = l.refused.get(name).copied().unwrap_or(0);
        put(
            &format!("core.incremental_refused.{name}"),
            n as f64,
            "count",
        );
    }
    put("core.incremental_wasted_ms", l.wasted_total_ms(), "ms");
    put("distance.scan_lookups_per_query", l.mean_lookups(), "count");
    put(
        "distance.scan_ns_per_lookup",
        l.mean_scan_ns_per_lookup(),
        "ns",
    );
    put("distance.label_entries", l.label_entries, "count");
    put("distance.index_bytes", l.index_bytes, "bytes");
    put("distance.build_ms", median(&l.build_ms), "ms");
    put("distance.build_ms.gamma", median(&l.build_gamma_ms), "ms");
    put("distance.refresh_ms", median(&l.refresh_ms), "ms");
    put(
        "distance.refresh_affected_hubs",
        median(&l.refresh_hubs),
        "count",
    );
    put("distance.load_ms.owned", median(&l.load_owned_ms), "ms");
    put("distance.load_ms.mmap", median(&l.load_mmap_ms), "ms");
    put("graph.apply_delta_ms", median(&l.apply_delta_ms), "ms");
    put("graph.dijkstra_ms", median(&l.dijkstra_ms), "ms");
    put("store.append_fsync_ms", median(&l.append_fsync_ms), "ms");
    put("store.open_ms", median(&l.store_open_ms), "ms");
    put(
        "bench.generator_lag_ms",
        tail(&rec.generator_lag_ms).value,
        "ms",
    );
    let record_ns = trace::record_cost_ns();
    put("bench.span_record_ns", record_ns, "ns");
    let paired: Vec<f64> = rec
        .overhead_traced_ms
        .iter()
        .zip(&rec.overhead_untraced_ms)
        .filter(|(t, u)| t.is_finite() && u.is_finite())
        .map(|(t, u)| pct(t - u, *u))
        .collect();
    put("bench.trace_overhead_pct", median(&paired), "%");
    extra.push((
        "trace_overhead".into(),
        Json::obj([
            (
                "definition",
                Json::str("median over the batch's queries of (traced - untraced) / untraced client latency, same query and round, sides alternating"),
            ),
            (
                "traced_p50_ms",
                Json::Num(median(&rec.overhead_traced_ms)),
            ),
            (
                "untraced_p50_ms",
                Json::Num(median(&rec.overhead_untraced_ms)),
            ),
            ("pairs", Json::Int(paired.len() as i64)),
        ]),
    ));

    // Layer sums. Each is (end-to-end, [(part, value)]); the remainder
    // is what no measured layer accounts for.
    let sums = vec![
        (
            "engine",
            "sequential top_k = scan + Dijkstra + rest (replayed queries, summed)",
            l.top_k_seq_ms.iter().sum::<f64>(),
            vec![
                ("distance.scan", l.scan_ms.iter().sum::<f64>()),
                (
                    "graph.dijkstra",
                    l.dijkstra_per_query_ms.iter().sum::<f64>(),
                ),
            ],
        ),
        publish_sum(&rec.publishes, l),
        first_answer_sum(&rec, l),
    ];
    let mut within = true;
    let mut rows = Vec::new();
    for (name, definition, total, parts) in sums {
        let attributed: f64 = parts.iter().map(|p| p.1).sum();
        let remainder = pct(total - attributed, total);
        within &= remainder.abs() <= RECONCILE_TOLERANCE_PCT;
        put(
            &format!("reconcile.{name}_remainder_pct"),
            remainder.abs(),
            "%",
        );
        rows.push((
            name.to_string(),
            Json::obj([
                ("definition", Json::str(definition)),
                ("total_ms", Json::Num(total)),
                (
                    "parts_ms",
                    Json::Obj(
                        parts
                            .into_iter()
                            .map(|(k, v)| (k.to_string(), Json::Num(v)))
                            .collect(),
                    ),
                ),
                ("remainder_pct", Json::Num(remainder)),
            ]),
        ));
    }
    extra.push((
        "findings".into(),
        Json::obj([(
            "seq_vs_parallel_top_k_differs",
            Json::obj([
                ("count", Json::Int(l.seq_vs_parallel_differs as i64)),
                (
                    "of",
                    Json::Int((l.top_k_seq_ms.len() * layers::REPEATS) as i64),
                ),
            ]),
        )]),
    ));
    extra.push((
        "reconcile".into(),
        Json::obj([
            ("tolerance_pct", Json::Num(RECONCILE_TOLERANCE_PCT)),
            ("within_tolerance", Json::Bool(within)),
            ("sums", Json::Obj(rows)),
            (
                "identities",
                Json::obj([(
                    "query",
                    Json::str("client latency = queue wait + engine: holds by definition, since queue wait is client latency minus ServeResponse::latency"),
                )]),
            ),
        ]),
    ));
}

/// A layer sum: name, definition, end-to-end total (ms) and measured
/// parts (ms).
type Sum = (&'static str, &'static str, f64, Vec<(&'static str, f64)>);

/// Publish ack = append/fsync (which applies the delta) + engine
/// derivation (incremental refresh, or a rebuild after a refusal) +
/// rest, over the replayed prefix of the published sequence.
fn publish_sum(publishes: &[phases::PublishSample], l: &layers::Layers) -> Sum {
    let n = publishes
        .len()
        .min(l.core_publish_ms.len())
        .min(l.append_fsync_ms.len());
    let ack: f64 = publishes[..n].iter().map(|p| p.ack_ms).sum();
    let append: f64 = l.append_fsync_ms[..n].iter().sum();
    let apply: f64 = l.apply_delta_ms[..n.min(l.apply_delta_ms.len())]
        .iter()
        .sum();
    let derive: f64 = l.core_publish_ms[..n].iter().sum();
    (
        "publish",
        "publish ack = (append/fsync - apply) + apply + refresh-or-rebuild + rest (replayed prefix, summed)",
        ack,
        vec![
            ("store.append_fsync_excl_apply", append - apply),
            ("graph.apply_delta", apply),
            ("core.refresh_or_rebuild", derive),
        ],
    )
}

/// Tail first answer = journal open + index load + tail replay + query.
fn first_answer_sum(rec: &phases::Record, l: &layers::Layers) -> Sum {
    (
        "first_answer",
        "tail first answer = journal open + index load + tail replay + query",
        median(&rec.first_tail_ms),
        vec![
            ("store.open", median(&l.store_open_ms)),
            ("distance.load_owned", median(&l.load_owned_ms)),
            ("core.tail_replay", l.core_publish_ms.iter().sum::<f64>()),
            ("core.first_query", l.first_query_ms),
        ],
    )
}

fn environment(cfg: &Config, out: &workloads::Outcome, command: &str) -> Json {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(&root)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::process::Command::new(std::env::var("RUSTC").unwrap_or("rustc".into()))
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let options = DiscoveryOptions::default();
    let serve = ServeConfig::default();
    let scan_threads = options.threads.unwrap_or(nproc);
    let engine = out.snapshot.engine();
    let tb = &out.stage.tb;
    Json::obj([
        ("nproc", Json::Int(nproc as i64)),
        ("commit", Json::str(commit)),
        ("source_digest", Json::str(source_digest(&root))),
        ("rustc", Json::str(rustc)),
        ("command", Json::str(command)),
        ("seed", Json::Int(cfg.seed as i64)),
        ("seconds", Json::Num(cfg.seconds)),
        (
            "testbed",
            Json::obj([
                ("authors", Json::Int(tb.authors as i64)),
                ("nodes", Json::Int(tb.graph.num_nodes() as i64)),
                ("edges", Json::Int(tb.graph.num_edges() as i64)),
                ("skills", Json::Int(tb.skills.num_skills() as i64)),
                (
                    "label_entries",
                    Json::Int(engine.pll_stats().total_entries as i64),
                ),
            ]),
        ),
        (
            "config",
            Json::obj([
                ("workers", Json::Int(serve.workers as i64)),
                ("scan_threads", Json::Int(scan_threads as i64)),
                (
                    "workers_x_scan_threads",
                    Json::str(format!("{}x{}", serve.workers, scan_threads)),
                ),
                ("fsync", Json::Bool(JournalConfig::default().sync_writes)),
                (
                    "load_mode",
                    Json::str(format!("{:?}", options.pll_load_mode)),
                ),
                ("checkpoint_every", Json::Int(0)),
                ("query_mix_rate_qps", Json::Num(workloads::QUERY_MIX_RATE)),
                ("tail_records", Json::Int(cfg.tail_records as i64)),
            ]),
        ),
    ])
}

/// FNV-1a over the library sources, naming the code measured when the
/// checkout carries no commit.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                if !p.ends_with("target") {
                    walk(&p, files);
                }
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        for b in std::fs::read(&f).unwrap_or_default() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}
