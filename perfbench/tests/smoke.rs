//! Tiny-scale runs of every workload, untraced and traced: every gate
//! must pass and the emitted metric names must be exactly the ones
//! `BENCHMARK.json` lists, so a broken gate or a renamed metric shows
//! without a full benchmark run.

use std::path::Path;

use atd_perfbench::{run, Config};

fn tiny(workload: &str, trace: bool) -> Config {
    let mut cfg = Config::new(workload, 7, 1.0, trace);
    cfg.authors = 300;
    cfg.tail_records = 3;
    cfg.out = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("smoke-{workload}-{}", trace as u8));
    cfg
}

/// Metric names of one list in `BENCHMARK.json` (`end_to_end` or
/// `per_layer`), read without a JSON dependency.
fn listed(list: &str) -> Vec<String> {
    let text =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .expect("BENCHMARK.json");
    let start = text.find(&format!("\"{list}\"")).expect("list present");
    let section = &text[start..];
    let end = section[1..]
        .find("\"per_layer\"")
        .map_or(section.len(), |e| e + 1);
    section[..end]
        .split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("name value").to_string())
        .collect()
}

fn check(workload: &str) {
    for trace in [false, true] {
        let out = run(tiny(workload, trace), "smoke");
        assert!(
            out.correct && out.failed == 0,
            "{workload} trace={trace}: {}",
            out.report.render()
        );
        assert!(out.attempted > 0);
        let names: Vec<String> = out.metrics.iter().map(|m| m.0.clone()).collect();
        let want = listed(if trace { "per_layer" } else { "end_to_end" });
        assert_eq!(names, want, "{workload} trace={trace}: metric names");
        for (name, value, _) in &out.metrics {
            assert!(value.is_finite(), "{workload}: {name} = {value}");
        }
        if !trace {
            for (name, value, _) in &out.metrics {
                assert!(*value > 0.0, "{workload}: end-to-end {name} is {value}");
            }
        }
    }
}

#[test]
fn query_mix_smoke() {
    check("query_mix");
}

#[test]
fn restart_smoke() {
    check("restart");
}

#[test]
fn answer_gate_catches_a_flipped_bit() {
    use atd_perfbench::inputs::{QueryMix, Testbed, TOP_K};
    use atd_perfbench::phases::same_teams;
    let tb = Testbed::new(300);
    let engine = atd_core::Discovery::new(tb.graph.clone(), tb.skills.clone()).expect("engine");
    let q = QueryMix::new(&tb.skills).first_answer();
    let teams = engine.top_k(&q.project, q.strategy, TOP_K).expect("top_k");
    assert!(same_teams(&teams, &teams.clone()));
    let mut flipped = teams.clone();
    flipped[0].objective = f64::from_bits(flipped[0].objective.to_bits() ^ 1);
    assert!(!same_teams(&teams, &flipped));
    assert!(!same_teams(&teams, &teams[..teams.len() - 1]));
}
