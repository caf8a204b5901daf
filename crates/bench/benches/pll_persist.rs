//! Index persistence: load-from-disk vs rebuild — the cold-start
//! comparison behind `DiscoveryOptions::pll_index_path` (PR 5).
//!
//! One group, `pll_persist`:
//!
//! * `rebuild` — the full PLL construction (default config), the cost
//!   every process start paid before persistence existed;
//! * `load/<backend>` — deserializing + validating a saved index for
//!   each of the three storage backends (the owned cold-start path);
//! * `load_mmap/<backend>` — the zero-copy path (PR 10): validate the
//!   mapped file's header + checksum + plane metadata and borrow every
//!   label plane straight out of the page cache, no decode, no copy;
//! * `save/<backend>` — serializing the index (the one-off cost after a
//!   build).
//!
//! Before any timing, every saved file is loaded once through **both**
//! paths and asserted **bit-identical** to the built index (stats + full
//! entry-level label comparison, a byte-exact `to_bytes` round-trip of
//! the mapped store, and pairwise + one-to-many query bits over sample
//! sources) — this doubles as the CI smoke for the on-disk format.
//! The environment block on stderr records graph shape, per-backend
//! file sizes, and the rebuild baseline for BENCH_pr10.json.

use atd_dblp::graph_build::{BuildConfig, ExpertNetwork};
use atd_dblp::synth::{SynthConfig, SynthCorpus};
use atd_distance::{
    graph_fingerprint, BuildConfig as PllBuildConfig, CompressedDictLabelSet, DictLabelSet,
    LabelStorage, LabelStore, PrunedLandmarkLabeling, VertexOrder,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn graph_of(authors: usize) -> atd_graph::ExpertGraph {
    let synth = SynthCorpus::generate(&SynthConfig {
        num_authors: authors,
        seed: 3,
        ..SynthConfig::default()
    });
    ExpertNetwork::build(synth.corpus, &BuildConfig::default())
        .expect("network")
        .graph
}

fn assert_bit_identical(a: &LabelStore, b: &LabelStore, ctx: &str) {
    assert_eq!(a.stats(), b.stats(), "{ctx}: stats differ");
    for v in 0..a.num_nodes() {
        assert!(
            a.entries(v).eq(b.entries(v)),
            "{ctx}: labels differ at node {v}"
        );
    }
}

fn bench_pll_persist(c: &mut Criterion) {
    // 3000 authors → the 2270-node expert graph: the acceptance testbed
    // every BENCH_pr*.json cold-start claim is quoted against.
    let g = graph_of(3000);
    let reference = PrunedLandmarkLabeling::build_with_config(
        &g,
        VertexOrder::DegreeDescending,
        &PllBuildConfig::sequential(),
    );
    let csr = reference.labels().as_csr().expect("sequential CSR build");
    eprintln!(
        "pll_persist testbed: {} nodes, {} edges, {} label entries",
        g.num_nodes(),
        g.num_edges(),
        reference.stats().total_entries
    );

    let dir = std::env::temp_dir().join(format!("atd_pll_persist_bench_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tempdir");

    let mut group = c.benchmark_group("pll_persist");
    group.sample_size(10);
    group.bench_function("rebuild", |b| {
        b.iter(|| {
            black_box(PrunedLandmarkLabeling::build_with_config(
                &g,
                VertexOrder::DegreeDescending,
                &PllBuildConfig::default(),
            ))
            .stats()
        })
    });

    for storage in LabelStorage::ALL {
        let store = match storage {
            LabelStorage::Csr => reference.labels().clone(),
            LabelStorage::CsrDict => LabelStore::from(DictLabelSet::from_label_set(csr)),
            LabelStorage::CompressedDict => {
                LabelStore::from(CompressedDictLabelSet::from_label_set(csr))
            }
        };
        let path = dir.join(format!("index-{}.atdl", storage.name()));
        store.save_to(&path, &g).expect("save");
        // Bit-identity gates before any timing: the saved file must
        // reproduce the built index exactly through BOTH load paths —
        // label-by-label, byte-by-byte (the mapped store re-serializes
        // to the exact file bytes), and query-by-query over sample
        // sources (pairwise + one-to-many).
        let loaded = PrunedLandmarkLabeling::load_from(&path, &g).expect("load");
        assert_bit_identical(&store, loaded.labels(), storage.name());
        let mapped = PrunedLandmarkLabeling::load_mmap(&path, &g).expect("mmap load");
        assert!(
            mapped.labels().is_zero_copy(),
            "{}: mmap load must borrow",
            storage.name()
        );
        assert_bit_identical(&store, mapped.labels(), storage.name());
        let file_bytes = std::fs::read(&path).expect("read back");
        assert_eq!(
            mapped.labels().to_bytes(graph_fingerprint(&g)),
            file_bytes,
            "{}: mapped store must re-serialize to the file bytes",
            storage.name()
        );
        let mut sc_owned = loaded.scatter();
        let mut sc_mapped = mapped.scatter();
        for u in g.nodes().step_by(97) {
            loaded.load_source(&mut sc_owned, u);
            mapped.load_source(&mut sc_mapped, u);
            for v in g.nodes() {
                assert_eq!(
                    loaded.query_raw(u, v).to_bits(),
                    mapped.query_raw(u, v).to_bits(),
                    "{}: pairwise {u:?}→{v:?}",
                    storage.name()
                );
                assert_eq!(
                    loaded.query_one_to_many(&sc_owned, v),
                    mapped.query_one_to_many(&sc_mapped, v),
                    "{}: scatter {u:?}→{v:?}",
                    storage.name()
                );
            }
        }
        eprintln!(
            "  {:>15}: {} KiB on disk",
            storage.name(),
            std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0) / 1024
        );

        // Both load benches measure the load itself, not the teardown:
        // `iter_with_large_drop` defers dropping the returned index out
        // of the timed region (the owned path would otherwise time its
        // allocator frees, the mmap path its `munmap`).
        group.bench_with_input(
            BenchmarkId::new("load", storage.name()),
            &path,
            |b, path| {
                b.iter_with_large_drop(|| {
                    black_box(PrunedLandmarkLabeling::load_from(path, &g).expect("load"))
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("load_mmap", storage.name()),
            &path,
            |b, path| {
                b.iter_with_large_drop(|| {
                    black_box(PrunedLandmarkLabeling::load_mmap(path, &g).expect("mmap load"))
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("save", storage.name()),
            &store,
            |b, store| {
                b.iter(|| {
                    store.save_to(&path, &g).expect("save");
                    black_box(())
                })
            },
        );
    }
    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(benches, bench_pll_persist);
criterion_main!(benches);
