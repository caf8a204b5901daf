//! Cold-start profiler for the batch-synchronous parallel PLL builder
//! and the persistent-index load path.
//!
//! Builds the distance index for a synthetic expert network at a chosen
//! size under several `BuildConfig`s and prints the search/merge/repair
//! profile of each — the end-to-end view of what a fresh snapshot costs
//! to index — then saves and reloads the index in **every** storage
//! backend, printing load-vs-rebuild wall time (the `persist.rs`
//! instant cold start; loads are asserted bit-identical) — for both the
//! owned (heap-copy) load and the zero-copy mmap load, with the mmap-vs-owned
//! speedup and the process RSS after each so the page-cache-backed
//! memory win is visible alongside the time win.
//!
//! Run with:
//! `cargo run --release --example pll_cold_start [num_authors] [threads...]`

use std::time::Instant;

use team_discovery::dblp::graph_build::{BuildConfig, ExpertNetwork};
use team_discovery::dblp::synth::{SynthConfig, SynthCorpus};
use team_discovery::distance::{
    BuildConfig as PllBuildConfig, CompressedDictLabelSet, DictLabelSet, LabelStorage, LabelStore,
    PrunedLandmarkLabeling, VertexOrder,
};

/// `(RssAnon, RssFile)` in KiB from `/proc/self/status` (Linux); `None`
/// where procfs is unavailable. The split matters here: an owned index
/// load grows the private anonymous heap (`RssAnon`), while a zero-copy
/// mmap load only makes shared, evictable page-cache pages resident
/// (`RssFile`) — total `VmRSS` alone hides the difference.
fn rss_split_kib() -> Option<(u64, u64)> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let grab = |key: &str| {
        status
            .lines()
            .find(|l| l.starts_with(key))?
            .split_whitespace()
            .nth(1)?
            .parse()
            .ok()
    };
    Some((grab("RssAnon:")?, grab("RssFile:")?))
}

fn main() {
    let mut args = std::env::args().skip(1);
    let authors: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(1000);
    let threads: Vec<usize> = {
        let t: Vec<usize> = args.filter_map(|a| a.parse().ok()).collect();
        if t.is_empty() {
            vec![2, 4]
        } else {
            t
        }
    };

    let synth = SynthCorpus::generate(&SynthConfig {
        num_authors: authors,
        seed: 3,
        ..SynthConfig::default()
    });
    let g = ExpertNetwork::build(synth.corpus, &BuildConfig::default())
        .expect("network")
        .graph;
    println!("graph: {} nodes, {} edges", g.num_nodes(), g.num_edges());

    let t0 = Instant::now();
    let seq = PrunedLandmarkLabeling::build_with_config(
        &g,
        VertexOrder::DegreeDescending,
        &PllBuildConfig::sequential(),
    );
    let seq_time = t0.elapsed();
    let stats = seq.stats();
    println!(
        "labels: {} entries, avg {:.1}, max {}",
        stats.total_entries, stats.avg_entries, stats.max_entries,
    );
    for storage in LabelStorage::ALL {
        let s = seq.labels().stats_in(storage);
        print!(
            "  {:>15}: {:>6} KiB ({:>5.1}% of csr; {})",
            storage.name(),
            s.bytes / 1024,
            100.0 * s.bytes as f64 / stats.bytes as f64,
            s.breakdown_kib()
        );
        if s.dict_values > 0 {
            print!(
                " [{} values, {}-byte codes]",
                s.dict_values,
                s.dict_code_width()
            );
        }
        println!();
    }
    println!("sequential build: {seq_time:.2?}");

    let mut best_rebuild = seq_time;
    for &t in &threads {
        let t1 = Instant::now();
        let par = PrunedLandmarkLabeling::build_with_config(
            &g,
            VertexOrder::DegreeDescending,
            &PllBuildConfig {
                threads: Some(t),
                batch_size: 64,
                ..PllBuildConfig::default()
            },
        );
        let wall = t1.elapsed();
        assert_eq!(par.stats(), stats, "parallel build must be bit-identical");
        let p = par.build_profile();
        println!(
            "parallel t={t}: {wall:.2?} wall (search {:.2?}, merge {:.2?}; \
             {} batches, {}/{} hubs repaired, {} journaled -> {} committed)",
            p.search_time,
            p.merge_time,
            p.batches.len(),
            p.repaired_hubs,
            g.num_nodes(),
            p.journaled_entries,
            p.committed_entries
        );
        best_rebuild = best_rebuild.min(wall);
    }

    // Persistence: save + reload the same index in every backend. The
    // load replaces the whole build on restart, so the ratio against the
    // best rebuild above is the instant-cold-start win.
    println!("persist (load-or-build vs best rebuild {best_rebuild:.2?}):");
    let dir = std::env::temp_dir().join(format!("atd_pll_cold_start_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tempdir");
    let csr = seq.labels().as_csr().expect("sequential build is CSR");
    for storage in LabelStorage::ALL {
        let store = match storage {
            LabelStorage::Csr => seq.labels().clone(),
            LabelStorage::CsrDict => LabelStore::from(DictLabelSet::from_label_set(csr)),
            LabelStorage::CompressedDict => {
                LabelStore::from(CompressedDictLabelSet::from_label_set(csr))
            }
        };
        let path = dir.join(format!("index-{}.atdl", storage.name()));
        let t1 = Instant::now();
        store.save_to(&path, &g).expect("save");
        let save = t1.elapsed();
        let file_kib = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0) / 1024;
        let rss_before = rss_split_kib();
        let t1 = Instant::now();
        let loaded = PrunedLandmarkLabeling::load_from(&path, &g).expect("load");
        let load = t1.elapsed();
        let rss_owned = rss_split_kib();
        let t1 = Instant::now();
        let mapped = PrunedLandmarkLabeling::load_mmap(&path, &g).expect("mmap load");
        let mmap_load = t1.elapsed();
        let rss_mapped = rss_split_kib();
        assert!(
            mapped.labels().is_zero_copy(),
            "mmap load must borrow ({})",
            storage.name()
        );
        for v in 0..g.num_nodes() {
            assert!(
                store.entries(v).eq(loaded.labels().entries(v)),
                "loaded labels must be bit-identical ({})",
                storage.name()
            );
            assert!(
                store.entries(v).eq(mapped.labels().entries(v)),
                "mapped labels must be bit-identical ({})",
                storage.name()
            );
        }
        println!(
            "  {:>15}: {file_kib:>6} KiB file, save {save:.2?}, load {load:.2?} \
             ({:.0}x faster than rebuild), mmap {mmap_load:.2?} ({:.0}x faster than load)",
            storage.name(),
            best_rebuild.as_secs_f64() / load.as_secs_f64().max(1e-9),
            load.as_secs_f64() / mmap_load.as_secs_f64().max(1e-9),
        );
        if let (Some((_, _)), Some((a1, _)), Some((a2, f2))) = (rss_before, rss_owned, rss_mapped) {
            // The mapped copy's planes live in the page cache, not the
            // heap: the owned load materializes the full plane bytes as
            // private anonymous memory (the measured anon-RSS delta
            // depends on what the allocator recycles, so quote the
            // exact plane size from `LabelStats`), the mmap load adds
            // ~nothing private — its resident pages are file-backed,
            // shared between processes, and evictable under pressure.
            println!(
                "  {:>15}  memory: owned planes {} KiB private heap; mmap borrows them \
                 (anon rss {:+} KiB, file pages shared/evictable in RssFile {f2} KiB)",
                "",
                loaded.labels().stats().bytes / 1024,
                a2 as i64 - a1 as i64,
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
