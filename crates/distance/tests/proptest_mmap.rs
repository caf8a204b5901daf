//! The zero-copy loading contract: for every storage backend,
//! `save → load_mmap` borrows the label planes straight out of the
//! mapped file and is **bit-identical** to the owned load — same
//! labels, same stats, same pairwise and one-to-many query bits. The
//! corruption half drives every single-byte flip and every truncation
//! prefix through the mmap path, which must reject them as cleanly as
//! the owned load does.

use atd_distance::persist::{checksum, HEADER_LEN};
use atd_distance::{
    graph_fingerprint, BuildConfig, CompressedDictLabelSet, DictLabelSet, LabelEntry, LabelSet,
    LabelStorage, LabelStore, PersistError, PrunedLandmarkLabeling, VertexOrder,
};
use atd_graph::{ExpertGraph, GraphBuilder};
use proptest::prelude::*;
use std::path::PathBuf;

/// A unique temp path that removes its file on drop, so failing tests
/// don't litter the temp dir.
struct TempIndex(PathBuf);

impl TempIndex {
    fn new(tag: &str) -> TempIndex {
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        TempIndex(std::env::temp_dir().join(format!(
            "atd_mmap_{tag}_{}_{}.atdl",
            std::process::id(),
            SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        )))
    }
}

impl Drop for TempIndex {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

fn random_lists() -> impl Strategy<Value = Vec<Vec<LabelEntry>>> {
    proptest::collection::vec(
        proptest::collection::vec((0u32..40_000, 0.0f64..50.0), 0..24),
        0..10,
    )
    .prop_map(|nodes| {
        nodes
            .into_iter()
            .map(|gaps| {
                let mut rank: u64 = 0;
                let mut list = Vec::with_capacity(gaps.len());
                for (i, (gap, dist)) in gaps.into_iter().enumerate() {
                    rank = if i == 0 {
                        gap as u64
                    } else {
                        rank + 1 + gap as u64
                    };
                    let dist = if i % 3 == 0 {
                        (gap % 5) as f64 * 0.25
                    } else {
                        dist
                    };
                    list.push(LabelEntry {
                        hub_rank: rank as u32,
                        dist,
                    });
                }
                list
            })
            .collect()
    })
}

fn stores(lists: &[Vec<LabelEntry>]) -> Vec<LabelStore> {
    vec![
        LabelStore::from(LabelSet::from_lists(lists)),
        LabelStore::from(DictLabelSet::from_lists(lists)),
        LabelStore::from(CompressedDictLabelSet::from_lists(lists)),
    ]
}

const HASH: u64 = 0x0dd0_beef_cafe_f00d;

fn assert_stores_bit_identical(a: &LabelStore, b: &LabelStore) {
    assert_eq!(a.storage(), b.storage());
    assert_eq!(a.stats(), b.stats());
    for v in 0..a.num_nodes() {
        let la: Vec<LabelEntry> = a.entries(v).collect();
        let lb: Vec<LabelEntry> = b.entries(v).collect();
        assert_eq!(la.len(), lb.len(), "node {v}");
        for (x, y) in la.iter().zip(&lb) {
            assert_eq!(x.hub_rank, y.hub_rank, "node {v}");
            assert_eq!(x.dist.to_bits(), y.dist.to_bits(), "node {v}");
        }
    }
}

/// A small weighted graph with cycles and chords, the shape the PLL
/// end-to-end tests build real indexes on.
fn test_graph() -> ExpertGraph {
    let mut b = GraphBuilder::new();
    let ids: Vec<_> = (0..14).map(|i| b.add_node(1.0 + i as f64 * 0.5)).collect();
    for i in 0..ids.len() {
        b.add_edge(ids[i], ids[(i + 1) % ids.len()], 1.0 + (i % 4) as f64 * 0.5)
            .unwrap();
        if i + 5 < ids.len() {
            b.add_edge(ids[i], ids[i + 5], 2.25).unwrap();
        }
    }
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// save → load_mmap is bit-identical to the owned load for every
    /// backend, and borrows from a kernel mapping (zero-copy) wherever
    /// the target supports one.
    #[test]
    fn mmap_load_is_bit_identical_to_owned_for_every_backend(lists in random_lists()) {
        for store in stores(&lists) {
            let bytes = store.to_bytes(HASH);
            let tmp = TempIndex::new("identity");
            std::fs::write(&tmp.0, &bytes).unwrap();
            let owned = LabelStore::from_bytes(&bytes, store.num_nodes(), HASH).unwrap();
            let mapped = {
                // load_mmap wants a graph for the fingerprint; at the
                // store level we exercise from_bytes vs the mapped
                // region through the PLL-free path below instead.
                let region = atd_distance::MmapRegion::map_file(&tmp.0).unwrap();
                LabelStore::from_region(&region, store.num_nodes(), HASH).unwrap()
            };
            prop_assert_eq!(
                mapped.is_zero_copy(),
                atd_distance::MmapRegion::native_mmap_supported(),
                "{:?} did not borrow",
                store.storage()
            );
            prop_assert!(!owned.is_zero_copy(), "{:?}: heap load claims zero copy", store.storage());
            assert_stores_bit_identical(&store, &owned);
            assert_stores_bit_identical(&store, &mapped);
            // Re-serializing the mapped store reproduces the file bytes
            // exactly — nothing was lost or reordered in the borrow.
            prop_assert_eq!(mapped.to_bytes(HASH), bytes);
        }
    }

    /// Flipping ANY single byte of a dump makes the mmap load fail
    /// cleanly — the word-lane checksum (plus header checks) covers
    /// every byte.
    #[test]
    fn mmap_load_rejects_any_single_byte_flip(lists in random_lists(), seed in 0usize..1_000_000) {
        for store in stores(&lists) {
            let mut bytes = store.to_bytes(HASH);
            let pos = seed % bytes.len();
            bytes[pos] ^= 0xff;
            let tmp = TempIndex::new("flip");
            std::fs::write(&tmp.0, &bytes).unwrap();
            let region = atd_distance::MmapRegion::map_file(&tmp.0).unwrap();
            let result = LabelStore::from_region(&region, store.num_nodes(), HASH);
            prop_assert!(
                result.is_err(),
                "{:?}: flip at byte {pos} of {} went unnoticed by the mmap path",
                store.storage(),
                bytes.len()
            );
        }
    }
}

#[test]
fn mmap_load_rejects_every_truncation_point() {
    let lists = vec![
        vec![
            LabelEntry {
                hub_rank: 0,
                dist: 0.25,
            },
            LabelEntry {
                hub_rank: 1,
                dist: 1.5,
            },
            LabelEntry {
                hub_rank: 300,
                dist: 2.0,
            },
        ],
        vec![],
        vec![
            LabelEntry {
                hub_rank: 2,
                dist: 0.25,
            },
            LabelEntry {
                hub_rank: 5,
                dist: 1.5,
            },
        ],
    ];
    for store in stores(&lists) {
        let bytes = store.to_bytes(HASH);
        for cut in 0..bytes.len() {
            let tmp = TempIndex::new("cut");
            std::fs::write(&tmp.0, &bytes[..cut]).unwrap();
            let region = atd_distance::MmapRegion::map_file(&tmp.0).unwrap();
            let result = LabelStore::from_region(&region, store.num_nodes(), HASH);
            assert!(
                result.is_err(),
                "{:?}: truncation at {cut}/{} went unnoticed by the mmap path",
                store.storage(),
                bytes.len()
            );
        }
    }
}

/// End-to-end through the PLL engine: build on a real graph with every
/// backend, save, load both ways, and compare every pairwise and
/// one-to-many query bit-for-bit.
#[test]
fn pll_mmap_queries_are_bit_identical_across_backends() {
    let g = test_graph();
    for storage in LabelStorage::ALL {
        let config = BuildConfig {
            storage,
            ..BuildConfig::default()
        };
        let built = PrunedLandmarkLabeling::build_with_config(&g, VertexOrder::default(), &config);
        let tmp = TempIndex::new("pll");
        built.save_to(&tmp.0, &g).unwrap();
        let owned = PrunedLandmarkLabeling::load_from(&tmp.0, &g).unwrap();
        let mapped = PrunedLandmarkLabeling::load_mmap(&tmp.0, &g).unwrap();
        assert!(
            mapped.labels().is_zero_copy(),
            "{storage:?}: mmap load did not borrow"
        );
        assert!(
            !owned.labels().is_zero_copy(),
            "{storage:?}: owned load borrowed"
        );
        assert_stores_bit_identical(built.labels(), mapped.labels());
        let mut sc_mapped = mapped.scatter();
        let mut sc_owned = owned.scatter();
        for u in g.nodes() {
            mapped.load_source(&mut sc_mapped, u);
            owned.load_source(&mut sc_owned, u);
            for v in g.nodes() {
                assert_eq!(
                    owned.query_raw(u, v).to_bits(),
                    mapped.query_raw(u, v).to_bits(),
                    "{storage:?}: pairwise {u:?}→{v:?}"
                );
                assert_eq!(
                    owned.query_one_to_many(&sc_owned, v),
                    mapped.query_one_to_many(&sc_mapped, v),
                    "{storage:?}: scatter {u:?}→{v:?}"
                );
            }
        }
    }
}

/// The payload's leading `max_rank` word must agree with the decoded
/// ranks; an inflated value (resealed past the checksum) must fail the
/// PLL load with the same cross-check error on both paths.
#[test]
fn inflated_max_rank_field_is_rejected_on_both_paths() {
    let g = test_graph();
    let built = PrunedLandmarkLabeling::build(&g);
    let mut bytes = built.labels().to_bytes(graph_fingerprint(&g));
    bytes[HEADER_LEN..HEADER_LEN + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
    let sum = checksum(&bytes[HEADER_LEN..]);
    bytes[40..48].copy_from_slice(&sum.to_le_bytes());
    let tmp = TempIndex::new("maxrank");
    std::fs::write(&tmp.0, &bytes).unwrap();
    let owned = PrunedLandmarkLabeling::load_from(&tmp.0, &g).unwrap_err();
    assert!(
        matches!(owned, PersistError::Corrupt(msg) if msg.contains("max-rank")),
        "{owned}"
    );
    let mapped = PrunedLandmarkLabeling::load_mmap(&tmp.0, &g).unwrap_err();
    assert!(
        matches!(mapped, PersistError::Corrupt(msg) if msg.contains("max-rank")),
        "{mapped}"
    );
}
