//! The persistence contract: `save → load` is bit-lossless for **every**
//! storage backend (labels, stats, storage tag), and loading is total —
//! any corrupted, truncated, stale, or malicious byte stream yields a
//! clean [`PersistError`], never a panic. The corruption half flips every
//! byte and cuts every prefix of real dumps, then re-seals patched
//! payloads with the format's own checksum to drive the *structural*
//! validation behind it (out-of-range dictionary codes, malformed varint
//! blocks, non-monotone offsets). The header and resealed cases load
//! each corrupt dump both ways — a heap copy through `from_bytes` and a
//! mapped file through `from_region` — and require the same error.

use atd_distance::persist::{checksum, HEADER_LEN};
use atd_distance::{
    CompressedDictLabelSet, DictLabelSet, LabelEntry, LabelSet, LabelStore, MmapRegion,
    PersistError, PrunedLandmarkLabeling,
};
use proptest::prelude::*;

/// Random per-node label lists: strictly ascending ranks from random
/// gaps (crossing the varint byte-width boundaries) and non-negative
/// distances with heavy repetition (the shape dictionary codes exist
/// for). Ranks stay below the node count often enough to exercise both
/// small and large gaps.
fn random_lists() -> impl Strategy<Value = Vec<Vec<LabelEntry>>> {
    proptest::collection::vec(
        proptest::collection::vec((0u32..40_000, 0.0f64..50.0), 0..32),
        0..12,
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
                    let dist = if i % 8 == 7 {
                        0.0
                    } else if i % 3 == 0 {
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

/// Every backend built from the same lists (order matches
/// `LabelStorage::ALL`).
fn stores(lists: &[Vec<LabelEntry>]) -> Vec<LabelStore> {
    vec![
        LabelStore::from(LabelSet::from_lists(lists)),
        LabelStore::from(DictLabelSet::from_lists(lists)),
        LabelStore::from(CompressedDictLabelSet::from_lists(lists)),
    ]
}

const HASH: u64 = 0x0123_4567_89ab_cdef;

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

/// Recomputes the payload checksum after a test patched payload bytes,
/// so the patch reaches the structural validation instead of dying at
/// the checksum gate.
fn reseal(bytes: &mut [u8]) {
    let sum = checksum(&bytes[HEADER_LEN..]);
    bytes[40..48].copy_from_slice(&sum.to_le_bytes());
}

fn e(hub_rank: u32, dist: f64) -> LabelEntry {
    LabelEntry { hub_rank, dist }
}

/// Loads corrupt `bytes` both ways — a heap copy through
/// `LabelStore::from_bytes` and a mapped file through
/// `LabelStore::from_region` — asserts both reject them with the same
/// error, and returns it.
fn load_err(bytes: &[u8], nodes: usize) -> PersistError {
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let owned = LabelStore::from_bytes(bytes, nodes, HASH).unwrap_err();
    let path = std::env::temp_dir().join(format!(
        "atd_persist_both_{}_{}.atdl",
        std::process::id(),
        SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    std::fs::write(&path, bytes).unwrap();
    let region = MmapRegion::map_file(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let mapped = LabelStore::from_region(&region, nodes, HASH).unwrap_err();
    assert_eq!(
        format!("{owned:?}"),
        format!("{mapped:?}"),
        "heap and mapped loads disagree"
    );
    owned
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// save → load reproduces every backend bit-identically: same
    /// storage tag, same stats (hence same per-plane bytes), same rank
    /// and distance bits for every node.
    #[test]
    fn roundtrip_is_bit_lossless_for_every_backend(lists in random_lists()) {
        for store in stores(&lists) {
            let bytes = store.to_bytes(HASH);
            let loaded = LabelStore::from_bytes(&bytes, store.num_nodes(), HASH)
                .unwrap_or_else(|err| panic!("{:?}: {err}", store.storage()));
            assert_stores_bit_identical(&store, &loaded);
        }
    }

    /// Flipping ANY single byte of a valid dump makes loading fail
    /// cleanly: every byte is covered by the magic, a header field
    /// check, the fingerprint, or the payload checksum — and nothing
    /// panics.
    #[test]
    fn any_single_byte_flip_is_rejected(lists in random_lists(), seed in 0usize..1_000_000) {
        for store in stores(&lists) {
            let mut bytes = store.to_bytes(HASH);
            let pos = seed % bytes.len();
            bytes[pos] ^= 0xff;
            let result = LabelStore::from_bytes(&bytes, store.num_nodes(), HASH);
            prop_assert!(
                result.is_err(),
                "{:?}: flip at byte {pos} of {} went unnoticed",
                store.storage(),
                bytes.len()
            );
        }
    }

    /// A dump loaded against a *different* snapshot fingerprint is
    /// rejected as stale for every backend.
    #[test]
    fn wrong_fingerprint_is_stale(lists in random_lists()) {
        for store in stores(&lists) {
            let bytes = store.to_bytes(HASH);
            let err = LabelStore::from_bytes(&bytes, store.num_nodes(), HASH ^ 1).unwrap_err();
            prop_assert!(matches!(err, PersistError::StaleIndex { .. }), "{err}");
        }
    }
}

#[test]
fn every_truncation_point_is_rejected_cleanly() {
    let lists = vec![
        vec![e(0, 0.25), e(1, 1.5), e(300, 2.0)],
        vec![],
        vec![e(2, 0.25), e(5, 1.5), e(6, 0.0)],
    ];
    for store in stores(&lists) {
        let bytes = store.to_bytes(HASH);
        for cut in 0..bytes.len() {
            let result = LabelStore::from_bytes(&bytes[..cut], store.num_nodes(), HASH);
            assert!(
                result.is_err(),
                "{:?}: truncation at {cut}/{} went unnoticed",
                store.storage(),
                bytes.len()
            );
        }
    }
}

#[test]
fn header_field_corruption_yields_the_matching_error() {
    let store = LabelStore::from(LabelSet::from_lists(&[vec![e(0, 1.0)]]));
    let bytes = store.to_bytes(HASH);
    let load = |b: &[u8]| load_err(b, 1);

    let mut bad_magic = bytes.clone();
    bad_magic[0] = b'X';
    assert!(matches!(load(&bad_magic), PersistError::BadMagic));

    let mut bad_version = bytes.clone();
    bad_version[4] = 99;
    assert!(matches!(
        load(&bad_version),
        PersistError::UnsupportedVersion(99)
    ));

    // Version 1 (the retired byte-packed layout) is no longer read.
    let mut v1 = bytes.clone();
    v1[4..6].copy_from_slice(&1u16.to_le_bytes());
    assert!(matches!(load(&v1), PersistError::UnsupportedVersion(1)));

    let mut bad_tag = bytes.clone();
    bad_tag[6] = 17;
    assert!(matches!(load(&bad_tag), PersistError::BadStorageTag(17)));

    // Tag 1 named the removed varint-ranks/flat-dists backend.
    let mut removed_tag = bytes.clone();
    removed_tag[6] = 1;
    assert!(matches!(load(&removed_tag), PersistError::BadStorageTag(1)));

    let mut bad_reserved = bytes.clone();
    bad_reserved[7] = 1;
    assert!(matches!(load(&bad_reserved), PersistError::Corrupt(_)));

    let mut bad_checksum = bytes.clone();
    bad_checksum[40] ^= 1;
    assert!(matches!(
        load(&bad_checksum),
        PersistError::ChecksumMismatch
    ));

    let mut flipped_payload = bytes.clone();
    let last = flipped_payload.len() - 1;
    flipped_payload[last] ^= 1;
    assert!(matches!(
        load(&flipped_payload),
        PersistError::ChecksumMismatch
    ));
}

#[test]
fn dictionary_code_beyond_table_is_rejected_not_panicking() {
    // One entry, one table value: the only legal code is 0. The code
    // plane is the final plane — one u8 followed by 7 alignment-pad
    // bytes in the v2 layout — so the code itself sits 8 bytes from the
    // end; patch it to 1 (== table len) and re-seal.
    let store = LabelStore::from(DictLabelSet::from_lists(&[vec![e(0, 0.5)]]));
    let mut bytes = store.to_bytes(HASH);
    let last = bytes.len() - 8;
    bytes[last] = 1;
    reseal(&mut bytes);
    let err = load_err(&bytes, 1);
    assert!(
        matches!(err, PersistError::Corrupt(msg) if msg.contains("code")),
        "{err}"
    );
}

#[test]
fn nonzero_plane_padding_is_rejected() {
    // The same one-code dict dump: the final plane's u8 code is followed
    // by 7 zero pad bytes. Set the last one and re-seal.
    let store = LabelStore::from(DictLabelSet::from_lists(&[vec![e(0, 0.5)]]));
    let mut bytes = store.to_bytes(HASH);
    let last = bytes.len() - 1;
    bytes[last] = 1;
    reseal(&mut bytes);
    let err = load_err(&bytes, 1);
    assert!(
        matches!(err, PersistError::Corrupt(msg) if msg.contains("padding")),
        "{err}"
    );
}

#[test]
fn malformed_varint_block_is_rejected_not_panicking() {
    // Compressed-dict v2 layout: max-rank word (8), offsets (8+8),
    // byte_offsets (8+8), then the rank-byte block (8-byte length
    // prefix + one varint byte), then the dictionary. Setting that
    // varint's continuation bit leaves the block truncated mid-varint —
    // exactly what the unchecked hot-path decoder would have walked off
    // the end of.
    let store = LabelStore::from(CompressedDictLabelSet::from_lists(&[vec![e(0, 0.5)]]));
    let mut bytes = store.to_bytes(HASH);
    let rank_byte = HEADER_LEN + 8 + 16 + 16 + 8;
    assert_eq!(bytes[rank_byte], 0x00, "rank 0 encodes as one zero byte");
    bytes[rank_byte] = 0x80;
    reseal(&mut bytes);
    let err = load_err(&bytes, 1);
    assert!(
        matches!(err, PersistError::Corrupt(msg) if msg.contains("varint")),
        "{err}"
    );
}

#[test]
fn non_monotone_offsets_are_rejected_not_panicking() {
    // CSR v2 layout: max-rank word, then the offsets block = 8-byte
    // length prefix + [0, 1, 2] u32s. Patching offsets[1] to 5 breaks
    // monotonicity (and the slice bounds the unchecked `of()` would
    // have used).
    let store = LabelStore::from(LabelSet::from_lists(&[vec![e(0, 1.0)], vec![e(1, 2.0)]]));
    let mut bytes = store.to_bytes(HASH);
    let offset1 = HEADER_LEN + 8 + 8 + 4;
    bytes[offset1..offset1 + 4].copy_from_slice(&5u32.to_le_bytes());
    reseal(&mut bytes);
    let err = load_err(&bytes, 2);
    assert!(matches!(err, PersistError::Corrupt(_)), "{err}");
}

#[test]
fn descending_csr_ranks_are_rejected() {
    // Two entries for one node with swapped ranks: build the valid dump
    // first, then swap the two rank u32s (offsets 8+12 in) and re-seal.
    let store = LabelStore::from(LabelSet::from_lists(&[vec![e(3, 1.0), e(9, 2.0)]]));
    let mut bytes = store.to_bytes(HASH);
    let ranks_at = HEADER_LEN + 8 + (8 + 8) + 8; // max-rank word, offsets block, ranks length prefix
    bytes[ranks_at..ranks_at + 4].copy_from_slice(&9u32.to_le_bytes());
    bytes[ranks_at + 4..ranks_at + 8].copy_from_slice(&3u32.to_le_bytes());
    reseal(&mut bytes);
    let err = load_err(&bytes, 1);
    assert!(
        matches!(err, PersistError::Corrupt(msg) if msg.contains("ascending")),
        "{err}"
    );
}

#[test]
fn pll_load_rejects_hub_ranks_beyond_the_node_count() {
    // Structurally valid store, but rank 5 cannot be a vertex rank in a
    // 1-node graph: LabelStore::load_from accepts it (raw stores carry
    // no such bound), PrunedLandmarkLabeling::load_from must reject it —
    // its scatter scratch direct-indexes by rank.
    use atd_graph::GraphBuilder;
    let mut b = GraphBuilder::new();
    b.add_node(1.0);
    let g = b.build().unwrap();
    let store = LabelStore::from(LabelSet::from_lists(&[vec![e(5, 1.0)]]));
    let bytes = store.to_bytes(atd_distance::graph_fingerprint(&g));
    let dir = std::env::temp_dir();
    let path = dir.join(format!(
        "atd_persist_rank_bound_{}_{:?}.atdl",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::write(&path, &bytes).unwrap();
    assert!(LabelStore::load_from(&path, &g).is_ok(), "store-level load");
    let err = PrunedLandmarkLabeling::load_from(&path, &g).unwrap_err();
    assert!(
        matches!(err, PersistError::Corrupt(msg) if msg.contains("rank")),
        "{err}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn pll_roundtrip_through_files_is_bit_identical_and_queryable() {
    // End-to-end through real files: build an index on a real graph,
    // save, load, and compare labels and a full pairwise query matrix
    // bitwise.
    use atd_graph::GraphBuilder;
    let mut b = GraphBuilder::new();
    let ids: Vec<_> = (0..12).map(|i| b.add_node(1.0 + i as f64)).collect();
    for i in 0..ids.len() {
        b.add_edge(ids[i], ids[(i + 1) % ids.len()], 1.0 + (i % 3) as f64 * 0.5)
            .unwrap();
        if i + 4 < ids.len() {
            b.add_edge(ids[i], ids[i + 4], 2.5).unwrap();
        }
    }
    let g = b.build().unwrap();
    let built = PrunedLandmarkLabeling::build(&g);
    let dir = std::env::temp_dir();
    let path = dir.join(format!(
        "atd_persist_pll_roundtrip_{}_{:?}.atdl",
        std::process::id(),
        std::thread::current().id()
    ));
    built.save_to(&path, &g).unwrap();
    let loaded = PrunedLandmarkLabeling::load_from(&path, &g).unwrap();
    assert_stores_bit_identical(built.labels(), loaded.labels());
    let mut sc = loaded.scatter();
    for u in g.nodes() {
        loaded.load_source(&mut sc, u);
        for v in g.nodes() {
            assert_eq!(
                built.query_raw(u, v).to_bits(),
                loaded.query_raw(u, v).to_bits()
            );
            assert_eq!(
                loaded.query_one_to_many(&sc, v),
                built.query_one_to_many(
                    &{
                        let mut s2 = built.scatter();
                        built.load_source(&mut s2, u);
                        s2
                    },
                    v
                )
            );
        }
    }
    // A perturbed graph (one weight changed) must reject the file.
    let g2 = g.map_weights(|_, _, w| w * 2.0);
    let err = PrunedLandmarkLabeling::load_from(&path, &g2).unwrap_err();
    assert!(matches!(err, PersistError::StaleIndex { .. }), "{err}");
    std::fs::remove_file(&path).ok();
}
