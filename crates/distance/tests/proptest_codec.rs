//! The storage codecs' contract: delta+varint and dictionary round-trips
//! are lossless (`encode → decode` reproduces every rank and every
//! distance bit), the builder-direct conversions
//! ([`LabelSetBuilder::finish`], [`LabelSetBuilder::finish_csr_dict`],
//! [`LabelSetBuilder::finish_compressed_dict`]) match both the CSR
//! conversion and the list encoders, and the pairwise merge-join of
//! **every** storage backend is bit-identical to the CSR engine — on
//! arbitrary label shapes, including empty labels, rank gaps spanning
//! multiple varint bytes, zero distances, and heavy distance-value
//! repetition (the case dictionary codes exist for).

use atd_distance::{
    CompressedDictLabelSet, DictLabelSet, LabelEntry, LabelSet, LabelSetBuilder, LabelStorage,
    LabelStore,
};
use proptest::prelude::*;

/// Random per-node label lists: strictly ascending ranks built from
/// random gaps (biased to cross the 1-byte/2-byte varint boundaries) and
/// arbitrary non-negative distances (including exact zeros and heavy
/// repetition — every third entry is drawn from a handful of quantized
/// values, the shape the distance dictionary exists for).
fn random_lists() -> impl Strategy<Value = Vec<Vec<LabelEntry>>> {
    proptest::collection::vec(
        proptest::collection::vec((0u32..40_000, 0.0f64..50.0), 0..40),
        0..16,
    )
    .prop_map(|nodes| {
        nodes
            .into_iter()
            .map(|gaps| {
                let mut rank: u64 = 0;
                let mut list = Vec::with_capacity(gaps.len());
                for (i, (gap, dist)) in gaps.into_iter().enumerate() {
                    // First entry lands on `gap` itself (absolute rank may
                    // be 0); later entries advance strictly.
                    rank = if i == 0 {
                        gap as u64
                    } else {
                        rank + 1 + gap as u64
                    };
                    // Every eighth distance is an exact zero (hub
                    // self-entries are zero in real labels); every third
                    // is quantized so values repeat across nodes.
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

/// Every storage backend built from the same lists, CSR first — the
/// sweep the equivalence proptests run. Order matches
/// [`LabelStorage::ALL`].
fn stores(lists: &[Vec<LabelEntry>]) -> Vec<LabelStore> {
    vec![
        LabelStore::from(LabelSet::from_lists(lists)),
        LabelStore::from(DictLabelSet::from_lists(lists)),
        LabelStore::from(CompressedDictLabelSet::from_lists(lists)),
    ]
}

/// A builder journaling `lists` the way PLL construction does: pushes
/// interleave across nodes in global rank order.
fn journal(lists: &[Vec<LabelEntry>]) -> LabelSetBuilder {
    let mut flat: Vec<(usize, LabelEntry)> = Vec::new();
    for (v, list) in lists.iter().enumerate() {
        for &entry in list {
            flat.push((v, entry));
        }
    }
    flat.sort_by_key(|&(v, entry)| (entry.hub_rank, v));
    let mut b = LabelSetBuilder::new(lists.len());
    for (v, entry) in flat {
        b.push(v, entry);
    }
    b
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Lossless round-trip on **every** backend: every rank and every
    /// distance bit survives `from_lists → entries`.
    #[test]
    fn roundtrip_is_bit_exact(lists in random_lists()) {
        for store in stores(&lists) {
            let storage = store.storage();
            prop_assert_eq!(store.num_nodes(), lists.len());
            for (v, list) in lists.iter().enumerate() {
                let decoded: Vec<LabelEntry> = store.entries(v).collect();
                prop_assert_eq!(
                    decoded.len(), list.len(),
                    "{:?} node {} length", storage, v
                );
                for (i, (got, want)) in decoded.iter().zip(list).enumerate() {
                    prop_assert_eq!(
                        got.hub_rank, want.hub_rank,
                        "{:?} node {} entry {}", storage, v, i
                    );
                    prop_assert_eq!(
                        got.dist.to_bits(),
                        want.dist.to_bits(),
                        "{:?} node {} entry {} dist {} vs {}",
                        storage, v, i, got.dist, want.dist
                    );
                }
            }
        }
    }

    /// The builder-direct conversions (which never materialize the CSR
    /// arrays or the flat f64 distance array) write the same bytes as
    /// the list encoders — every plane, not just the decoded entries.
    #[test]
    fn construction_paths_agree(lists in random_lists()) {
        let direct = [
            LabelStore::from(journal(&lists).finish()),
            LabelStore::from(journal(&lists).finish_csr_dict()),
            LabelStore::from(journal(&lists).finish_compressed_dict()),
        ];
        for (via_lists, via_builder) in stores(&lists).iter().zip(&direct) {
            prop_assert_eq!(
                via_lists.to_bytes(0),
                via_builder.to_bytes(0),
                "{:?}", via_lists.storage()
            );
        }
    }

    /// Pairwise queries of every backend are bit-identical to the CSR
    /// merge-join, including `INFINITY` for hub-disjoint labels.
    #[test]
    fn every_query_matches_csr(lists in random_lists()) {
        let all = stores(&lists);
        let csr = &all[0];
        for other in &all[1..] {
            for u in 0..lists.len() {
                for v in 0..lists.len() {
                    prop_assert_eq!(
                        other.query(u, v).to_bits(),
                        csr.query(u, v).to_bits(),
                        "({},{}): {:?} {} vs csr {}",
                        u, v, other.storage(), other.query(u, v), csr.query(u, v)
                    );
                }
            }
        }
    }

    /// The dict backends' three construction paths agree: the list
    /// encoder, the CSR re-encoder, and the builder-direct conversions
    /// (which never materialize the flat f64 distance array).
    #[test]
    fn dict_construction_paths_agree(lists in random_lists()) {
        let csr = LabelSet::from_lists(&lists);
        let build = || journal(&lists);

        let d_lists = DictLabelSet::from_lists(&lists);
        let d_csr = DictLabelSet::from_label_set(&csr);
        let d_builder = build().finish_csr_dict();
        let cd_lists = CompressedDictLabelSet::from_lists(&lists);
        let cd_csr = CompressedDictLabelSet::from_label_set(&csr);
        let cd_builder = build().finish_compressed_dict();
        for v in 0..lists.len() {
            let want: Vec<LabelEntry> = d_lists.entries(v).collect();
            prop_assert_eq!(
                &d_csr.entries(v).collect::<Vec<_>>(), &want,
                "csr-dict from_label_set differs at node {}", v
            );
            prop_assert_eq!(
                &d_builder.entries(v).collect::<Vec<_>>(), &want,
                "finish_csr_dict differs at node {}", v
            );
            prop_assert_eq!(
                &cd_lists.decode(v).collect::<Vec<_>>(), &want,
                "compressed-dict from_lists differs at node {}", v
            );
            prop_assert_eq!(
                &cd_csr.decode(v).collect::<Vec<_>>(), &want,
                "compressed-dict from_label_set differs at node {}", v
            );
            prop_assert_eq!(
                &cd_builder.decode(v).collect::<Vec<_>>(), &want,
                "finish_compressed_dict differs at node {}", v
            );
        }
        prop_assert_eq!(d_lists.stats(), d_csr.stats());
        prop_assert_eq!(d_lists.stats(), d_builder.stats());
        prop_assert_eq!(cd_lists.stats(), cd_csr.stats());
        prop_assert_eq!(cd_lists.stats(), cd_builder.stats());
    }

    /// Stats of every backend agree on everything except the byte
    /// footprint, which counts each backend's real arrays — and every
    /// backend's plane breakdown sums to its total.
    #[test]
    fn stats_agree_except_bytes(lists in random_lists()) {
        let all = stores(&lists);
        let a = all[0].stats();
        prop_assert_eq!(all[0].storage(), LabelStorage::Csr);
        for store in &all {
            let b = store.stats();
            prop_assert_eq!(a.nodes, b.nodes);
            prop_assert_eq!(a.total_entries, b.total_entries);
            prop_assert_eq!(a.max_entries, b.max_entries);
            prop_assert_eq!(a.avg_entries.to_bits(), b.avg_entries.to_bits());
            prop_assert_eq!(
                b.bytes,
                b.offsets_bytes + b.ranks_bytes + b.dists_bytes + b.dict_bytes,
                "{:?} plane breakdown must sum to the total", store.storage()
            );
            // stats_in must report exactly what a really-encoded store
            // reports, from every source backend (the CSR source takes
            // the direct re-encode path, the others the entry-list
            // round-trip).
            for source in &all {
                prop_assert_eq!(
                    source.stats_in(store.storage()),
                    b,
                    "stats_in({:?}) from {:?}",
                    store.storage(),
                    source.storage()
                );
            }
        }
    }
}
