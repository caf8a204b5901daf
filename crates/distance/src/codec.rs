//! Label storage backends and the shared delta+varint block codec.
//!
//! [`LabelStorage`] names the three physical representations a built
//! index can keep its labels in, and [`LabelStore`] is the runtime
//! dispatcher over them: every query surface ([`LabelStore::query`],
//! [`SourceScatter`](crate::scatter::SourceScatter)) evaluates the same
//! sums over the same common hubs in the same ascending rank order for
//! every backend, so results are **bit-identical** across storages —
//! enforced by `tests/proptest_codec.rs` and `tests/proptest_scatter.rs`.
//!
//! The module also owns the rank-plane codec of
//! [`CompressedDictLabelSet`]: hub ranks ascend strictly within every
//! node's label, so the information content of an entry is its *gap* to
//! the previous rank, which on paper-scale graphs is almost always a
//! small integer. Each node's rank list is stored as one delta-encoded
//! LEB128 varint block (`write_varint`, `gap`, `PREV_NONE`),
//! cutting the rank bytes to ~1–2 per entry. See
//! `crates/distance/src/README.md` for the byte-level format
//! specification and decode invariants.

use crate::dict::{CompressedDictLabelSet, DictDecoder, DictEntries, DictLabelSet};
use crate::label::{LabelEntry, LabelRef, LabelSet, LabelStats};

/// Which physical representation a built index keeps its labels in.
///
/// The storage matrix has two axes — the **rank plane** (flat `u32` CSR
/// array vs. delta+varint blocks) × the **distance plane** (flat `f64`
/// array vs. dictionary codes into a sorted value table) — of which
/// three combinations are backends (varint ranks with flat distances is
/// dominated by [`LabelStorage::CsrDict`] on memory, scan time and load
/// time, so it is not offered). All three answer every query bit-identically; the
/// choice trades memory footprint against per-entry decode work on the
/// query scan. Threaded through `BuildConfig::storage`,
/// `DiscoveryOptions::pll_build`, and `experiments --pll-storage`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum LabelStorage {
    /// Flat CSR arrays: `u32` ranks + `f64` dists ([`LabelSet`]).
    #[default]
    Csr,
    /// Flat CSR `u32` ranks + dictionary-coded dists
    /// ([`DictLabelSet`]).
    CsrDict,
    /// Delta+varint rank blocks + dictionary-coded dists
    /// ([`CompressedDictLabelSet`]) — the smallest backend.
    CompressedDict,
}

impl LabelStorage {
    /// Every backend, in CSR-first order — what backend sweeps (benches,
    /// equivalence proptests) iterate. Parallel to [`LabelStorage::NAMES`].
    pub const ALL: [LabelStorage; 3] = [
        LabelStorage::Csr,
        LabelStorage::CsrDict,
        LabelStorage::CompressedDict,
    ];

    /// The CLI name of every backend, parallel to [`LabelStorage::ALL`] —
    /// the **single** source the parser ([`LabelStorage::parse`]), the
    /// display name ([`LabelStorage::name`]) and every usage/error string
    /// ([`LabelStorage::usage`]) derive from, so adding a backend cannot
    /// leave a stale CLI list behind.
    pub const NAMES: [&'static str; 3] = ["csr", "csr-dict", "compressed-dict"];

    /// Parses a CLI name
    /// (`"csr"` / `"csr-dict"` / `"compressed-dict"`).
    ///
    /// ```
    /// use atd_distance::LabelStorage;
    /// assert_eq!(LabelStorage::parse("csr"), Some(LabelStorage::Csr));
    /// assert_eq!(
    ///     LabelStorage::parse("compressed-dict"),
    ///     Some(LabelStorage::CompressedDict)
    /// );
    /// assert_eq!(LabelStorage::parse("zstd"), None);
    /// for s in LabelStorage::ALL {
    ///     assert_eq!(LabelStorage::parse(s.name()), Some(s));
    /// }
    /// ```
    pub fn parse(s: &str) -> Option<LabelStorage> {
        LabelStorage::ALL.into_iter().find(|b| b.name() == s)
    }

    /// The CLI name [`LabelStorage::parse`] accepts for this backend.
    pub fn name(self) -> &'static str {
        LabelStorage::NAMES[self as usize]
    }

    /// The `|`-joined backend list (`"csr|csr-dict|compressed-dict"`) for usage
    /// strings and unknown-name error messages.
    ///
    /// ```
    /// use atd_distance::LabelStorage;
    /// assert_eq!(LabelStorage::usage(), LabelStorage::NAMES.join("|"));
    /// ```
    pub fn usage() -> String {
        LabelStorage::NAMES.join("|")
    }
}

/// Appends `value` to `out` as an LEB128 varint (7 payload bits per byte,
/// high bit = continuation; 1 byte for values < 128, at most 5 for `u32`).
#[inline]
pub(crate) fn write_varint(mut value: u32, out: &mut Vec<u8>) {
    while value >= 0x80 {
        out.push((value as u8 & 0x7f) | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

/// Why a fallible varint decode rejected its input.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum VarintError {
    /// The stream ended inside a varint (a continuation byte was the last
    /// byte, or the slice was empty).
    Truncated,
    /// The encoding does not fit a `u32`: more than five bytes, or payload
    /// bits above bit 31 in the fifth byte. [`write_varint`] never
    /// produces such a stream, so this always means corruption.
    Overflow,
}

/// Fallible LEB128 decode for **untrusted** bytes, advancing `*pos` only
/// on success.
///
/// The unchecked [`read_varint`] is the hot-path form and assumes a
/// well-formed block: on truncated input it panics with an opaque
/// index-out-of-bounds, and on malformed continuation bytes its shift
/// marches past 31, corrupting the decoded value. Load-time validation
/// (`persist.rs`) therefore runs **this** decoder over every block first;
/// the query path keeps the unchecked form, now provably fed only
/// validated streams.
#[inline]
pub(crate) fn try_read_varint(bytes: &[u8], pos: &mut usize) -> Result<u32, VarintError> {
    let mut value = 0u32;
    let mut shift = 0u32;
    let mut cur = *pos;
    loop {
        let &b = bytes.get(cur).ok_or(VarintError::Truncated)?;
        cur += 1;
        let payload = (b & 0x7f) as u32;
        // The fifth byte may only carry u32 bits 28..=31.
        if shift == 28 && payload > 0x0f {
            return Err(VarintError::Overflow);
        }
        value |= payload << shift;
        if b < 0x80 {
            *pos = cur;
            return Ok(value);
        }
        shift += 7;
        if shift > 28 {
            return Err(VarintError::Overflow);
        }
    }
}

/// Reads one LEB128 varint from `bytes` at `*pos`, advancing `*pos`.
///
/// Decode invariant: callers only invoke this with `*pos` inside a
/// well-formed block (the encoder wrote exactly one varint per entry, and
/// loaded blocks are pre-validated with [`try_read_varint`]), so the
/// slice index cannot go out of bounds for in-contract inputs.
#[inline]
pub(crate) fn read_varint(bytes: &[u8], pos: &mut usize) -> u32 {
    let b = bytes[*pos];
    *pos += 1;
    if b < 0x80 {
        return b as u32;
    }
    let mut value = (b & 0x7f) as u32;
    let mut shift = 7;
    loop {
        let b = bytes[*pos];
        *pos += 1;
        value |= ((b & 0x7f) as u32) << shift;
        if b < 0x80 {
            return value;
        }
        shift += 7;
    }
}

/// The sentinel "previous rank" before a block's first entry: the encoder
/// and decoder both start from `rank_{-1} = -1` (as a wrapping `u32`), so
/// every entry — including the first — stores `rank_i - rank_{i-1} - 1`
/// and the decode loop needs no first-entry branch.
pub(crate) const PREV_NONE: u32 = u32::MAX;

/// The gap the encoder stores for `rank` after `prev` (`PREV_NONE` before
/// the first entry): `rank - prev - 1` in wrapping arithmetic, so the
/// first entry stores its absolute rank and every later one its strict
/// gap minus one.
#[inline]
pub(crate) fn gap(prev: u32, rank: u32) -> u32 {
    rank.wrapping_sub(prev).wrapping_sub(1)
}

/// A built label index in whichever physical storage the build selected.
///
/// All query surfaces dispatch on the variant once per call and then run
/// a storage-specialized loop; every backend produces bit-identical
/// results (same sums over the same common hubs in the same order).
///
/// ```
/// use atd_distance::{LabelEntry, LabelSet, LabelStorage, LabelStore};
/// let csr = LabelSet::from_lists(&[
///     vec![LabelEntry { hub_rank: 0, dist: 0.0 }],
///     vec![LabelEntry { hub_rank: 0, dist: 2.0 }],
/// ]);
/// let store = LabelStore::from(csr);
/// assert_eq!(store.storage(), LabelStorage::Csr);
/// assert_eq!(store.query(0, 1), 2.0);
/// ```
#[derive(Clone, Debug)]
pub enum LabelStore {
    /// Flat CSR arrays.
    Csr(LabelSet),
    /// Flat CSR ranks, dictionary-coded dists.
    CsrDict(DictLabelSet),
    /// Delta+varint rank blocks, dictionary-coded dists.
    CompressedDict(CompressedDictLabelSet),
}

impl From<LabelSet> for LabelStore {
    fn from(labels: LabelSet) -> Self {
        LabelStore::Csr(labels)
    }
}

impl From<DictLabelSet> for LabelStore {
    fn from(labels: DictLabelSet) -> Self {
        LabelStore::CsrDict(labels)
    }
}

impl From<CompressedDictLabelSet> for LabelStore {
    fn from(labels: CompressedDictLabelSet) -> Self {
        LabelStore::CompressedDict(labels)
    }
}

impl LabelStore {
    /// Which storage backend this store uses.
    #[inline]
    pub fn storage(&self) -> LabelStorage {
        match self {
            LabelStore::Csr(_) => LabelStorage::Csr,
            LabelStore::CsrDict(_) => LabelStorage::CsrDict,
            LabelStore::CompressedDict(_) => LabelStorage::CompressedDict,
        }
    }

    /// The CSR label set, when that is the active backend (diagnostics
    /// and slice-level tests).
    #[inline]
    pub fn as_csr(&self) -> Option<&LabelSet> {
        match self {
            LabelStore::Csr(l) => Some(l),
            _ => None,
        }
    }

    /// Number of indexed nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        match self {
            LabelStore::Csr(l) => l.num_nodes(),
            LabelStore::CsrDict(l) => l.num_nodes(),
            LabelStore::CompressedDict(l) => l.num_nodes(),
        }
    }

    /// Node `v`'s label entries in ascending hub rank, independent of
    /// backend.
    #[inline]
    pub fn entries(&self, node: usize) -> LabelEntries<'_> {
        LabelEntries {
            inner: match self {
                LabelStore::Csr(l) => EntriesInner::Csr {
                    label: l.of(node),
                    next: 0,
                },
                LabelStore::CsrDict(l) => EntriesInner::CsrDict(l.entries(node)),
                LabelStore::CompressedDict(l) => EntriesInner::CompressedDict(l.decode(node)),
            },
        }
    }

    /// Pairwise merge-join query; bit-identical across backends.
    #[inline]
    pub fn query(&self, u: usize, v: usize) -> f64 {
        match self {
            LabelStore::Csr(l) => l.query(u, v),
            LabelStore::CsrDict(l) => l.query(u, v),
            LabelStore::CompressedDict(l) => l.query(u, v),
        }
    }

    /// Summary statistics; `bytes` reflects the active backend's real
    /// footprint, broken into planes by the `*_bytes` fields.
    pub fn stats(&self) -> LabelStats {
        match self {
            LabelStore::Csr(l) => l.stats(),
            LabelStore::CsrDict(l) => l.stats(),
            LabelStore::CompressedDict(l) => l.stats(),
        }
    }

    /// Statistics of these labels re-encoded in `storage`, without
    /// rebuilding the index — the footprint-comparison diagnostic the
    /// benches and examples report. Returns [`LabelStore::stats`] when
    /// `storage` is already the active backend; otherwise re-encodes on
    /// the fly (cheap from CSR, via an entry-list round-trip from the
    /// other backends — a diagnostic path, not a serving path).
    pub fn stats_in(&self, storage: LabelStorage) -> LabelStats {
        if storage == self.storage() {
            return self.stats();
        }
        if let LabelStore::Csr(l) = self {
            return match storage {
                LabelStorage::Csr => unreachable!("handled by the equal-storage case"),
                LabelStorage::CsrDict => DictLabelSet::from_label_set(l).stats(),
                LabelStorage::CompressedDict => CompressedDictLabelSet::from_label_set(l).stats(),
            };
        }
        let lists: Vec<Vec<LabelEntry>> = (0..self.num_nodes())
            .map(|v| self.entries(v).collect())
            .collect();
        match storage {
            LabelStorage::Csr => LabelSet::from_lists(&lists).stats(),
            LabelStorage::CsrDict => DictLabelSet::from_lists(&lists).stats(),
            LabelStorage::CompressedDict => CompressedDictLabelSet::from_lists(&lists).stats(),
        }
    }

    /// True when any plane of the active backend borrows from a mapped
    /// index file (the store came through
    /// [`LabelStore::load_mmap`](crate::persist) and its planes alias the
    /// page cache). A store loaded from a heap copy of the file
    /// ([`LabelStore::load_from`](crate::persist)) also borrows its
    /// planes, but reports `false`: it owns a private copy of the bytes.
    pub fn is_zero_copy(&self) -> bool {
        match self {
            LabelStore::Csr(l) => l.is_zero_copy(),
            LabelStore::CsrDict(l) => l.is_zero_copy(),
            LabelStore::CompressedDict(l) => l.is_zero_copy(),
        }
    }
}

/// Backend-independent iterator over one node's label entries (ascending
/// hub rank), yielded by [`LabelStore::entries`].
pub struct LabelEntries<'a> {
    inner: EntriesInner<'a>,
}

enum EntriesInner<'a> {
    Csr { label: LabelRef<'a>, next: usize },
    CsrDict(DictEntries<'a>),
    CompressedDict(DictDecoder<'a>),
}

impl Iterator for LabelEntries<'_> {
    type Item = LabelEntry;

    #[inline]
    fn next(&mut self) -> Option<LabelEntry> {
        match &mut self.inner {
            EntriesInner::Csr { label, next } => {
                let rank = *label.hub_ranks.get(*next)?;
                let dist = label.dists[*next];
                *next += 1;
                Some(LabelEntry {
                    hub_rank: rank,
                    dist,
                })
            }
            EntriesInner::CsrDict(d) => d.next(),
            EntriesInner::CompressedDict(d) => d.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.inner {
            EntriesInner::Csr { label, next } => {
                let rem = label.len() - next;
                (rem, Some(rem))
            }
            EntriesInner::CsrDict(d) => d.size_hint(),
            EntriesInner::CompressedDict(d) => d.size_hint(),
        }
    }
}

impl ExactSizeIterator for LabelEntries<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::{merge_join_min, LabelSetBuilder};

    fn e(hub_rank: u32, dist: f64) -> LabelEntry {
        LabelEntry { hub_rank, dist }
    }

    /// Every backend's store over the same lists.
    fn stores(lists: &[Vec<LabelEntry>]) -> [LabelStore; 3] {
        [
            LabelStore::from(LabelSet::from_lists(lists)),
            LabelStore::from(DictLabelSet::from_lists(lists)),
            LabelStore::from(CompressedDictLabelSet::from_lists(lists)),
        ]
    }

    /// The slice-level merge-join every backend's query must match.
    fn reference_query(csr: &LabelSet, u: usize, v: usize) -> f64 {
        let (a, b) = (csr.of(u), csr.of(v));
        merge_join_min(a.hub_ranks, a.dists, b.hub_ranks, b.dists)
    }

    #[test]
    fn varint_roundtrips_boundaries() {
        let mut buf = Vec::new();
        let values = [0u32, 1, 127, 128, 129, 16383, 16384, 1 << 21, u32::MAX];
        for &v in &values {
            write_varint(v, &mut buf);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(read_varint(&buf, &mut pos), v);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn try_read_varint_accepts_everything_the_encoder_writes() {
        let mut buf = Vec::new();
        let values = [0u32, 1, 127, 128, 129, 16383, 16384, 1 << 21, u32::MAX];
        for &v in &values {
            write_varint(v, &mut buf);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(try_read_varint(&buf, &mut pos), Ok(v));
        }
        assert_eq!(pos, buf.len());
        assert_eq!(try_read_varint(&buf, &mut pos), Err(VarintError::Truncated));
    }

    #[test]
    fn try_read_varint_rejects_truncation_without_advancing() {
        let mut buf = Vec::new();
        write_varint(u32::MAX, &mut buf);
        for cut in 0..buf.len() {
            let mut pos = 0;
            assert_eq!(
                try_read_varint(&buf[..cut], &mut pos),
                Err(VarintError::Truncated),
                "cut at {cut}"
            );
            assert_eq!(pos, 0, "cursor must not move on failure");
        }
    }

    #[test]
    fn try_read_varint_rejects_overflowing_continuations() {
        // Six continuation bytes: the unchecked decoder would shift past 31.
        let runaway = [0x80u8, 0x80, 0x80, 0x80, 0x80, 0x01];
        let mut pos = 0;
        assert_eq!(
            try_read_varint(&runaway, &mut pos),
            Err(VarintError::Overflow)
        );
        // Five bytes whose fifth carries payload above u32 bit 31.
        let wide = [0xffu8, 0xff, 0xff, 0xff, 0x10];
        let mut pos = 0;
        assert_eq!(try_read_varint(&wide, &mut pos), Err(VarintError::Overflow));
        // The widest legal five-byte value is exactly u32::MAX.
        let max = [0xffu8, 0xff, 0xff, 0xff, 0x0f];
        let mut pos = 0;
        assert_eq!(try_read_varint(&max, &mut pos), Ok(u32::MAX));
    }

    #[test]
    fn varint_width_matches_spec() {
        for (v, width) in [(0u32, 1usize), (127, 1), (128, 2), (16383, 2), (16384, 3)] {
            let mut buf = Vec::new();
            write_varint(v, &mut buf);
            assert_eq!(buf.len(), width, "width of {v}");
        }
        let mut buf = Vec::new();
        write_varint(u32::MAX, &mut buf);
        assert_eq!(buf.len(), 5, "u32::MAX takes the maximum 5 bytes");
    }

    #[test]
    fn decode_matches_lists() {
        let lists = vec![
            vec![e(0, 0.25), e(1, 1.5), e(7, 2.0), e(700_000, 9.0)],
            vec![],
            vec![e(3, 0.5), e(4, 4.0)],
        ];
        let c = CompressedDictLabelSet::from_lists(&lists);
        assert_eq!(c.num_nodes(), 3);
        for (v, list) in lists.iter().enumerate() {
            let decoded: Vec<LabelEntry> = c.decode(v).collect();
            assert_eq!(&decoded, list, "node {v}");
            assert_eq!(c.decode(v).len(), list.len());
        }
    }

    #[test]
    fn first_entry_stores_absolute_rank() {
        // rank 0 encodes as gap 0 (prev = -1); rank 5 first encodes as 5.
        let c = CompressedDictLabelSet::from_lists(&[vec![e(5, 1.0), e(6, 2.0)]]);
        let (bytes, lo, hi) = c.block(0);
        assert_eq!(bytes, &[5u8, 0u8], "gap-minus-one encoding");
        assert_eq!(hi - lo, 2);
    }

    #[test]
    fn query_matches_csr_bitwise() {
        let lists = vec![
            vec![e(0, 1.0), e(2, 0.5)],
            vec![e(0, 2.0), e(2, 5.0)],
            vec![e(9, 0.0)],
            vec![],
        ];
        let csr = LabelSet::from_lists(&lists);
        for store in stores(&lists) {
            for u in 0..lists.len() {
                for v in 0..lists.len() {
                    assert_eq!(
                        store.query(u, v).to_bits(),
                        reference_query(&csr, u, v).to_bits(),
                        "{:?} ({u},{v})",
                        store.storage()
                    );
                }
            }
        }
    }

    #[test]
    fn stats_count_real_bytes() {
        let lists = vec![vec![e(0, 0.0)], vec![e(0, 1.0), e(1, 0.0)], vec![]];
        let c = CompressedDictLabelSet::from_lists(&lists);
        let s = c.stats();
        assert_eq!(s.nodes, 3);
        assert_eq!(s.total_entries, 3);
        assert_eq!(s.max_entries, 2);
        // 2×4 offset arrays of 4 u32s, 3 one-byte varints, 3 u8 codes,
        // a 2-value f64 table.
        assert_eq!(s.bytes, 2 * 4 * 4 + 3 + 3 + 2 * 8);
        // `stats_in` reports what a real re-encode would, from any backend.
        for from in stores(&lists) {
            for to in stores(&lists) {
                assert_eq!(from.stats_in(to.storage()), to.stats());
            }
        }
    }

    #[test]
    fn compression_beats_csr_once_labels_are_realistic() {
        // The second offset array costs 4 bytes per node, the varint
        // stream saves ~3 bytes per entry — compression wins as soon as
        // labels average more than a couple of entries (PLL labels on the
        // testbeds average 50–115).
        let lists: Vec<Vec<LabelEntry>> = (0..8)
            .map(|v| {
                (0..40)
                    .map(|i| e(v + i * 3, 0.5 * i as f64))
                    .collect::<Vec<_>>()
            })
            .collect();
        let flat = DictLabelSet::from_lists(&lists).stats();
        let comp = CompressedDictLabelSet::from_lists(&lists).stats();
        assert_eq!(flat.total_entries, comp.total_entries);
        assert!(
            comp.offsets_bytes + comp.ranks_bytes < flat.offsets_bytes + flat.ranks_bytes,
            "varint rank plane {comp:?} !< flat u32 ranks {flat:?}"
        );
        assert!(comp.bytes < flat.bytes);
    }

    #[test]
    fn builder_finish_compressed_matches_from_lists() {
        // The builder's finish writes the same varint blocks, byte for
        // byte, as the list and CSR encoders.
        let lists = vec![
            vec![e(0, 0.25), e(3, 1.5), e(7, 2.0)],
            vec![],
            vec![e(1, 0.5), e(2, 4.0), e(300, 1.0)],
        ];
        let mut b = LabelSetBuilder::new(3);
        let mut flat: Vec<(usize, LabelEntry)> = Vec::new();
        for (v, l) in lists.iter().enumerate() {
            for &entry in l {
                flat.push((v, entry));
            }
        }
        flat.sort_by_key(|&(_, entry)| entry.hub_rank);
        for (v, entry) in flat {
            b.push(v, entry);
        }
        let c = b.finish_compressed_dict();
        let reference = CompressedDictLabelSet::from_lists(&lists);
        assert_eq!(&c.rank_bytes[..], &reference.rank_bytes[..]);
        assert_eq!(&c.byte_offsets[..], &reference.byte_offsets[..]);
        assert_eq!(&c.offsets[..], &reference.offsets[..]);
        for (v, want) in lists.iter().enumerate() {
            let got: Vec<LabelEntry> = c.decode(v).collect();
            assert_eq!(&got, want, "node {v}");
        }
    }

    #[test]
    fn from_label_set_roundtrips() {
        // Gaps of 2, 3 and 125 (one byte) and an absolute 130 (two bytes).
        let lists = vec![vec![e(2, 1.0), e(5, 0.5), e(130, 3.0)], vec![e(130, 0.0)]];
        let csr = LabelSet::from_lists(&lists);
        let c = CompressedDictLabelSet::from_label_set(&csr);
        assert_eq!(c.block(0).0.len(), 3);
        assert_eq!(c.block(1).0.len(), 2);
        for (v, list) in lists.iter().enumerate() {
            let got: Vec<LabelEntry> = c.decode(v).collect();
            assert_eq!(&got, list);
        }
    }

    #[test]
    fn store_dispatch_agrees() {
        let lists = vec![vec![e(0, 1.0), e(2, 0.5)], vec![e(0, 2.0)], vec![]];
        let [csr, _, comp] = stores(&lists);
        assert_eq!(csr.storage(), LabelStorage::Csr);
        assert_eq!(comp.storage(), LabelStorage::CompressedDict);
        assert!(csr.as_csr().is_some());
        assert!(comp.as_csr().is_none());
        assert_eq!(csr.num_nodes(), comp.num_nodes());
        for u in 0..3 {
            let a: Vec<LabelEntry> = csr.entries(u).collect();
            let b: Vec<LabelEntry> = comp.entries(u).collect();
            assert_eq!(a, b, "entries of {u}");
            assert_eq!(comp.entries(u).len(), a.len());
            for v in 0..3 {
                assert_eq!(csr.query(u, v).to_bits(), comp.query(u, v).to_bits());
            }
        }
        assert_eq!(csr.stats().total_entries, comp.stats().total_entries);
    }

    #[test]
    fn empty_store_is_consistent() {
        for store in stores(&[vec![], vec![]]) {
            assert_eq!(store.num_nodes(), 2);
            assert_eq!(store.entries(0).count(), 0);
            assert_eq!(store.query(0, 1), f64::INFINITY);
            assert_eq!(store.stats().total_entries, 0);
        }
    }

    #[test]
    fn storage_parse() {
        assert_eq!(LabelStorage::parse("csr"), Some(LabelStorage::Csr));
        assert_eq!(
            LabelStorage::parse("compressed-dict"),
            Some(LabelStorage::CompressedDict)
        );
        assert_eq!(LabelStorage::parse("compressed"), None);
        assert_eq!(LabelStorage::parse("flat"), None);
        assert_eq!(LabelStorage::default(), LabelStorage::Csr);
        assert_eq!(LabelStorage::usage(), "csr|csr-dict|compressed-dict");
    }
}
