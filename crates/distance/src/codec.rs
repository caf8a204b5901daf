//! Compressed hub-label storage — per-node delta+varint group blocks.
//!
//! The flat CSR [`LabelSet`] spends 4 bytes per
//! entry on a `u32` hub rank even though ranks are strictly ascending
//! within every node's label: the information content of an entry is its
//! *gap* to the previous rank, which on paper-scale graphs is almost
//! always a small integer. [`CompressedLabelSet`] stores each node's rank
//! list as a delta-encoded LEB128 varint stream instead, cutting the rank
//! bytes to ~1–2 per entry while keeping distances as a flat `f64` array
//! (distances are arbitrary weight sums; lossy compression would break the
//! bit-identical query contract).
//!
//! The streams are grouped into **per-node blocks** addressed by a byte
//! offset array, so the structure keeps the CSR's `O(1)` slice addressing:
//! a scatter query jumps straight to node `v`'s `(byte block, dist slice)`
//! pair and decodes it in one forward pass — exactly the pass the query
//! performs anyway. See `crates/distance/src/README.md` for the byte-level
//! format specification and decode invariants.
//!
//! [`LabelStore`] is the runtime storage dispatcher over the full
//! four-way backend matrix (rank plane × distance plane, the latter in
//! [`dict`](crate::dict)): every query surface ([`LabelStore::query`],
//! [`SourceScatter`](crate::scatter::SourceScatter)) evaluates the same
//! sums over the same common hubs in the same ascending rank order for
//! every backend, so results are **bit-identical** across storages —
//! enforced by `tests/proptest_codec.rs` and `tests/proptest_scatter.rs`.

use crate::dict::{CompressedDictLabelSet, DictDecoder, DictEntries, DictLabelSet};
use crate::label::{
    merge_join_entries, LabelEntry, LabelRef, LabelSet, LabelSetBuilder, LabelStats,
};
use crate::plane::Plane;

#[cfg(test)]
use crate::label::merge_join_min;

/// Which physical representation a built index keeps its labels in.
///
/// The storage matrix is two orthogonal axes — the **rank plane** (flat
/// `u32` CSR array vs. delta+varint blocks) × the **distance plane**
/// (flat `f64` array vs. dictionary codes into a sorted value table) —
/// giving four backends. All four answer every query bit-identically;
/// the choice trades memory footprint against per-entry decode work on
/// the query scan. Threaded through `BuildConfig::storage`,
/// `DiscoveryOptions::pll_build`, and `experiments --pll-storage`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum LabelStorage {
    /// Flat CSR arrays: `u32` ranks + `f64` dists ([`LabelSet`]).
    #[default]
    Csr,
    /// Delta+varint rank blocks + flat `f64` dists
    /// ([`CompressedLabelSet`]).
    Compressed,
    /// Flat CSR `u32` ranks + dictionary-coded dists
    /// ([`DictLabelSet`]).
    CsrDict,
    /// Delta+varint rank blocks + dictionary-coded dists
    /// ([`CompressedDictLabelSet`]) — the smallest backend.
    CompressedDict,
}

impl LabelStorage {
    /// Every backend, in CSR-first order — what backend sweeps (benches,
    /// equivalence proptests) iterate. Parallel to [`LabelStorage::NAMES`]
    /// and to the on-disk storage tag of `persist.rs`.
    pub const ALL: [LabelStorage; 4] = [
        LabelStorage::Csr,
        LabelStorage::Compressed,
        LabelStorage::CsrDict,
        LabelStorage::CompressedDict,
    ];

    /// The CLI name of every backend, parallel to [`LabelStorage::ALL`] —
    /// the **single** source the parser ([`LabelStorage::parse`]), the
    /// display name ([`LabelStorage::name`]) and every usage/error string
    /// ([`LabelStorage::usage`]) derive from, so adding a backend cannot
    /// leave a stale CLI list behind.
    pub const NAMES: [&'static str; 4] = ["csr", "compressed", "csr-dict", "compressed-dict"];

    /// Parses a CLI name
    /// (`"csr"` / `"compressed"` / `"csr-dict"` / `"compressed-dict"`).
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

    /// The `|`-joined backend list (`"csr|compressed|…"`) for usage
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

/// The label lists of every node as per-node delta+varint blocks.
///
/// Layout (see the format spec in `crates/distance/src/README.md`):
///
/// * `offsets[v]..offsets[v+1]` — node `v`'s slice of the flat `dists`
///   array (identical addressing to the CSR store);
/// * `byte_offsets[v]..byte_offsets[v+1]` — node `v`'s block of
///   `rank_bytes`, holding one varint gap per entry.
///
/// ```
/// use atd_distance::{CompressedLabelSet, LabelEntry, LabelSet};
/// let lists = vec![
///     vec![
///         LabelEntry { hub_rank: 0, dist: 0.0 },
///         LabelEntry { hub_rank: 700, dist: 2.5 },
///     ],
///     vec![LabelEntry { hub_rank: 3, dist: 1.0 }],
/// ];
/// let csr = LabelSet::from_lists(&lists);
/// let compressed = CompressedLabelSet::from_lists(&lists);
/// // Same entries, same query answers (to the bit).
/// assert_eq!(compressed.decode(0).collect::<Vec<_>>(), lists[0]);
/// assert_eq!(compressed.query(0, 1).to_bits(), csr.query(0, 1).to_bits());
/// ```
///
/// The footprint win appears once labels have realistic lengths (the
/// per-node byte-offset array costs 4 bytes, each entry saves ~2–3): on
/// the shared 2270-node testbed the compressed store is ~25% smaller —
/// 75.5% of the CSR baseline (see `LabelStats::bytes` and the README's
/// index memory table).
#[derive(Clone, Debug, Default)]
pub struct CompressedLabelSet {
    // Planes are borrowed-or-owned (`Plane`); encoders write through
    // `vec_mut()` (copy-on-write), readers through `Deref` slices.
    /// Entry offsets into `dists`; `offsets[v]..offsets[v+1]` is node `v`.
    pub(crate) offsets: Plane<u32>,
    /// Byte offsets into `rank_bytes`; one block per node.
    pub(crate) byte_offsets: Plane<u32>,
    /// Concatenated per-node varint gap streams.
    pub(crate) rank_bytes: Plane<u8>,
    /// All distances, flat and uncompressed, parallel to decode order.
    pub(crate) dists: Plane<f64>,
}

impl CompressedLabelSet {
    /// An empty compressed label set for `n` nodes.
    pub fn new(n: usize) -> Self {
        CompressedLabelSet {
            offsets: vec![0; n + 1].into(),
            byte_offsets: vec![0; n + 1].into(),
            rank_bytes: Plane::new(),
            dists: Plane::new(),
        }
    }

    /// Builds a compressed set from per-node entry lists (each strictly
    /// ascending in hub rank). Convenience for tests and fixtures; the PLL
    /// builder uses [`LabelSetBuilder::finish_compressed`].
    pub fn from_lists(lists: &[Vec<LabelEntry>]) -> Self {
        let total: usize = lists.iter().map(|l| l.len()).sum();
        assert!(total <= u32::MAX as usize, "label store overflow");
        let mut out = CompressedLabelSet {
            offsets: Vec::with_capacity(lists.len() + 1).into(),
            byte_offsets: Vec::with_capacity(lists.len() + 1).into(),
            rank_bytes: Plane::new(),
            dists: Vec::with_capacity(total).into(),
        };
        out.offsets.vec_mut().push(0);
        out.byte_offsets.vec_mut().push(0);
        for list in lists {
            out.encode_node(list.iter().copied());
        }
        out
    }

    /// Re-encodes an existing CSR label set.
    pub fn from_label_set(labels: &LabelSet) -> Self {
        let n = labels.num_nodes();
        let mut out = CompressedLabelSet {
            offsets: Vec::with_capacity(n + 1).into(),
            byte_offsets: Vec::with_capacity(n + 1).into(),
            rank_bytes: Plane::new(),
            dists: Vec::with_capacity(labels.stats().total_entries).into(),
        };
        out.offsets.vec_mut().push(0);
        out.byte_offsets.vec_mut().push(0);
        for v in 0..n {
            out.encode_node(labels.of(v).iter());
        }
        out
    }

    /// Appends one node's label — entries in strictly ascending hub rank —
    /// as the next group block, and seals it. The single write path every
    /// constructor funnels through, so all construction routes produce
    /// byte-identical stores (proptested in `tests/proptest_codec.rs`).
    fn encode_node(&mut self, entries: impl IntoIterator<Item = LabelEntry>) {
        let mut prev = PREV_NONE;
        for e in entries {
            debug_assert!(
                prev == PREV_NONE || prev < e.hub_rank,
                "label entries must ascend strictly in hub rank"
            );
            write_varint(gap(prev, e.hub_rank), self.rank_bytes.vec_mut());
            self.dists.vec_mut().push(e.dist);
            prev = e.hub_rank;
        }
        self.close_block();
    }

    /// Seals the current node's block (records both end offsets).
    fn close_block(&mut self) {
        assert!(
            self.dists.len() <= u32::MAX as usize && self.rank_bytes.len() <= u32::MAX as usize,
            "label store overflow"
        );
        let dists_len = self.dists.len() as u32;
        let bytes_len = self.rank_bytes.len() as u32;
        self.offsets.vec_mut().push(dists_len);
        self.byte_offsets.vec_mut().push(bytes_len);
    }

    /// Number of indexed nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Node `v`'s raw `(varint block, dist slice)` pair — the `O(1)` slice
    /// addressing the per-node grouping preserves.
    #[inline]
    pub(crate) fn block(&self, node: usize) -> (&[u8], &[f64]) {
        let lo = self.offsets[node] as usize;
        let hi = self.offsets[node + 1] as usize;
        let blo = self.byte_offsets[node] as usize;
        let bhi = self.byte_offsets[node + 1] as usize;
        (&self.rank_bytes[blo..bhi], &self.dists[lo..hi])
    }

    /// Decodes node `v`'s label: an iterator of entries in strictly
    /// ascending hub rank — the same sequence the CSR store's
    /// [`LabelRef::iter`](crate::label::LabelRef::iter) yields.
    #[inline]
    pub fn decode(&self, node: usize) -> LabelDecoder<'_> {
        let (bytes, dists) = self.block(node);
        LabelDecoder {
            bytes,
            dists,
            pos: 0,
            next: 0,
            prev: PREV_NONE,
        }
    }

    /// Merge-join query over two decoded streams: minimum
    /// `d(u, hub) + d(hub, v)` over common hubs, `f64::INFINITY` when the
    /// labels share none. Bit-identical to [`LabelSet::query`] — same
    /// sums over the same hubs in the same ascending order.
    pub fn query(&self, u: usize, v: usize) -> f64 {
        merge_join_entries(self.decode(u), self.decode(v))
    }

    /// A copy of this store with the blocks of `dirty` nodes (sorted,
    /// deduplicated indices) re-encoded from their lists in `work`; clean
    /// blocks are copied byte-for-byte. Every dirty block goes through
    /// [`CompressedLabelSet::encode_node`] — the single write path all
    /// constructors use — so the result is byte-identical to a
    /// from-scratch encode of the final lists (`crate::incremental`).
    pub(crate) fn patched(&self, work: &[Vec<LabelEntry>], dirty: &[usize]) -> CompressedLabelSet {
        let n = self.num_nodes();
        debug_assert_eq!(work.len(), n);
        debug_assert!(dirty.windows(2).all(|w| w[0] < w[1]), "dirty must ascend");
        // Patching always emits a fully owned store (even over an
        // mmap-backed one): clean blocks are *copied* byte-for-byte, so
        // the shared mapping is never written through.
        let mut out = CompressedLabelSet {
            offsets: Vec::with_capacity(n + 1).into(),
            byte_offsets: Vec::with_capacity(n + 1).into(),
            rank_bytes: Plane::new(),
            dists: Plane::new(),
        };
        out.offsets.vec_mut().push(0);
        out.byte_offsets.vec_mut().push(0);
        let mut di = 0usize;
        for (v, wv) in work.iter().enumerate() {
            if dirty.get(di) == Some(&v) {
                di += 1;
                out.encode_node(wv.iter().copied());
            } else {
                let (bytes, dists) = self.block(v);
                out.rank_bytes.vec_mut().extend_from_slice(bytes);
                out.dists.vec_mut().extend_from_slice(dists);
                out.close_block();
            }
        }
        out
    }

    /// True when any plane borrows from a mapped index file.
    pub(crate) fn is_zero_copy(&self) -> bool {
        self.offsets.is_mapped()
            || self.byte_offsets.is_mapped()
            || self.rank_bytes.is_mapped()
            || self.dists.is_mapped()
    }

    /// Computes summary statistics. `bytes` counts all four arrays —
    /// the figure to compare against the CSR baseline.
    pub fn stats(&self) -> LabelStats {
        let nodes = self.num_nodes();
        let max_entries = (0..nodes)
            .map(|v| (self.offsets[v + 1] - self.offsets[v]) as usize)
            .max()
            .unwrap_or(0);
        LabelStats::from_parts(
            nodes,
            self.dists.len(),
            max_entries,
            std::mem::size_of::<u32>() * (self.offsets.len() + self.byte_offsets.len()),
            self.rank_bytes.len(),
            std::mem::size_of::<f64>() * self.dists.len(),
            0,
            0,
        )
    }
}

/// The gap the encoder stores for `rank` after `prev` (`PREV_NONE` before
/// the first entry): `rank - prev - 1` in wrapping arithmetic, so the
/// first entry stores its absolute rank and every later one its strict
/// gap minus one.
#[inline]
pub(crate) fn gap(prev: u32, rank: u32) -> u32 {
    rank.wrapping_sub(prev).wrapping_sub(1)
}

/// Streaming decoder over one node's compressed block (strictly ascending
/// hub rank, same order as the CSR slice walk).
#[derive(Clone, Debug)]
pub struct LabelDecoder<'a> {
    bytes: &'a [u8],
    dists: &'a [f64],
    /// Read cursor into `bytes`.
    pos: usize,
    /// Next entry index (parallel cursor into `dists`).
    next: usize,
    /// Previously decoded rank (`PREV_NONE` before the first entry).
    prev: u32,
}

impl Iterator for LabelDecoder<'_> {
    type Item = LabelEntry;

    #[inline]
    fn next(&mut self) -> Option<LabelEntry> {
        let dist = *self.dists.get(self.next)?;
        let delta = read_varint(self.bytes, &mut self.pos);
        let rank = self.prev.wrapping_add(delta).wrapping_add(1);
        self.prev = rank;
        self.next += 1;
        Some(LabelEntry {
            hub_rank: rank,
            dist,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.dists.len() - self.next;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for LabelDecoder<'_> {}

/// A built label index in whichever physical storage the build selected.
///
/// All query surfaces dispatch on the variant once per call and then run
/// a storage-specialized loop; both backends produce bit-identical
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
    /// Delta+varint per-node blocks, flat dists.
    Compressed(CompressedLabelSet),
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

impl From<CompressedLabelSet> for LabelStore {
    fn from(labels: CompressedLabelSet) -> Self {
        LabelStore::Compressed(labels)
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
            LabelStore::Compressed(_) => LabelStorage::Compressed,
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
            LabelStore::Compressed(l) => l.num_nodes(),
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
                LabelStore::Compressed(l) => EntriesInner::Compressed(l.decode(node)),
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
            LabelStore::Compressed(l) => l.query(u, v),
            LabelStore::CsrDict(l) => l.query(u, v),
            LabelStore::CompressedDict(l) => l.query(u, v),
        }
    }

    /// Summary statistics; `bytes` reflects the active backend's real
    /// footprint, broken into planes by the `*_bytes` fields.
    pub fn stats(&self) -> LabelStats {
        match self {
            LabelStore::Csr(l) => l.stats(),
            LabelStore::Compressed(l) => l.stats(),
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
                LabelStorage::Compressed => CompressedLabelSet::from_label_set(l).stats(),
                LabelStorage::CsrDict => DictLabelSet::from_label_set(l).stats(),
                LabelStorage::CompressedDict => CompressedDictLabelSet::from_label_set(l).stats(),
            };
        }
        let lists: Vec<Vec<LabelEntry>> = (0..self.num_nodes())
            .map(|v| self.entries(v).collect())
            .collect();
        match storage {
            LabelStorage::Csr => LabelSet::from_lists(&lists).stats(),
            LabelStorage::Compressed => CompressedLabelSet::from_lists(&lists).stats(),
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
            LabelStore::Compressed(l) => l.is_zero_copy(),
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
    Compressed(LabelDecoder<'a>),
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
            EntriesInner::Compressed(d) => d.next(),
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
            EntriesInner::Compressed(d) => d.size_hint(),
            EntriesInner::CsrDict(d) => d.size_hint(),
            EntriesInner::CompressedDict(d) => d.size_hint(),
        }
    }
}

impl ExactSizeIterator for LabelEntries<'_> {}

impl LabelSetBuilder {
    /// Converts the journaled labels straight to the compressed store —
    /// the uncompressed CSR arrays are **never materialized**. `O(nodes +
    /// entries)` time; the only scratch is one reversal buffer bounded by
    /// the largest single label (the builder's chains are newest-first,
    /// the encoder needs ascending order).
    pub fn finish_compressed(self) -> CompressedLabelSet {
        let n = self.num_nodes();
        let total = self.total_entries();
        let mut out = CompressedLabelSet {
            offsets: Vec::with_capacity(n + 1).into(),
            byte_offsets: Vec::with_capacity(n + 1).into(),
            rank_bytes: Plane::new(),
            dists: Vec::with_capacity(total).into(),
        };
        out.offsets.vec_mut().push(0);
        out.byte_offsets.vec_mut().push(0);
        let mut scratch: Vec<LabelEntry> = Vec::new();
        for v in 0..n {
            scratch.clear();
            scratch.extend(self.entries(v)); // newest first = descending
            out.encode_node(scratch.iter().rev().copied());
        }
        out
    }
}

/// Two-stream compressed merge-join used by tests to cross-check
/// [`CompressedLabelSet::query`] against the slice-level
/// [`merge_join_min`]; kept here so the codec module owns both sides of
/// the equivalence.
#[cfg(test)]
fn reference_query(csr: &LabelSet, u: usize, v: usize) -> f64 {
    let (a, b) = (csr.of(u), csr.of(v));
    merge_join_min(a.hub_ranks, a.dists, b.hub_ranks, b.dists)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(hub_rank: u32, dist: f64) -> LabelEntry {
        LabelEntry { hub_rank, dist }
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
        let c = CompressedLabelSet::from_lists(&lists);
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
        let c = CompressedLabelSet::from_lists(&[vec![e(5, 1.0), e(6, 2.0)]]);
        let (bytes, dists) = c.block(0);
        assert_eq!(bytes, &[5u8, 0u8], "gap-minus-one encoding");
        assert_eq!(dists.len(), 2);
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
        let c = CompressedLabelSet::from_lists(&lists);
        for u in 0..lists.len() {
            for v in 0..lists.len() {
                assert_eq!(
                    c.query(u, v).to_bits(),
                    reference_query(&csr, u, v).to_bits(),
                    "({u},{v})"
                );
            }
        }
    }

    #[test]
    fn stats_count_real_bytes() {
        let lists = vec![vec![e(0, 0.0)], vec![e(0, 1.0), e(1, 0.0)], vec![]];
        let c = CompressedLabelSet::from_lists(&lists);
        let s = c.stats();
        assert_eq!(s.nodes, 3);
        assert_eq!(s.total_entries, 3);
        assert_eq!(s.max_entries, 2);
        // 2×4 offset arrays of 4 u32s, 3 one-byte varints, 3 f64 dists.
        assert_eq!(s.bytes, 2 * 4 * 4 + 3 + 3 * 8);
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
        let csr = LabelSet::from_lists(&lists).stats();
        let comp = CompressedLabelSet::from_lists(&lists).stats();
        assert_eq!(csr.total_entries, comp.total_entries);
        assert!(
            comp.bytes < csr.bytes,
            "compressed {} !< csr {}",
            comp.bytes,
            csr.bytes
        );
    }

    #[test]
    fn builder_finish_compressed_matches_from_lists() {
        let lists = vec![
            vec![e(0, 0.25), e(3, 1.5), e(7, 2.0)],
            vec![],
            vec![e(1, 0.5), e(2, 4.0)],
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
        let c = b.finish_compressed();
        let reference = CompressedLabelSet::from_lists(&lists);
        for v in 0..3 {
            let got: Vec<LabelEntry> = c.decode(v).collect();
            let want: Vec<LabelEntry> = reference.decode(v).collect();
            assert_eq!(got, want, "node {v}");
        }
        assert_eq!(c.stats(), reference.stats());
    }

    #[test]
    fn from_label_set_roundtrips() {
        let lists = vec![vec![e(2, 1.0), e(5, 0.5), e(130, 3.0)], vec![e(0, 0.0)]];
        let csr = LabelSet::from_lists(&lists);
        let c = CompressedLabelSet::from_label_set(&csr);
        for (v, list) in lists.iter().enumerate() {
            let got: Vec<LabelEntry> = c.decode(v).collect();
            assert_eq!(&got, list);
        }
    }

    #[test]
    fn store_dispatch_agrees() {
        let lists = vec![vec![e(0, 1.0), e(2, 0.5)], vec![e(0, 2.0)], vec![]];
        let csr = LabelStore::from(LabelSet::from_lists(&lists));
        let comp = LabelStore::from(CompressedLabelSet::from_lists(&lists));
        assert_eq!(csr.storage(), LabelStorage::Csr);
        assert_eq!(comp.storage(), LabelStorage::Compressed);
        assert!(csr.as_csr().is_some());
        assert!(comp.as_csr().is_none());
        assert_eq!(csr.num_nodes(), comp.num_nodes());
        for u in 0..3 {
            let a: Vec<LabelEntry> = csr.entries(u).collect();
            let b: Vec<LabelEntry> = comp.entries(u).collect();
            assert_eq!(a, b, "entries of {u}");
            for v in 0..3 {
                assert_eq!(csr.query(u, v).to_bits(), comp.query(u, v).to_bits());
            }
        }
        assert_eq!(csr.stats().total_entries, comp.stats().total_entries);
    }

    #[test]
    fn empty_store_is_consistent() {
        let c = CompressedLabelSet::new(2);
        assert_eq!(c.num_nodes(), 2);
        assert_eq!(c.decode(0).count(), 0);
        assert_eq!(c.query(0, 1), f64::INFINITY);
        assert_eq!(c.stats().total_entries, 0);
    }

    #[test]
    fn storage_parse() {
        assert_eq!(LabelStorage::parse("csr"), Some(LabelStorage::Csr));
        assert_eq!(
            LabelStorage::parse("compressed"),
            Some(LabelStorage::Compressed)
        );
        assert_eq!(LabelStorage::parse("flat"), None);
        assert_eq!(LabelStorage::default(), LabelStorage::Csr);
    }
}
