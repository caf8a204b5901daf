//! Dictionary-encoded distance planes — per-index `f64` value tables
//! with narrow integer codes.
//!
//! Varint rank blocks shrink the *rank* side of the label store; the flat
//! `f64` distance array then dominates the footprint (8 of ~9.3 bytes per entry
//! on the 2270-node testbed). But distances in this system are sums of
//! normalized Jaccard edge weights over shortest paths, so the value
//! universe is small and heavily repeated: ~50K distinct values across
//! 260K entries at the 3000-author scale, and the ratio keeps falling as
//! the graph grows. [`DistDict`] exploits that: the index's distinct
//! distance values go into one sorted table, and every label entry stores
//! a narrow integer *code* (`u8`/`u16`/`u32`, the narrowest width that
//! fits the table) instead of the raw 8-byte float.
//!
//! Decoding is **bit-exact by construction**: a decoded distance is the
//! identical `f64` bit pattern that went into the table (the table stores
//! the values themselves, deduplicated by bit pattern), so every query
//! sums literally the same floats as the flat backends and the
//! crate-wide bit-identical contract holds unchanged — enforced across
//! backends by `tests/proptest_codec.rs`, `tests/proptest_scatter.rs`,
//! and the greedy engine tests.
//!
//! The plane is orthogonal to the rank encoding: [`DictLabelSet`] pairs
//! it with flat CSR ranks ([`LabelStorage::CsrDict`]),
//! [`CompressedDictLabelSet`] with delta+varint rank blocks
//! ([`LabelStorage::CompressedDict`]) — the backends are dispatched by
//! [`LabelStore`]. See `crates/distance/src/README.md` for
//! the byte-level format and decode invariants.
//!
//! [`LabelStorage::CsrDict`]: crate::codec::LabelStorage::CsrDict
//! [`LabelStorage::CompressedDict`]: crate::codec::LabelStorage::CompressedDict
//! [`LabelStore`]: crate::codec::LabelStore

use std::collections::HashSet;

use crate::codec::{gap, read_varint, write_varint, PREV_NONE};
use crate::label::{merge_join_entries, LabelEntry, LabelSet, LabelSetBuilder, LabelStats, NONE};
use crate::plane::Plane;

/// A narrow unsigned code type indexing a dictionary table. Sealed to the
/// three widths [`DistDict`] emits; hot loops are generic over it so each
/// width gets its own monomorphized scan.
pub(crate) trait DistCode: Copy {
    /// The code as a table index.
    fn idx(self) -> usize;
}

impl DistCode for u8 {
    #[inline(always)]
    fn idx(self) -> usize {
        self as usize
    }
}

impl DistCode for u16 {
    #[inline(always)]
    fn idx(self) -> usize {
        self as usize
    }
}

impl DistCode for u32 {
    #[inline(always)]
    fn idx(self) -> usize {
        self as usize
    }
}

/// The code array of a [`DistDict`] in its physical width. Each variant
/// holds a [`Plane`] — owned by encoders, borrowed straight from a
/// mapped v2 index file by the zero-copy loader.
#[derive(Clone, Debug)]
pub(crate) enum CodePlane {
    /// Table has ≤ 2⁸ values.
    U8(Plane<u8>),
    /// Table has ≤ 2¹⁶ values.
    U16(Plane<u16>),
    /// Wider tables.
    U32(Plane<u32>),
}

impl Default for CodePlane {
    fn default() -> Self {
        CodePlane::U8(Plane::new())
    }
}

impl CodePlane {
    /// An empty plane of the narrowest width that can index a table of
    /// `num_values`, with room for `capacity` codes.
    fn for_table(num_values: usize, capacity: usize) -> CodePlane {
        if num_values <= 1 << 8 {
            CodePlane::U8(Vec::with_capacity(capacity).into())
        } else if num_values <= 1 << 16 {
            CodePlane::U16(Vec::with_capacity(capacity).into())
        } else {
            CodePlane::U32(Vec::with_capacity(capacity).into())
        }
    }

    /// A zero-filled plane of length `len` (for backward-fill writes).
    fn zeroed(num_values: usize, len: usize) -> CodePlane {
        if num_values <= 1 << 8 {
            CodePlane::U8(vec![0; len].into())
        } else if num_values <= 1 << 16 {
            CodePlane::U16(vec![0; len].into())
        } else {
            CodePlane::U32(vec![0; len].into())
        }
    }

    #[inline]
    fn push(&mut self, code: u32) {
        match self {
            CodePlane::U8(v) => v.vec_mut().push(code as u8),
            CodePlane::U16(v) => v.vec_mut().push(code as u16),
            CodePlane::U32(v) => v.vec_mut().push(code),
        }
    }

    #[inline]
    fn set(&mut self, i: usize, code: u32) {
        match self {
            CodePlane::U8(v) => v.vec_mut()[i] = code as u8,
            CodePlane::U16(v) => v.vec_mut()[i] = code as u16,
            CodePlane::U32(v) => v.vec_mut()[i] = code,
        }
    }

    #[inline]
    fn get(&self, i: usize) -> usize {
        match self {
            CodePlane::U8(v) => v[i] as usize,
            CodePlane::U16(v) => v[i] as usize,
            CodePlane::U32(v) => v[i] as usize,
        }
    }

    fn len(&self) -> usize {
        match self {
            CodePlane::U8(v) => v.len(),
            CodePlane::U16(v) => v.len(),
            CodePlane::U32(v) => v.len(),
        }
    }

    /// Bytes per code.
    fn width(&self) -> usize {
        match self {
            CodePlane::U8(_) => 1,
            CodePlane::U16(_) => 2,
            CodePlane::U32(_) => 4,
        }
    }

    /// True when the codes borrow from a mapped index file.
    fn is_mapped(&self) -> bool {
        match self {
            CodePlane::U8(v) => v.is_mapped(),
            CodePlane::U16(v) => v.is_mapped(),
            CodePlane::U32(v) => v.is_mapped(),
        }
    }
}

/// A borrowed code sub-slice in its physical width, for width-specialized
/// hot loops (one match per node, not per entry).
#[derive(Clone, Copy, Debug)]
pub(crate) enum CodesRef<'a> {
    /// 1-byte codes.
    U8(&'a [u8]),
    /// 2-byte codes.
    U16(&'a [u16]),
    /// 4-byte codes.
    U32(&'a [u32]),
}

/// A dictionary-encoded plane of `f64` distances.
///
/// `table` holds the distinct distance values (ascending, deduplicated by
/// bit pattern); `codes` holds one table index per label entry, in decode
/// order, at the narrowest of 1/2/4 bytes that can address the table.
/// [`DistDict::get`] decodes entry `i` as `table[codes[i]]` — the exact
/// `f64` bits the encoder saw.
#[derive(Clone, Debug, Default)]
pub struct DistDict {
    /// Distinct distance values, ascending; entries are unique bit
    /// patterns (all distances are non-negative finite sums, so bit order
    /// and numeric order coincide).
    pub(crate) table: Plane<f64>,
    /// One table index per label entry, in decode order.
    pub(crate) codes: CodePlane,
}

impl DistDict {
    /// Number of encoded entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True when no entries are encoded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Decodes entry `i`: one code load + one table load, returning the
    /// identical bit pattern the encoder stored.
    #[inline]
    pub fn get(&self, i: usize) -> f64 {
        self.table[self.codes.get(i)]
    }

    /// The sorted distinct-value table.
    pub fn table(&self) -> &[f64] {
        &self.table
    }

    /// Distinct distance values in the table.
    pub fn num_values(&self) -> usize {
        self.table.len()
    }

    /// Bytes per code (1, 2 or 4 — the narrowest that fits the table).
    pub fn code_width(&self) -> usize {
        self.codes.width()
    }

    /// Bytes spent on the code array.
    pub fn codes_bytes(&self) -> usize {
        self.codes.len() * self.codes.width()
    }

    /// Bytes spent on the value table.
    pub fn table_bytes(&self) -> usize {
        std::mem::size_of::<f64>() * self.table.len()
    }

    /// The code sub-slice `lo..hi` in its physical width.
    #[inline]
    pub(crate) fn codes_in(&self, lo: usize, hi: usize) -> CodesRef<'_> {
        match &self.codes {
            CodePlane::U8(v) => CodesRef::U8(&v[lo..hi]),
            CodePlane::U16(v) => CodesRef::U16(&v[lo..hi]),
            CodePlane::U32(v) => CodesRef::U32(&v[lo..hi]),
        }
    }

    /// True when the table or code plane borrows from a mapped file.
    pub(crate) fn is_zero_copy(&self) -> bool {
        self.table.is_mapped() || self.codes.is_mapped()
    }
}

/// Two-pass dictionary encoder: pass 1 collects the distinct values into
/// the sorted table, pass 2 maps each distance to its code.
pub(crate) struct DictEncoder {
    table: Vec<f64>,
    /// The table's `f64` bit patterns, ascending — distances are
    /// non-negative finite, so bit order and numeric order coincide and
    /// code assignment is a binary search over raw bits (measurably
    /// cheaper than hashing on the build's finish path).
    table_bits: Vec<u64>,
}

impl DictEncoder {
    /// Builds the sorted distinct-value table from one pass over all
    /// distances (any order).
    pub(crate) fn from_values(values: impl IntoIterator<Item = f64>) -> DictEncoder {
        let uniq: HashSet<u64> = values.into_iter().map(f64::to_bits).collect();
        assert!(
            uniq.len() <= u32::MAX as usize,
            "distance dictionary overflow"
        );
        let mut table_bits: Vec<u64> = uniq.into_iter().collect();
        table_bits.sort_unstable();
        let table = table_bits.iter().map(|&b| f64::from_bits(b)).collect();
        DictEncoder { table, table_bits }
    }

    /// The code of `dist` (which must have been in the value pass).
    #[inline]
    fn code(&self, dist: f64) -> u32 {
        self.table_bits.partition_point(|&b| b < dist.to_bits()) as u32
    }

    /// An empty code plane sized for this table, with room for
    /// `capacity` codes.
    fn plane(&self, capacity: usize) -> CodePlane {
        CodePlane::for_table(self.table.len(), capacity)
    }

    /// A zero-filled code plane of length `len` for backward fills.
    fn zeroed_plane(&self, len: usize) -> CodePlane {
        CodePlane::zeroed(self.table.len(), len)
    }

    fn into_dict(self, codes: CodePlane) -> DistDict {
        DistDict {
            table: self.table.into(),
            codes,
        }
    }
}

/// Builds the dictionary encoder for a patched store: the final distance
/// multiset is clean entries (decoded through the old dict) plus the
/// `work` lists of `dirty` nodes — exactly the values a from-scratch
/// build's value pass would see, so the resulting table is identical to
/// it. Returns `(encoder, remap, total_entries)`, where `remap` maps old
/// codes to new ones when the table changed (`None` when it is bitwise
/// unchanged and clean codes can be copied verbatim). Old table slots
/// whose value vanished from the final multiset get a meaningless remap
/// entry, but no surviving clean code references them.
fn patched_encoder(
    dict: &DistDict,
    offsets: &[u32],
    work: &[Vec<LabelEntry>],
    dirty: &[usize],
) -> (DictEncoder, Option<Vec<u32>>, usize) {
    let n = offsets.len() - 1;
    let mut values: Vec<f64> = Vec::new();
    let mut di = 0usize;
    for v in 0..n {
        if dirty.get(di) == Some(&v) {
            di += 1;
            values.extend(work[v].iter().map(|e| e.dist));
        } else {
            for i in offsets[v] as usize..offsets[v + 1] as usize {
                values.push(dict.get(i));
            }
        }
    }
    let total = values.len();
    let enc = DictEncoder::from_values(values);
    let unchanged = enc.table_bits.len() == dict.table.len()
        && enc
            .table_bits
            .iter()
            .zip(dict.table.iter())
            .all(|(&b, &t)| b == t.to_bits());
    let remap = if unchanged {
        None
    } else {
        Some(dict.table.iter().map(|&t| enc.code(t)).collect())
    };
    (enc, remap, total)
}

/// Flat CSR hub ranks + dictionary-encoded distances
/// ([`LabelStorage::CsrDict`](crate::codec::LabelStorage::CsrDict)).
///
/// Identical addressing to [`LabelSet`] — `offsets[v]..offsets[v+1]`
/// slices both the rank array and the code array — with the 8-byte `f64`
/// per entry replaced by a 1/2/4-byte code plus the shared table.
///
/// ```
/// use atd_distance::{DictLabelSet, LabelEntry, LabelSet};
/// let lists = vec![
///     vec![
///         LabelEntry { hub_rank: 0, dist: 0.5 },
///         LabelEntry { hub_rank: 3, dist: 1.5 },
///     ],
///     vec![LabelEntry { hub_rank: 0, dist: 0.5 }],
/// ];
/// let csr = LabelSet::from_lists(&lists);
/// let dict = DictLabelSet::from_lists(&lists);
/// // Three entries share two distinct values -> two table slots.
/// assert_eq!(dict.dict().num_values(), 2);
/// assert_eq!(dict.entries(0).collect::<Vec<_>>(), lists[0]);
/// assert_eq!(dict.query(0, 1).to_bits(), csr.query(0, 1).to_bits());
/// ```
#[derive(Clone, Debug, Default)]
pub struct DictLabelSet {
    /// `offsets[v]..offsets[v + 1]` is node `v`'s slice of both planes.
    pub(crate) offsets: Plane<u32>,
    /// All hub ranks, concatenated per node, ascending within a node.
    pub(crate) hub_ranks: Plane<u32>,
    /// Dictionary-encoded distances, parallel to `hub_ranks`.
    pub(crate) dists: DistDict,
}

impl DictLabelSet {
    /// Builds a dict-distance set from per-node entry lists (each
    /// strictly ascending in hub rank). Convenience for tests and
    /// fixtures; the PLL builder uses
    /// [`LabelSetBuilder::finish_csr_dict`].
    pub fn from_lists(lists: &[Vec<LabelEntry>]) -> Self {
        Self::from_label_set(&LabelSet::from_lists(lists))
    }

    /// Re-encodes an existing CSR label set.
    pub fn from_label_set(labels: &LabelSet) -> Self {
        let enc = DictEncoder::from_values(labels.dists.iter().copied());
        let mut codes = enc.plane(labels.dists.len());
        for &d in labels.dists.iter() {
            codes.push(enc.code(d));
        }
        DictLabelSet {
            offsets: labels.offsets.clone(),
            hub_ranks: labels.hub_ranks.clone(),
            dists: enc.into_dict(codes),
        }
    }

    /// Number of indexed nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The distance dictionary (table + codes).
    #[inline]
    pub fn dict(&self) -> &DistDict {
        &self.dists
    }

    /// Node `v`'s entry range in the flat planes.
    #[inline]
    pub(crate) fn bounds(&self, node: usize) -> (usize, usize) {
        (self.offsets[node] as usize, self.offsets[node + 1] as usize)
    }

    /// Node `v`'s hub-rank slice.
    #[inline]
    pub(crate) fn ranks_of(&self, node: usize) -> &[u32] {
        let (lo, hi) = self.bounds(node);
        &self.hub_ranks[lo..hi]
    }

    /// Node `v`'s entries in strictly ascending hub rank — the same
    /// sequence the CSR slice walk yields.
    #[inline]
    pub fn entries(&self, node: usize) -> DictEntries<'_> {
        let (lo, hi) = self.bounds(node);
        DictEntries {
            ranks: &self.hub_ranks[lo..hi],
            dict: &self.dists,
            base: lo,
            next: 0,
        }
    }

    /// Pairwise merge-join query; bit-identical to [`LabelSet::query`].
    pub fn query(&self, u: usize, v: usize) -> f64 {
        merge_join_entries(self.entries(u), self.entries(v))
    }

    /// A copy of this store with the labels of `dirty` nodes (sorted,
    /// deduplicated indices) replaced by their lists in `work`. The value
    /// table is rebuilt from the final distance multiset (identical to a
    /// from-scratch [`DictEncoder`] pass); clean codes are copied when the
    /// table is bitwise unchanged and remapped otherwise
    /// (`crate::incremental`).
    pub(crate) fn patched(&self, work: &[Vec<LabelEntry>], dirty: &[usize]) -> DictLabelSet {
        let n = self.num_nodes();
        debug_assert_eq!(work.len(), n);
        debug_assert!(dirty.windows(2).all(|w| w[0] < w[1]), "dirty must ascend");
        let (enc, remap, total) = patched_encoder(&self.dists, &self.offsets, work, dirty);
        assert!(total <= u32::MAX as usize, "label store overflow");
        let mut offsets = Vec::with_capacity(n + 1);
        let mut hub_ranks = Vec::with_capacity(total);
        let mut codes = enc.plane(total);
        offsets.push(0u32);
        let mut di = 0usize;
        for (v, wv) in work.iter().enumerate() {
            if dirty.get(di) == Some(&v) {
                di += 1;
                for e in wv {
                    hub_ranks.push(e.hub_rank);
                    codes.push(enc.code(e.dist));
                }
            } else {
                let (lo, hi) = self.bounds(v);
                hub_ranks.extend_from_slice(&self.hub_ranks[lo..hi]);
                for i in lo..hi {
                    let old = self.dists.codes.get(i) as u32;
                    codes.push(match &remap {
                        Some(m) => m[old as usize],
                        None => old,
                    });
                }
            }
            offsets.push(hub_ranks.len() as u32);
        }
        // Fully owned by construction — patching an mmap-backed store
        // never writes through the mapping.
        DictLabelSet {
            offsets: offsets.into(),
            hub_ranks: hub_ranks.into(),
            dists: enc.into_dict(codes),
        }
    }

    /// Computes summary statistics; `bytes` counts offsets, ranks, codes
    /// and the dictionary table.
    pub fn stats(&self) -> LabelStats {
        let nodes = self.num_nodes();
        let max_entries = (0..nodes)
            .map(|v| (self.offsets[v + 1] - self.offsets[v]) as usize)
            .max()
            .unwrap_or(0);
        LabelStats::from_parts(
            nodes,
            self.hub_ranks.len(),
            max_entries,
            std::mem::size_of::<u32>() * self.offsets.len(),
            std::mem::size_of::<u32>() * self.hub_ranks.len(),
            self.dists.codes_bytes(),
            self.dists.table_bytes(),
            self.dists.num_values(),
        )
    }

    /// True when any plane borrows from a mapped index file.
    pub(crate) fn is_zero_copy(&self) -> bool {
        self.offsets.is_mapped() || self.hub_ranks.is_mapped() || self.dists.is_zero_copy()
    }
}

/// Iterator over one node's label in a [`DictLabelSet`] (strictly
/// ascending hub rank).
#[derive(Clone, Debug)]
pub struct DictEntries<'a> {
    ranks: &'a [u32],
    dict: &'a DistDict,
    /// Global entry index of the slice start.
    base: usize,
    /// Next local entry index.
    next: usize,
}

impl Iterator for DictEntries<'_> {
    type Item = LabelEntry;

    #[inline]
    fn next(&mut self) -> Option<LabelEntry> {
        let rank = *self.ranks.get(self.next)?;
        let dist = self.dict.get(self.base + self.next);
        self.next += 1;
        Some(LabelEntry {
            hub_rank: rank,
            dist,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.ranks.len() - self.next;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for DictEntries<'_> {}

/// Delta+varint hub-rank blocks + dictionary-encoded distances
/// ([`LabelStorage::CompressedDict`](crate::codec::LabelStorage::CompressedDict))
/// — both planes compressed, the smallest backend.
///
/// The rank side is one delta+varint block per node (the codec in
/// [`codec`](crate::codec)); the distance side is [`DistDict`] codes at
/// the same entry offsets as the flat backends, so per-node addressing
/// stays `O(1)` through the two offset arrays.
///
/// ```
/// use atd_distance::{CompressedDictLabelSet, LabelEntry, LabelSet};
/// let lists = vec![
///     vec![
///         LabelEntry { hub_rank: 0, dist: 0.0 },
///         LabelEntry { hub_rank: 700, dist: 2.5 },
///     ],
///     vec![LabelEntry { hub_rank: 3, dist: 2.5 }],
/// ];
/// let csr = LabelSet::from_lists(&lists);
/// let cd = CompressedDictLabelSet::from_lists(&lists);
/// assert_eq!(cd.decode(0).collect::<Vec<_>>(), lists[0]);
/// assert_eq!(cd.query(0, 1).to_bits(), csr.query(0, 1).to_bits());
/// ```
#[derive(Clone, Debug, Default)]
pub struct CompressedDictLabelSet {
    /// Entry offsets into the code plane; `offsets[v]..offsets[v+1]` is
    /// node `v`.
    pub(crate) offsets: Plane<u32>,
    /// Byte offsets into `rank_bytes`; one block per node.
    pub(crate) byte_offsets: Plane<u32>,
    /// Concatenated per-node varint gap streams (see
    /// [`codec`](crate::codec)).
    pub(crate) rank_bytes: Plane<u8>,
    /// Dictionary-encoded distances, parallel to decode order.
    pub(crate) dists: DistDict,
}

impl CompressedDictLabelSet {
    /// Builds a fully-compressed set from per-node entry lists (each
    /// strictly ascending in hub rank). Convenience for tests and
    /// fixtures; the PLL builder uses
    /// [`LabelSetBuilder::finish_compressed_dict`].
    pub fn from_lists(lists: &[Vec<LabelEntry>]) -> Self {
        Self::from_label_set(&LabelSet::from_lists(lists))
    }

    /// Re-encodes an existing CSR label set.
    pub fn from_label_set(labels: &LabelSet) -> Self {
        let n = labels.num_nodes();
        let enc = DictEncoder::from_values(labels.dists.iter().copied());
        let mut codes = enc.plane(labels.dists.len());
        let mut out = CompressedDictLabelSet {
            offsets: Vec::with_capacity(n + 1).into(),
            byte_offsets: Vec::with_capacity(n + 1).into(),
            rank_bytes: Plane::new(),
            dists: DistDict::default(),
        };
        out.offsets.vec_mut().push(0);
        out.byte_offsets.vec_mut().push(0);
        for v in 0..n {
            let mut prev = PREV_NONE;
            for e in labels.of(v).iter() {
                write_varint(gap(prev, e.hub_rank), out.rank_bytes.vec_mut());
                codes.push(enc.code(e.dist));
                prev = e.hub_rank;
            }
            out.close_block(codes.len());
        }
        out.dists = enc.into_dict(codes);
        out
    }

    /// Seals the current node's block (records both end offsets).
    fn close_block(&mut self, entries: usize) {
        assert!(
            entries <= u32::MAX as usize && self.rank_bytes.len() <= u32::MAX as usize,
            "label store overflow"
        );
        let bytes_len = self.rank_bytes.len() as u32;
        self.offsets.vec_mut().push(entries as u32);
        self.byte_offsets.vec_mut().push(bytes_len);
    }

    /// Number of indexed nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The distance dictionary (table + codes).
    #[inline]
    pub fn dict(&self) -> &DistDict {
        &self.dists
    }

    /// Node `v`'s raw `(varint block, entry range)` — the `O(1)` per-node
    /// addressing both offset arrays preserve.
    #[inline]
    pub(crate) fn block(&self, node: usize) -> (&[u8], usize, usize) {
        let blo = self.byte_offsets[node] as usize;
        let bhi = self.byte_offsets[node + 1] as usize;
        (
            &self.rank_bytes[blo..bhi],
            self.offsets[node] as usize,
            self.offsets[node + 1] as usize,
        )
    }

    /// Decodes node `v`'s label: entries in strictly ascending hub rank.
    #[inline]
    pub fn decode(&self, node: usize) -> DictDecoder<'_> {
        let (bytes, lo, hi) = self.block(node);
        DictDecoder {
            bytes,
            dict: &self.dists,
            base: lo,
            len: hi - lo,
            pos: 0,
            next: 0,
            prev: PREV_NONE,
        }
    }

    /// Pairwise merge-join query; bit-identical to [`LabelSet::query`].
    pub fn query(&self, u: usize, v: usize) -> f64 {
        merge_join_entries(self.decode(u), self.decode(v))
    }

    /// A copy of this store with the blocks of `dirty` nodes (sorted,
    /// deduplicated indices) re-encoded from their lists in `work`. Clean
    /// rank blocks are copied byte-for-byte; the value table is rebuilt
    /// from the final distance multiset with clean codes copied or
    /// remapped exactly as in [`DictLabelSet::patched`]
    /// (`crate::incremental`).
    pub(crate) fn patched(
        &self,
        work: &[Vec<LabelEntry>],
        dirty: &[usize],
    ) -> CompressedDictLabelSet {
        let n = self.num_nodes();
        debug_assert_eq!(work.len(), n);
        debug_assert!(dirty.windows(2).all(|w| w[0] < w[1]), "dirty must ascend");
        let (enc, remap, total) = patched_encoder(&self.dists, &self.offsets, work, dirty);
        let mut codes = enc.plane(total);
        // Fully owned by construction — clean blocks are copied, so an
        // mmap-backed store is never written through.
        let mut out = CompressedDictLabelSet {
            offsets: Vec::with_capacity(n + 1).into(),
            byte_offsets: Vec::with_capacity(n + 1).into(),
            rank_bytes: Plane::new(),
            dists: DistDict::default(),
        };
        out.offsets.vec_mut().push(0);
        out.byte_offsets.vec_mut().push(0);
        let mut di = 0usize;
        for (v, wv) in work.iter().enumerate() {
            if dirty.get(di) == Some(&v) {
                di += 1;
                let mut prev = PREV_NONE;
                for e in wv {
                    debug_assert!(
                        prev == PREV_NONE || prev < e.hub_rank,
                        "label entries must ascend strictly in hub rank"
                    );
                    write_varint(gap(prev, e.hub_rank), out.rank_bytes.vec_mut());
                    codes.push(enc.code(e.dist));
                    prev = e.hub_rank;
                }
            } else {
                let (bytes, lo, hi) = self.block(v);
                out.rank_bytes.vec_mut().extend_from_slice(bytes);
                for i in lo..hi {
                    let old = self.dists.codes.get(i) as u32;
                    codes.push(match &remap {
                        Some(m) => m[old as usize],
                        None => old,
                    });
                }
            }
            out.close_block(codes.len());
        }
        out.dists = enc.into_dict(codes);
        out
    }

    /// Computes summary statistics; `bytes` counts both offset arrays,
    /// the varint stream, the codes and the dictionary table.
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
            self.dists.codes_bytes(),
            self.dists.table_bytes(),
            self.dists.num_values(),
        )
    }

    /// True when any plane borrows from a mapped index file.
    pub(crate) fn is_zero_copy(&self) -> bool {
        self.offsets.is_mapped()
            || self.byte_offsets.is_mapped()
            || self.rank_bytes.is_mapped()
            || self.dists.is_zero_copy()
    }
}

/// Streaming decoder over one node's block in a
/// [`CompressedDictLabelSet`] (strictly ascending hub rank).
#[derive(Clone, Debug)]
pub struct DictDecoder<'a> {
    bytes: &'a [u8],
    dict: &'a DistDict,
    /// Global entry index of the block start.
    base: usize,
    /// Entries in this block.
    len: usize,
    /// Read cursor into `bytes`.
    pos: usize,
    /// Next local entry index.
    next: usize,
    /// Previously decoded rank (`PREV_NONE` before the first entry).
    prev: u32,
}

impl Iterator for DictDecoder<'_> {
    type Item = LabelEntry;

    #[inline]
    fn next(&mut self) -> Option<LabelEntry> {
        if self.next >= self.len {
            return None;
        }
        let delta = read_varint(self.bytes, &mut self.pos);
        let rank = self.prev.wrapping_add(delta).wrapping_add(1);
        self.prev = rank;
        let dist = self.dict.get(self.base + self.next);
        self.next += 1;
        Some(LabelEntry {
            hub_rank: rank,
            dist,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.len - self.next;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for DictDecoder<'_> {}

impl LabelSetBuilder {
    /// Converts the journaled labels straight to the CSR+dict store — the
    /// flat `f64` distance array is **never materialized**. The value
    /// table is collected from the journal arena (which holds exactly the
    /// final entries), then the counting pass fills ranks and codes the
    /// same way [`LabelSetBuilder::finish`] fills ranks and dists.
    pub fn finish_csr_dict(self) -> DictLabelSet {
        let n = self.head.len();
        let total = self.arena_ranks.len();
        let enc = DictEncoder::from_values(self.arena_dists.iter().copied());
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        offsets.push(0);
        for &c in &self.counts {
            acc += c;
            offsets.push(acc);
        }
        let mut hub_ranks = vec![0u32; total];
        let mut codes = enc.zeroed_plane(total);
        for v in 0..n {
            let mut slot = offsets[v + 1] as usize;
            let mut cur = self.head[v];
            while cur != NONE {
                let i = cur as usize;
                slot -= 1;
                hub_ranks[slot] = self.arena_ranks[i];
                codes.set(slot, enc.code(self.arena_dists[i]));
                cur = self.arena_prev[i];
            }
            debug_assert_eq!(slot, offsets[v] as usize, "chain/count mismatch");
        }
        DictLabelSet {
            offsets: offsets.into(),
            hub_ranks: hub_ranks.into(),
            dists: enc.into_dict(codes),
        }
    }

    /// Converts the journaled labels straight to the fully-compressed
    /// store (varint ranks + dict distances) — neither the CSR arrays nor
    /// the flat `f64` distance array is ever materialized. Scratch is one
    /// reversal buffer bounded by the largest single label.
    pub fn finish_compressed_dict(self) -> CompressedDictLabelSet {
        let n = self.num_nodes();
        let total = self.total_entries();
        let enc = DictEncoder::from_values(self.arena_dists.iter().copied());
        let mut codes = enc.plane(total);
        let mut out = CompressedDictLabelSet {
            offsets: Vec::with_capacity(n + 1).into(),
            byte_offsets: Vec::with_capacity(n + 1).into(),
            rank_bytes: Plane::new(),
            dists: DistDict::default(),
        };
        out.offsets.vec_mut().push(0);
        out.byte_offsets.vec_mut().push(0);
        let mut scratch: Vec<LabelEntry> = Vec::new();
        for v in 0..n {
            scratch.clear();
            scratch.extend(self.entries(v)); // newest first = descending
            let mut prev = PREV_NONE;
            for e in scratch.iter().rev() {
                write_varint(gap(prev, e.hub_rank), out.rank_bytes.vec_mut());
                codes.push(enc.code(e.dist));
                prev = e.hub_rank;
            }
            out.close_block(codes.len());
        }
        out.dists = enc.into_dict(codes);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(hub_rank: u32, dist: f64) -> LabelEntry {
        LabelEntry { hub_rank, dist }
    }

    fn fixture() -> Vec<Vec<LabelEntry>> {
        vec![
            vec![e(0, 0.25), e(1, 1.5), e(7, 2.0), e(700_000, 9.0)],
            vec![],
            vec![e(3, 0.25), e(4, 1.5), e(9, 0.0)],
        ]
    }

    #[test]
    fn table_is_sorted_unique_and_codes_decode_exactly() {
        let lists = fixture();
        let d = DictLabelSet::from_lists(&lists);
        // 7 entries, 5 distinct values (0.25 and 1.5 repeat).
        assert_eq!(d.dict().len(), 7);
        assert_eq!(d.dict().num_values(), 5);
        assert_eq!(d.dict().code_width(), 1);
        let table = d.dict().table();
        assert!(table.windows(2).all(|w| w[0] < w[1]), "sorted unique");
        for (v, list) in lists.iter().enumerate() {
            let got: Vec<LabelEntry> = d.entries(v).collect();
            assert_eq!(&got, list, "node {v}");
            assert_eq!(d.entries(v).len(), list.len());
        }
    }

    #[test]
    fn compressed_dict_roundtrips() {
        let lists = fixture();
        let cd = CompressedDictLabelSet::from_lists(&lists);
        assert_eq!(cd.num_nodes(), 3);
        for (v, list) in lists.iter().enumerate() {
            let got: Vec<LabelEntry> = cd.decode(v).collect();
            assert_eq!(&got, list, "node {v}");
            assert_eq!(cd.decode(v).len(), list.len());
        }
    }

    #[test]
    fn queries_match_csr_bitwise() {
        let lists = fixture();
        let csr = LabelSet::from_lists(&lists);
        let d = DictLabelSet::from_lists(&lists);
        let cd = CompressedDictLabelSet::from_lists(&lists);
        for u in 0..lists.len() {
            for v in 0..lists.len() {
                let want = csr.query(u, v).to_bits();
                assert_eq!(d.query(u, v).to_bits(), want, "csr_dict ({u},{v})");
                assert_eq!(cd.query(u, v).to_bits(), want, "compressed_dict ({u},{v})");
            }
        }
    }

    #[test]
    fn code_width_tracks_table_size() {
        // ≤256 distinct values -> u8 codes.
        let small: Vec<Vec<LabelEntry>> = vec![(0..300).map(|i| e(i, (i % 10) as f64)).collect()];
        let d = DictLabelSet::from_lists(&small);
        assert_eq!(d.dict().num_values(), 10);
        assert_eq!(d.dict().code_width(), 1);
        assert_eq!(d.dict().codes_bytes(), 300);

        // >256 distinct values -> u16 codes.
        let medium: Vec<Vec<LabelEntry>> = vec![(0..300).map(|i| e(i, i as f64 * 0.5)).collect()];
        let d = DictLabelSet::from_lists(&medium);
        assert_eq!(d.dict().num_values(), 300);
        assert_eq!(d.dict().code_width(), 2);
        assert_eq!(d.dict().codes_bytes(), 600);
    }

    #[test]
    fn stats_count_real_bytes_per_plane() {
        let lists = vec![vec![e(0, 0.5)], vec![e(0, 0.5), e(1, 1.5)], vec![]];
        let d = DictLabelSet::from_lists(&lists);
        let s = d.stats();
        assert_eq!(s.nodes, 3);
        assert_eq!(s.total_entries, 3);
        assert_eq!(s.max_entries, 2);
        // offsets: 4 u32; ranks: 3 u32; codes: 3 u8; table: 2 f64.
        assert_eq!(s.offsets_bytes, 4 * 4);
        assert_eq!(s.ranks_bytes, 3 * 4);
        assert_eq!(s.dists_bytes, 3);
        assert_eq!(s.dict_bytes, 2 * 8);
        assert_eq!(s.dict_values, 2);
        assert_eq!(s.bytes, 16 + 12 + 3 + 16);

        let cd = CompressedDictLabelSet::from_lists(&lists);
        let s = cd.stats();
        // Two 4-u32 offset arrays, 3 one-byte varints, 3 u8 codes, 2 f64s.
        assert_eq!(s.offsets_bytes, 2 * 4 * 4);
        assert_eq!(s.ranks_bytes, 3);
        assert_eq!(s.dists_bytes, 3);
        assert_eq!(s.dict_bytes, 16);
        assert_eq!(s.dict_values, 2);
        assert_eq!(s.bytes, 32 + 3 + 3 + 16);
    }

    #[test]
    fn builder_finishes_match_from_lists() {
        let lists = fixture();
        let build = || {
            let mut b = LabelSetBuilder::new(lists.len());
            let mut flat: Vec<(usize, LabelEntry)> = Vec::new();
            for (v, l) in lists.iter().enumerate() {
                for &entry in l {
                    flat.push((v, entry));
                }
            }
            flat.sort_by_key(|&(v, entry)| (entry.hub_rank, v));
            for (v, entry) in flat {
                b.push(v, entry);
            }
            b
        };

        let d = build().finish_csr_dict();
        let d_ref = DictLabelSet::from_lists(&lists);
        let cd = build().finish_compressed_dict();
        let cd_ref = CompressedDictLabelSet::from_lists(&lists);
        for (v, want) in lists.iter().enumerate() {
            assert_eq!(&d.entries(v).collect::<Vec<_>>(), want, "csr_dict node {v}");
            assert_eq!(
                &cd.decode(v).collect::<Vec<_>>(),
                want,
                "compressed_dict node {v}"
            );
        }
        assert_eq!(d.stats(), d_ref.stats());
        assert_eq!(cd.stats(), cd_ref.stats());
    }

    #[test]
    fn empty_stores_are_consistent() {
        let d = LabelSetBuilder::new(2).finish_csr_dict();
        assert_eq!(d.num_nodes(), 2);
        assert_eq!(d.entries(0).count(), 0);
        assert_eq!(d.query(0, 1), f64::INFINITY);
        assert_eq!(d.dict().num_values(), 0);
        let cd = LabelSetBuilder::new(2).finish_compressed_dict();
        assert_eq!(cd.num_nodes(), 2);
        assert_eq!(cd.decode(1).count(), 0);
        assert_eq!(cd.query(0, 1), f64::INFINITY);
        assert!(cd.dict().is_empty());
    }

    #[test]
    fn dict_beats_flat_on_repetitive_values() {
        // 320 entries over 8 distinct values: codes are u8, table tiny.
        let lists: Vec<Vec<LabelEntry>> = (0..8)
            .map(|v| {
                (0..40)
                    .map(|i| e(v + i * 3, (i % 8) as f64 * 0.5))
                    .collect()
            })
            .collect();
        let csr = LabelSet::from_lists(&lists).stats();
        let d = DictLabelSet::from_lists(&lists).stats();
        let cd = CompressedDictLabelSet::from_lists(&lists).stats();
        assert_eq!(csr.total_entries, d.total_entries);
        assert_eq!(csr.total_entries, cd.total_entries);
        assert!(
            d.bytes < csr.bytes,
            "csr_dict {} !< csr {}",
            d.bytes,
            csr.bytes
        );
        assert!(
            cd.bytes < d.bytes,
            "compressed_dict {} !< csr_dict {}",
            cd.bytes,
            d.bytes
        );
    }
}
