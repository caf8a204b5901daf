//! Versioned on-disk persistence for the hub-label index.
//!
//! The paper's query engine is only fast because the 2-hop cover is
//! already built — yet every process start used to pay a full PLL
//! construction. All three [`LabelStore`] backends are flat arrays plus at
//! most one dictionary table, so a built index serializes to a
//! straightforward little-endian dump that loads orders of magnitude
//! faster than even the parallel rebuild (`O(index bytes)` instead of
//! `O(graph rebuild)` — see `BENCH_pr5.json` and the cold-start section
//! of the README).
//!
//! The format is defensive because a loaded file is the **first untrusted
//! byte stream** the label decoders ever see. The header carries a magic,
//! a format version, the storage tag, a snapshot fingerprint (node count,
//! entry count, and a hash of the graph's edge/weight stream) so stale
//! indexes are rejected, and a checksum over the payload. Loading
//! validates every structural invariant the unchecked hot-path decoders
//! rely on — offsets monotone and in range, ranks strictly ascending,
//! varint blocks well-formed (via the checked decoder in `codec.rs`),
//! dictionary codes inside the table — and returns [`PersistError`],
//! **never panics**, on any malformed input. See
//! `crates/distance/src/README.md` for the byte-level format
//! specification.
//!
//! Format **v2** is the only format. It lays every plane out
//! 8-byte-aligned (length-prefixed, zero-padded, with a leading
//! `max_rank` word and a word-lane payload checksum), so one reader
//! serves every load: it borrows each plane in place out of an
//! 8-byte-aligned [`MmapRegion`] and runs the same validation whatever
//! backs the region. [`IndexLoadMode`] only chooses where the region's
//! bytes come from — a heap buffer filled by one `read`
//! ([`LabelStore::load_from`]) or a memory mapping of the file
//! ([`LabelStore::load_mmap`]). Queries are bit-identical either way.
//!
//! Typical use is the load-or-build cold start
//! (`DiscoveryOptions::pll_index_path` in `atd-core` wires this up
//! end-to-end):
//!
//! ```
//! use atd_distance::{LabelStore, PrunedLandmarkLabeling, VertexOrder};
//! use atd_graph::GraphBuilder;
//!
//! let mut b = GraphBuilder::new();
//! let u = b.add_node(1.0);
//! let v = b.add_node(2.0);
//! b.add_edge(u, v, 0.5).unwrap();
//! let g = b.build().unwrap();
//!
//! let built = PrunedLandmarkLabeling::build(&g);
//! let path = std::env::temp_dir().join("atd-doctest-index.atdl");
//! built.save_to(&path, &g).unwrap();
//! let loaded = PrunedLandmarkLabeling::load_from(&path, &g).unwrap();
//! // Bit-identical labels, hence bit-identical queries.
//! for n in 0..g.num_nodes() {
//!     assert!(built
//!         .labels()
//!         .entries(n)
//!         .eq(loaded.labels().entries(n)));
//! }
//! std::fs::remove_file(&path).unwrap();
//! ```

use std::fmt;
use std::io::Read;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use atd_graph::ExpertGraph;

use crate::codec::{try_read_varint, LabelStorage, LabelStore, VarintError};
use crate::dict::{CodePlane, CompressedDictLabelSet, DictLabelSet, DistDict};
use crate::label::LabelSet;
use crate::mmap::MmapRegion;
use crate::plane::{Plane, PlanePod};
use crate::pll::PrunedLandmarkLabeling;

/// File magic, the first four bytes of every index dump.
pub const MAGIC: [u8; 4] = *b"ATDL";

/// The on-disk format version, the only one this build reads or writes:
/// 8-byte-aligned planes and a word-lane checksum, the layout every load
/// borrows in place.
pub const FORMAT_VERSION: u16 = 2;

/// Fixed header length in bytes (see the format spec in
/// `crates/distance/src/README.md`). A multiple of 8, so payload offsets
/// are file offsets modulo alignment.
pub const HEADER_LEN: usize = 48;

/// Where `DiscoveryOptions::pll_index_path`-style cold starts keep the
/// bytes of a persisted index.
///
/// Both modes run the same reader and the same full validation, return
/// the same error for the same bytes, and produce bit-identical query
/// results; they differ only in where the label planes live.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum IndexLoadMode {
    /// Read the file into a private 8-byte-aligned heap buffer and
    /// borrow the planes from it ([`PrunedLandmarkLabeling::load_from`]).
    /// Portable; costs one `read` of the file.
    #[default]
    Owned,
    /// Memory-map the file and borrow every plane straight from the page
    /// cache ([`PrunedLandmarkLabeling::load_mmap`]) — no copy, and the
    /// pages are shared with every other process mapping the same file.
    Mmap,
}

/// Why a save or load failed.
///
/// Every decode-side failure mode is a variant here: loading **returns**
/// these — it never panics, whatever the bytes are (enforced by
/// `tests/proptest_persist.rs`, which flips and truncates files
/// exhaustively).
#[derive(Debug)]
pub enum PersistError {
    /// The underlying file operation failed.
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`] — not an index dump.
    BadMagic,
    /// The file's format version is not [`FORMAT_VERSION`] — this build
    /// reads version 2 only.
    UnsupportedVersion(u16),
    /// The header's storage tag names no known [`LabelStorage`] backend.
    BadStorageTag(u8),
    /// The snapshot fingerprint does not match the graph the caller
    /// supplied — the index was built from a different (stale) snapshot.
    StaleIndex {
        /// Which fingerprint component mismatched (`"nodes"` or
        /// `"graph hash"`).
        what: &'static str,
        /// The value derived from the caller's graph.
        expected: u64,
        /// The value stored in the file.
        found: u64,
    },
    /// The payload checksum does not match the header — bit rot or a
    /// partial write.
    ChecksumMismatch,
    /// The file ended before the structure it promised was complete.
    Truncated,
    /// A structural invariant of the label encoding does not hold; the
    /// message names the violated invariant.
    Corrupt(&'static str),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "index file I/O failed: {e}"),
            PersistError::BadMagic => write!(f, "not an ATDL index file (bad magic)"),
            PersistError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported index format version {v} (this build reads \
                     version {FORMAT_VERSION} only)"
                )
            }
            PersistError::BadStorageTag(t) => write!(f, "unknown label storage tag {t}"),
            PersistError::StaleIndex {
                what,
                expected,
                found,
            } => write!(
                f,
                "stale index: {what} mismatch (graph has {expected:#x}, file has {found:#x})"
            ),
            PersistError::ChecksumMismatch => write!(f, "index payload checksum mismatch"),
            PersistError::Truncated => write!(f, "index file truncated"),
            PersistError::Corrupt(what) => write!(f, "corrupt index: {what}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<VarintError> for PersistError {
    fn from(e: VarintError) -> Self {
        match e {
            VarintError::Truncated => PersistError::Corrupt("varint block truncated"),
            VarintError::Overflow => PersistError::Corrupt("varint does not fit u32"),
        }
    }
}

impl PersistError {
    /// Whether retrying the same operation could plausibly succeed.
    ///
    /// Only raw I/O failures are transient (a saturated disk, a
    /// momentarily unavailable network mount, an interrupted syscall).
    /// Every structural failure — bad magic, stale fingerprint, checksum
    /// mismatch, corruption — is a property of the *bytes*, so retrying
    /// the read would just decode the same bytes again.
    pub fn is_transient(&self) -> bool {
        matches!(self, PersistError::Io(_))
    }
}

/// Bounded retry with capped exponential backoff for transient
/// persistence I/O.
///
/// Snapshot files are read and written by long-lived services (the
/// load-or-build cold start, the background snapshot-swap thread in
/// `atd-serve`), where a single `EINTR`/`EAGAIN`-class hiccup should not
/// abort a swap or force a full index rebuild. The policy retries **only**
/// failures where [`PersistError::is_transient`] holds; structural errors
/// (stale, corrupt, truncated) fail immediately — re-reading corrupt
/// bytes cannot fix them.
///
/// The sleep between attempts doubles from [`base_delay`] and is capped
/// at [`max_delay`]. Tests inject a recording clock via
/// [`RetryPolicy::run_with_sleep`], so no test ever actually sleeps.
///
/// [`base_delay`]: RetryPolicy::base_delay
/// [`max_delay`]: RetryPolicy::max_delay
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (`1` = no retry).
    pub attempts: u32,
    /// Sleep before the first retry; doubles each further retry.
    pub base_delay: Duration,
    /// Upper bound on any single sleep.
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    /// Three attempts, 10 ms → 20 ms backoff (capped at 200 ms).
    fn default() -> Self {
        RetryPolicy {
            attempts: 3,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(200),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries — one attempt, no sleeping.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            attempts: 1,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
        }
    }

    /// The backoff slept **after** failed attempt number `attempt`
    /// (1-based): `base_delay · 2^(attempt−1)`, capped at `max_delay`.
    pub fn delay_after(&self, attempt: u32) -> Duration {
        let factor = 1u32 << attempt.saturating_sub(1).min(20);
        self.base_delay
            .saturating_mul(factor)
            .min(self.max_delay)
            .max(self.base_delay.min(self.max_delay))
    }

    /// Runs `op` under this policy, sleeping with [`std::thread::sleep`]
    /// between attempts. `op` receives the 1-based attempt number.
    pub fn run<T>(
        &self,
        op: impl FnMut(u32) -> Result<T, PersistError>,
    ) -> Result<T, PersistError> {
        self.run_with_sleep(op, std::thread::sleep)
    }

    /// [`RetryPolicy::run`] with an injectable clock: `sleep` is called
    /// with each backoff delay, letting tests record the schedule
    /// instead of waiting it out.
    pub fn run_with_sleep<T>(
        &self,
        mut op: impl FnMut(u32) -> Result<T, PersistError>,
        mut sleep: impl FnMut(Duration),
    ) -> Result<T, PersistError> {
        let attempts = self.attempts.max(1);
        for attempt in 1..=attempts {
            match op(attempt) {
                Ok(v) => return Ok(v),
                Err(e) if e.is_transient() && attempt < attempts => {
                    sleep(self.delay_after(attempt));
                }
                Err(e) => return Err(e),
            }
        }
        unreachable!("loop returns on the final attempt")
    }
}

/// The identity of the snapshot an index was built from, stored in the
/// header so a loaded index is provably the index **of this graph**:
/// node count, label entry count, and a hash of the graph's edge/weight
/// stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SnapshotFingerprint {
    /// Indexed node count.
    pub nodes: u64,
    /// Total label entries across all nodes.
    pub entries: u64,
    /// [`graph_fingerprint`] of the edge/weight stream.
    pub graph_hash: u64,
}

impl SnapshotFingerprint {
    /// The fingerprint [`LabelStore::save_to`] writes for `store` built
    /// from `graph`.
    pub fn of(graph: &ExpertGraph, store: &LabelStore) -> SnapshotFingerprint {
        SnapshotFingerprint {
            nodes: store.num_nodes() as u64,
            entries: store.stats().total_entries as u64,
            graph_hash: graph_fingerprint(graph),
        }
    }

    /// Reads the fingerprint out of a dump's header without parsing (or
    /// even reading) the payload — identifies which snapshot a file
    /// belongs to without needing the graph, e.g. for ops tooling
    /// deciding which of several cached indexes to load.
    pub fn read_from_bytes(bytes: &[u8]) -> Result<SnapshotFingerprint, PersistError> {
        if bytes.len() < HEADER_LEN {
            return Err(PersistError::Truncated);
        }
        if bytes[0..4] != MAGIC {
            return Err(PersistError::BadMagic);
        }
        let version = u16::from_le_bytes(bytes[4..6].try_into().expect("2 bytes"));
        if version != FORMAT_VERSION {
            return Err(PersistError::UnsupportedVersion(version));
        }
        let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
        Ok(SnapshotFingerprint {
            nodes: u64_at(8),
            entries: u64_at(16),
            graph_hash: u64_at(24),
        })
    }

    /// [`SnapshotFingerprint::read_from_bytes`] over a file's first
    /// [`HEADER_LEN`] bytes.
    pub fn read_from(path: &Path) -> Result<SnapshotFingerprint, PersistError> {
        let mut header = [0u8; HEADER_LEN];
        let mut f = std::fs::File::open(path)?;
        f.read_exact(&mut header)
            .map_err(|_| PersistError::Truncated)?;
        SnapshotFingerprint::read_from_bytes(&header)
    }
}

/// FNV-1a 64-bit accumulator — the format's hash for both the graph
/// fingerprint and the payload checksum. Not cryptographic; it guards
/// against stale snapshots and bit rot, not adversarial collisions.
struct Fnv64(u64);

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Fnv64 {
        Fnv64(Self::OFFSET)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Word-at-a-time absorption: one xor + multiply per `u64` instead
    /// of eight. Distinct from (and incompatible with) the byte-wise
    /// [`write`](Self::write) — used where the hash is only ever
    /// compared against values computed by this same code (the graph
    /// fingerprint, the v2 checksum fold), never against a byte stream.
    #[inline]
    fn absorb_u64(&mut self, v: u64) {
        self.0 ^= v;
        self.0 = self.0.wrapping_mul(Self::PRIME);
    }
}

/// Hash of a graph's edge/weight stream (node count, edge count, then
/// every undirected edge as `(u, v, weight bits)` in canonical order) —
/// the staleness check of the on-disk header. Any change to topology or
/// weights changes this value.
///
/// Memoized per graph instance (the graph is immutable after
/// construction): the first call hashes the CSR arrays, later calls on
/// the same instance are a load. The hash sits on every index load —
/// owned and zero-copy — and on every durable journal append, so both
/// the first computation and the repeat lookups matter.
pub fn graph_fingerprint(g: &ExpertGraph) -> u64 {
    g.fingerprint_or_init(compute_graph_fingerprint)
}

fn compute_graph_fingerprint(g: &ExpertGraph) -> u64 {
    // Word-at-a-time FNV lanes straight over the canonical CSR arrays
    // (offsets, targets, weights each hashed separately), folded at
    // the end. The arrays fully determine topology and weights, and the
    // builder's layout is canonical, so two equal graphs always hash
    // equal. The fingerprint sits on every load path — including the
    // zero-copy one, where the old per-edge iterator walk would be a
    // large fraction of the total — and on every durable append, so
    // branch-free bulk absorption matters. The value is always
    // recomputed by this same code before comparison, never parsed from
    // foreign bytes.
    // Each array is absorbed through four interleaved lanes (element i
    // goes to lane i mod 4) so the xor-multiply recurrences of adjacent
    // elements are independent and pipeline past the multiplier's
    // latency; a single lane per array is latency-bound at ~3 cycles
    // per element.
    #[inline]
    fn striped<T: Copy>(vals: &[T], to: impl Fn(T) -> u64) -> u64 {
        let mut lanes = [Fnv64::new(), Fnv64::new(), Fnv64::new(), Fnv64::new()];
        let mut chunks = vals.chunks_exact(4);
        for c in &mut chunks {
            lanes[0].absorb_u64(to(c[0]));
            lanes[1].absorb_u64(to(c[1]));
            lanes[2].absorb_u64(to(c[2]));
            lanes[3].absorb_u64(to(c[3]));
        }
        for (lane, &v) in lanes.iter_mut().zip(chunks.remainder()) {
            lane.absorb_u64(to(v));
        }
        let mut h = Fnv64::new();
        for lane in lanes {
            h.absorb_u64(lane.0);
        }
        h.0
    }
    let (offsets, targets, weights) = g.csr_parts();
    let ho = striped(offsets, |o| o as u64);
    let ht = striped(targets, |t| t.index() as u64);
    let hw = striped(weights, |w| w.to_bits());
    let mut h = Fnv64::new();
    h.absorb_u64(g.num_nodes() as u64);
    h.absorb_u64(g.num_edges() as u64);
    h.absorb_u64(ho);
    h.absorb_u64(ht);
    h.absorb_u64(hw);
    h.0
}

/// The checksum format v2 stores over its payload bytes: eight
/// interleaved lanes over 512-byte blocks, each lane absorbing eight
/// little-endian `u64` words — one through the FNV xor-multiply step,
/// seven through xor at distinct rotations — folded together with the
/// tail bytes and the payload length through the FNV step. A byte-wise
/// FNV-1a pays one multiply per *byte*; this pays one per 64 bytes per
/// lane, which takes the load path's full-payload pass from
/// multiply-throughput bound to memory-bandwidth bound. Every
/// absorption is bijective in the lane state, so corrupting any single
/// byte (or truncating anywhere) changes the final value
/// deterministically — the property the corruption suite drives
/// byte-by-byte; multi-byte bit rot is caught with high probability
/// (this is an integrity code, not a cryptographic hash). Public so
/// external tooling — and the corruption tests — can re-seal a patched
/// payload and exercise the structural validation behind it.
pub fn checksum(payload: &[u8]) -> u64 {
    #[inline(always)]
    fn word(block: &[u8], at: usize) -> u64 {
        u64::from_le_bytes(block[at..at + 8].try_into().expect("8-byte word"))
    }
    let mut lanes = [Fnv64::OFFSET; 8];
    let mut blocks = payload.chunks_exact(512);
    for block in &mut blocks {
        for (i, lane) in lanes.iter_mut().enumerate() {
            let base = i * 64;
            *lane = (*lane ^ word(block, base)).wrapping_mul(Fnv64::PRIME)
                ^ word(block, base + 8).rotate_left(5)
                ^ word(block, base + 16).rotate_left(13)
                ^ word(block, base + 24).rotate_left(21)
                ^ word(block, base + 32).rotate_left(29)
                ^ word(block, base + 40).rotate_left(37)
                ^ word(block, base + 48).rotate_left(45)
                ^ word(block, base + 56).rotate_left(53);
        }
    }
    let mut tail = Fnv64::new();
    tail.write(blocks.remainder());
    let mut h = Fnv64::new();
    for lane in lanes {
        h.absorb_u64(lane);
    }
    h.absorb_u64(tail.0);
    h.absorb_u64(payload.len() as u64);
    h.0
}

// ---------------------------------------------------------------------
// Atomic file publication + orphaned-temp sweep
// ---------------------------------------------------------------------

/// Writes `bytes` to `path` atomically: the data first lands in a
/// uniquely-named sibling temp file (`<name>.tmp.<pid>.<seq>` — pid plus
/// a process-wide sequence counter, so concurrent savers never share a
/// temp path), is fsynced, and is then renamed over `path`. A crash or
/// racing writer never leaves a half-written file at `path`; at worst it
/// orphans a temp file, which [`sweep_orphaned_tmp`] reclaims on the
/// next startup.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write;
    use std::sync::atomic::{AtomicU64, Ordering};
    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(format!(
        ".tmp.{}.{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = std::path::PathBuf::from(tmp);
    let result = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_data()?;
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    result
}

/// Returns `Some(pid)` when `name` is an orphaned-temp name for any final
/// file (`<base>.tmp.<pid>.<seq>` with all-digit pid and seq), i.e. the
/// naming scheme used by [`atomic_write`] and [`LabelStore::save_to`].
fn parse_tmp_pid(name: &str) -> Option<u32> {
    let (rest, seq) = name.rsplit_once('.')?;
    if seq.is_empty() || !seq.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let (rest, pid) = rest.rsplit_once('.')?;
    if !rest.ends_with(".tmp") || pid.is_empty() {
        return None;
    }
    pid.parse().ok()
}

/// True when the writer process that owns a temp file can be ruled dead.
/// Our own pid is always considered live (another thread may be mid-save);
/// other pids are probed via `/proc` on Linux. On platforms without
/// `/proc` the check is conservative: foreign temp files are left alone.
fn tmp_owner_is_dead(pid: u32) -> bool {
    if pid == std::process::id() {
        return false;
    }
    #[cfg(target_os = "linux")]
    {
        !Path::new(&format!("/proc/{pid}")).exists()
    }
    #[cfg(not(target_os = "linux"))]
    {
        false
    }
}

/// Removes orphaned temp files that a crashed writer left next to the
/// final file at `path` (the `<name>.tmp.<pid>.<seq>` siblings produced
/// by [`atomic_write`] between temp-write and rename). Only files whose
/// name extends `path`'s own file name are considered, and only when the
/// owning pid is provably dead — live writers in this or another process
/// are never raced. Returns how many files were removed; IO errors while
/// scanning are swallowed (the sweep is best-effort hygiene, never a
/// reason to fail a load).
pub fn sweep_orphaned_tmp(path: &Path) -> usize {
    let Some(dir) = path.parent() else {
        return 0;
    };
    let dir = if dir.as_os_str().is_empty() {
        Path::new(".")
    } else {
        dir
    };
    let Some(base) = path.file_name().and_then(|n| n.to_str()) else {
        return 0;
    };
    sweep_dir_with(dir, |name| {
        name.strip_prefix(base)
            .filter(|rest| rest.starts_with(".tmp."))
            .is_some()
    })
}

/// Removes every provably-orphaned `*.tmp.<pid>.<seq>` file directly
/// inside `dir`, regardless of which final file it was destined for.
/// Same safety rules as [`sweep_orphaned_tmp`]; used by stores that own
/// a whole directory rather than a single index path.
pub fn sweep_orphaned_tmp_dir(dir: &Path) -> usize {
    sweep_dir_with(dir, |_| true)
}

fn sweep_dir_with(dir: &Path, applies: impl Fn(&str) -> bool) -> usize {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut removed = 0;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if !applies(name) {
            continue;
        }
        let Some(pid) = parse_tmp_pid(name) else {
            continue;
        };
        if tmp_owner_is_dead(pid) && std::fs::remove_file(entry.path()).is_ok() {
            removed += 1;
        }
    }
    removed
}

// ---------------------------------------------------------------------
// Payload writer
// ---------------------------------------------------------------------

/// Serializes planes as `[len: u64][data]`, zero-padding each plane's
/// data to the next 8-byte boundary — what lets the reader borrow every
/// plane in place.
#[derive(Default)]
struct PayloadWriter {
    out: Vec<u8>,
}

impl PayloadWriter {
    fn u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    /// One length-prefixed plane, each element written through `le`,
    /// padded to the next 8-byte payload boundary. The header is itself
    /// [`HEADER_LEN`] = 48 bytes, so payload-relative alignment is
    /// absolute file alignment.
    fn plane<T: Copy, const N: usize>(&mut self, v: &[T], le: impl Fn(T) -> [u8; N]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.out.extend_from_slice(&le(x));
        }
        while !self.out.len().is_multiple_of(8) {
            self.out.push(0);
        }
    }

    fn dict(&mut self, dict: &DistDict) {
        self.plane(&dict.table, |d: f64| d.to_bits().to_le_bytes());
        // The width takes a whole word so the code plane's length
        // prefix stays aligned.
        match &dict.codes {
            CodePlane::U8(c) => {
                self.u64(1);
                self.plane(c, |x: u8| [x]);
            }
            CodePlane::U16(c) => {
                self.u64(2);
                self.plane(c, u16::to_le_bytes);
            }
            CodePlane::U32(c) => {
                self.u64(4);
                self.plane(c, u32::to_le_bytes);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Payload reader (bounds-checked cursor over an aligned region)
// ---------------------------------------------------------------------

/// The one payload reader, shared by every load mode. Walks the payload
/// of an 8-byte-aligned [`MmapRegion`] — a kernel mapping or a heap
/// buffer, the reader cannot tell — and hands each `[len: u64][data][pad8]`
/// plane back as a [`Plane::borrowed`] view into it: no decode, no copy.
/// Every length prefix is checked against the remaining payload before
/// anything is borrowed, every pad byte must be zero, and alignment
/// (guaranteed by the writer's padding) is re-checked by
/// `Plane::borrowed` anyway.
struct BorrowCursor<'a> {
    region: &'a Arc<MmapRegion>,
    payload_len: usize,
    /// Payload-relative position; the plane's absolute byte offset is
    /// `HEADER_LEN + pos`.
    pos: usize,
}

impl<'a> BorrowCursor<'a> {
    fn new(region: &'a Arc<MmapRegion>) -> BorrowCursor<'a> {
        BorrowCursor {
            region,
            payload_len: region.as_bytes().len() - HEADER_LEN,
            pos: 0,
        }
    }

    fn u64(&mut self) -> Result<u64, PersistError> {
        let end = self.pos.checked_add(8).ok_or(PersistError::Truncated)?;
        if end > self.payload_len {
            return Err(PersistError::Truncated);
        }
        let b = &self.region.as_bytes()[HEADER_LEN + self.pos..HEADER_LEN + end];
        self.pos = end;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    /// Reads one `[len: u64][data][pad8]` plane as a borrow into the
    /// region. A count the remaining bytes cannot hold fails before
    /// anything is borrowed.
    fn plane<T: PlanePod>(&mut self) -> Result<Plane<T>, PersistError> {
        let n = usize::try_from(self.u64()?).map_err(|_| PersistError::Truncated)?;
        let end = n
            .checked_mul(std::mem::size_of::<T>())
            .and_then(|len| self.pos.checked_add(len))
            .ok_or(PersistError::Truncated)?;
        let padded = end
            .checked_add(end.wrapping_neg() % 8)
            .ok_or(PersistError::Truncated)?;
        if padded > self.payload_len {
            return Err(PersistError::Truncated);
        }
        // A nonzero pad byte means the file was not produced by our
        // writer.
        let pad = &self.region.as_bytes()[HEADER_LEN + end..HEADER_LEN + padded];
        if pad.iter().any(|&b| b != 0) {
            return Err(PersistError::Corrupt("nonzero plane padding byte"));
        }
        let plane = Plane::borrowed(self.region, HEADER_LEN + self.pos, n)
            .ok_or(PersistError::Corrupt("plane misaligned"))?;
        self.pos = padded;
        Ok(plane)
    }

    /// The value table, the width word, then the code plane at that
    /// width.
    fn dict(&mut self) -> Result<DistDict, PersistError> {
        let table = self.plane()?;
        let codes = match self.u64()? {
            1 => CodePlane::U8(self.plane()?),
            2 => CodePlane::U16(self.plane()?),
            4 => CodePlane::U32(self.plane()?),
            _ => return Err(PersistError::Corrupt("unknown code width")),
        };
        Ok(DistDict { table, codes })
    }

    fn finish(&self) -> Result<(), PersistError> {
        if self.pos != self.payload_len {
            return Err(PersistError::Corrupt("trailing bytes after payload"));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Structural validation
// ---------------------------------------------------------------------

/// Entry-offset invariants every backend shares: `nodes + 1` values,
/// starting at 0, monotone nondecreasing, ending at `entries`.
fn validate_offsets(offsets: &[u32], nodes: usize, entries: usize) -> Result<(), PersistError> {
    if offsets.len() != nodes + 1 {
        return Err(PersistError::Corrupt("offset array length != nodes + 1"));
    }
    if offsets[0] != 0 {
        return Err(PersistError::Corrupt("offset array does not start at 0"));
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(PersistError::Corrupt("entry offsets not monotone"));
    }
    if offsets[offsets.len() - 1] as usize != entries {
        return Err(PersistError::Corrupt("offset array end != entry count"));
    }
    Ok(())
}

/// Flat-rank invariant: strictly ascending hub ranks within every node's
/// slice (what the merge-join and scatter scans rely on). Returns the
/// maximum rank seen (`None` when there are no entries) — ascent means
/// only each slice's last rank competes — so the caller can enforce the
/// vertex-rank bound and the stored `max_rank` word in the same pass.
fn validate_csr_ranks(offsets: &[u32], ranks: &[u32]) -> Result<Option<u32>, PersistError> {
    let mut max: Option<u32> = None;
    for v in 0..offsets.len() - 1 {
        let slice = &ranks[offsets[v] as usize..offsets[v + 1] as usize];
        if slice.windows(2).any(|w| w[0] >= w[1]) {
            return Err(PersistError::Corrupt(
                "hub ranks not strictly ascending within a node",
            ));
        }
        if let Some(&last) = slice.last() {
            max = Some(max.map_or(last, |m| m.max(last)));
        }
    }
    Ok(max)
}

/// Byte-offset invariants of the varint backends: `nodes + 1` values,
/// starting at 0, monotone nondecreasing, ending at the byte-stream
/// length.
fn validate_byte_offsets(
    byte_offsets: &[u32],
    nodes: usize,
    rank_bytes_len: usize,
) -> Result<(), PersistError> {
    if byte_offsets.len() != nodes + 1 {
        return Err(PersistError::Corrupt(
            "byte-offset array length != nodes + 1",
        ));
    }
    if byte_offsets[0] != 0 {
        return Err(PersistError::Corrupt(
            "byte-offset array does not start at 0",
        ));
    }
    if byte_offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(PersistError::Corrupt("byte offsets not monotone"));
    }
    if byte_offsets[nodes] as usize != rank_bytes_len {
        return Err(PersistError::Corrupt(
            "byte-offset array end != rank byte count",
        ));
    }
    Ok(())
}

/// Varint-block invariants: byte offsets monotone and in range, every
/// block holding exactly one well-formed varint per entry, consuming
/// exactly its bytes, and decoding to ranks that ascend strictly without
/// wrapping `u32`. Runs the checked decoder — the unchecked hot-path
/// form is only ever fed blocks that passed here. Returns the maximum
/// decoded rank, as [`validate_csr_ranks`] does.
fn validate_varint_blocks(
    offsets: &[u32],
    byte_offsets: &[u32],
    rank_bytes: &[u8],
    nodes: usize,
) -> Result<Option<u32>, PersistError> {
    validate_byte_offsets(byte_offsets, nodes, rank_bytes.len())?;
    let mut max: Option<u32> = None;
    for v in 0..nodes {
        let block = &rank_bytes[byte_offsets[v] as usize..byte_offsets[v + 1] as usize];
        let count = (offsets[v + 1] - offsets[v]) as usize;
        let mut pos = 0usize;
        // rank_{-1} = -1; rank_i = rank_{i-1} + gap_i + 1, tracked in u64
        // so a stream that would wrap u32 (breaking the strict ascent the
        // decoders assume) is caught here instead.
        let mut rank: u64 = u64::MAX; // wraps to gap_0 on the first add
        for _ in 0..count {
            let gap = try_read_varint(block, &mut pos)?;
            rank = rank.wrapping_add(gap as u64).wrapping_add(1);
            if rank > u32::MAX as u64 {
                return Err(PersistError::Corrupt("decoded hub rank exceeds u32"));
            }
        }
        // Ascent means only the block's last rank competes for the max.
        if count > 0 {
            let last = rank as u32;
            max = Some(max.map_or(last, |m| m.max(last)));
        }
        if pos != block.len() {
            return Err(PersistError::Corrupt(
                "varint block longer than its entry count",
            ));
        }
    }
    Ok(max)
}

/// The caller-side half of the rank checks: the payload's leading
/// `max_rank` word must agree with the ranks actually decoded, and, when
/// the caller asked for it, every rank must be a valid vertex rank
/// (`max < nodes`).
fn check_max_rank(
    computed: Option<u32>,
    stored: u64,
    rank_bound: Option<u32>,
) -> Result<(), PersistError> {
    if stored != computed.map_or(0, |m| m as u64) {
        return Err(PersistError::Corrupt(
            "max-rank field does not match label planes",
        ));
    }
    if let (Some(bound), Some(max)) = (rank_bound, computed) {
        if max >= bound {
            return Err(PersistError::Corrupt("hub rank exceeds node count"));
        }
    }
    Ok(())
}

/// Dictionary invariants: the code plane at the canonical width for the
/// table size, code count == entry count, the value table finite,
/// non-negative and strictly ascending by bit pattern (bit order is
/// numeric order, so this also rejects duplicates), and every code
/// inside the table (`O(table + entries)`).
fn validate_dict(dict: &DistDict, entries: usize) -> Result<(), PersistError> {
    let expected_width = if dict.table.len() <= 1 << 8 {
        1
    } else if dict.table.len() <= 1 << 16 {
        2
    } else {
        4
    };
    let (width, len, max_code) = match &dict.codes {
        CodePlane::U8(c) => (1, c.len(), c.iter().map(|&x| x as usize).max()),
        CodePlane::U16(c) => (2, c.len(), c.iter().map(|&x| x as usize).max()),
        CodePlane::U32(c) => (4, c.len(), c.iter().map(|&x| x as usize).max()),
    };
    if width != expected_width {
        return Err(PersistError::Corrupt(
            "code width not canonical for table size",
        ));
    }
    if len != entries {
        return Err(PersistError::Corrupt("code count != entry count"));
    }
    let table: &[f64] = &dict.table;
    // -0.0 is rejected too: its sign bit would break the sorted-by-bits
    // = sorted-numeric equivalence the encoder relies on.
    if table.iter().any(|d| !d.is_finite() || d.is_sign_negative()) {
        return Err(PersistError::Corrupt(
            "dictionary table value not finite and non-negative",
        ));
    }
    if table.windows(2).any(|w| w[0].to_bits() >= w[1].to_bits()) {
        return Err(PersistError::Corrupt(
            "dictionary table not strictly ascending",
        ));
    }
    if max_code.is_some_and(|max| max >= table.len()) {
        return Err(PersistError::Corrupt("dictionary code out of range"));
    }
    Ok(())
}

/// Every structural invariant the unchecked hot-path decoders rely on,
/// for whichever backend `store` holds: plane lengths, offsets, rank
/// ascent (flat or varint), the stored `max_rank` word and optional
/// vertex-rank bound, and the dictionary. Offsets are checked before
/// anything is sliced by them.
fn validate_store(
    store: &LabelStore,
    nodes: usize,
    entries: usize,
    stored_max_rank: u64,
    rank_bound: Option<u32>,
) -> Result<(), PersistError> {
    let plane_lengths_match = match store {
        LabelStore::Csr(l) => l.hub_ranks.len() == entries && l.dists.len() == entries,
        LabelStore::CsrDict(l) => l.hub_ranks.len() == entries,
        // The code plane's length is checked with the dictionary.
        LabelStore::CompressedDict(_) => true,
    };
    if !plane_lengths_match {
        return Err(PersistError::Corrupt("plane length != entry count"));
    }
    let max = match store {
        LabelStore::Csr(l) => {
            validate_offsets(&l.offsets, nodes, entries)?;
            validate_csr_ranks(&l.offsets, &l.hub_ranks)?
        }
        LabelStore::CsrDict(l) => {
            validate_offsets(&l.offsets, nodes, entries)?;
            validate_csr_ranks(&l.offsets, &l.hub_ranks)?
        }
        LabelStore::CompressedDict(l) => {
            validate_offsets(&l.offsets, nodes, entries)?;
            validate_varint_blocks(&l.offsets, &l.byte_offsets, &l.rank_bytes, nodes)?
        }
    };
    check_max_rank(max, stored_max_rank, rank_bound)?;
    match store {
        LabelStore::CsrDict(l) => validate_dict(&l.dists, entries),
        LabelStore::CompressedDict(l) => validate_dict(&l.dists, entries),
        LabelStore::Csr(_) => Ok(()),
    }
}

/// The header's storage tag for `storage`. Tags are part of the file
/// format, so they are fixed here rather than derived from
/// [`LabelStorage::ALL`]: tag 1 named a removed backend (varint ranks
/// with flat `f64` distances) and is never reused.
fn storage_tag(storage: LabelStorage) -> u8 {
    match storage {
        LabelStorage::Csr => 0,
        LabelStorage::CsrDict => 2,
        LabelStorage::CompressedDict => 3,
    }
}

/// The backend a header's storage tag names (inverse of [`storage_tag`]).
fn storage_of_tag(tag: u8) -> Result<LabelStorage, PersistError> {
    match tag {
        0 => Ok(LabelStorage::Csr),
        2 => Ok(LabelStorage::CsrDict),
        3 => Ok(LabelStorage::CompressedDict),
        _ => Err(PersistError::BadStorageTag(tag)),
    }
}

/// The fixed header, parsed and cross-checked against the caller's
/// snapshot — every check a load runs before touching a single payload
/// byte.
struct Header {
    storage: LabelStorage,
    fp: SnapshotFingerprint,
    stored_checksum: u64,
}

impl Header {
    fn read(
        bytes: &[u8],
        expected_nodes: usize,
        expected_graph_hash: u64,
    ) -> Result<Header, PersistError> {
        // Checks length >= HEADER_LEN, magic, and version.
        let fp = SnapshotFingerprint::read_from_bytes(bytes)?;
        let storage = storage_of_tag(bytes[6])?;
        if bytes[7] != 0 {
            return Err(PersistError::Corrupt("reserved header byte not zero"));
        }
        let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
        let payload_len = u64_at(32);
        let stored_checksum = u64_at(40);
        if fp.nodes != expected_nodes as u64 {
            return Err(PersistError::StaleIndex {
                what: "nodes",
                expected: expected_nodes as u64,
                found: fp.nodes,
            });
        }
        if fp.graph_hash != expected_graph_hash {
            return Err(PersistError::StaleIndex {
                what: "graph hash",
                expected: expected_graph_hash,
                found: fp.graph_hash,
            });
        }
        // Offsets are u32, so both counts must fit.
        if fp.nodes >= u32::MAX as u64 || fp.entries > u32::MAX as u64 {
            return Err(PersistError::Corrupt("node or entry count exceeds u32"));
        }
        let actual = (bytes.len() - HEADER_LEN) as u64;
        if payload_len != actual {
            return Err(if payload_len > actual {
                PersistError::Truncated
            } else {
                PersistError::Corrupt("trailing bytes after payload")
            });
        }
        Ok(Header {
            storage,
            fp,
            stored_checksum,
        })
    }
}

// ---------------------------------------------------------------------
// LabelStore serialization
// ---------------------------------------------------------------------

impl LabelStore {
    /// Serializes this store into the on-disk byte format — `max_rank`
    /// word first, then 8-byte-aligned planes — stamping `graph_hash`
    /// (see [`graph_fingerprint`]) into the header fingerprint. The
    /// inverse of [`LabelStore::from_bytes`], and the layout every load
    /// borrows without decoding.
    pub fn to_bytes(&self, graph_hash: u64) -> Vec<u8> {
        let u32_le = u32::to_le_bytes;
        let f64_le = |d: f64| d.to_bits().to_le_bytes();
        let u8_le = |b: u8| [b];
        let mut w = PayloadWriter::default();
        w.u64(self.max_hub_rank().map_or(0, |m| m as u64));
        match self {
            LabelStore::Csr(l) => {
                w.plane(&l.offsets, u32_le);
                w.plane(&l.hub_ranks, u32_le);
                w.plane(&l.dists, f64_le);
            }
            LabelStore::CsrDict(l) => {
                w.plane(&l.offsets, u32_le);
                w.plane(&l.hub_ranks, u32_le);
                w.dict(&l.dists);
            }
            LabelStore::CompressedDict(l) => {
                w.plane(&l.offsets, u32_le);
                w.plane(&l.byte_offsets, u32_le);
                w.plane(&l.rank_bytes, u8_le);
                w.dict(&l.dists);
            }
        }
        let payload = w.out;
        let stats = self.stats();
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.push(storage_tag(self.storage()));
        out.push(0); // reserved
        out.extend_from_slice(&(stats.nodes as u64).to_le_bytes());
        out.extend_from_slice(&(stats.total_entries as u64).to_le_bytes());
        out.extend_from_slice(&graph_hash.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&checksum(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// The maximum hub rank across every node's label list (`None` when
    /// the store has no entries) — the payload's leading word, which
    /// every load cross-checks against the decoded ranks.
    fn max_hub_rank(&self) -> Option<u32> {
        // Ranks ascend within a node, so each list's last entry competes.
        (0..self.num_nodes())
            .filter_map(|v| self.entries(v).last())
            .map(|e| e.hub_rank)
            .max()
    }

    /// Loads a store from untrusted bytes: copies them into an aligned
    /// heap region and runs the one reader, [`LabelStore::from_region`].
    ///
    /// Returns `Err` — never panics — on any malformed, truncated,
    /// corrupt, or stale input.
    pub fn from_bytes(
        bytes: &[u8],
        expected_nodes: usize,
        expected_graph_hash: u64,
    ) -> Result<LabelStore, PersistError> {
        LabelStore::from_region(
            &MmapRegion::from_bytes(bytes),
            expected_nodes,
            expected_graph_hash,
        )
    }

    /// Loads a store from an index file's bytes in `region`, validating
    /// the header against the caller's snapshot (`expected_nodes`,
    /// `expected_graph_hash`), the payload checksum, and every
    /// structural invariant of the stored backend — offsets, rank
    /// ascent, varint blocks, the `max_rank` word, the dictionary —
    /// before any decoder touches the data. The planes of the returned
    /// store borrow `region` in place and pin it for as long as they
    /// live; mutation copies on write.
    ///
    /// Every load goes through here, whatever backs the region, so a
    /// mapped file and a heap copy of the same bytes give the same store
    /// or the same error. Returns `Err` — never panics — on any
    /// malformed, truncated, corrupt, or stale input.
    pub fn from_region(
        region: &Arc<MmapRegion>,
        expected_nodes: usize,
        expected_graph_hash: u64,
    ) -> Result<LabelStore, PersistError> {
        Self::from_region_impl(region, expected_nodes, expected_graph_hash, false)
    }

    /// [`LabelStore::from_region`] plus, when `ranks_are_vertex_ranks`,
    /// the PLL-level invariant that every hub rank is `< nodes` —
    /// checked inside the single validation pass over the rank planes.
    pub(crate) fn from_region_impl(
        region: &Arc<MmapRegion>,
        expected_nodes: usize,
        expected_graph_hash: u64,
        ranks_are_vertex_ranks: bool,
    ) -> Result<LabelStore, PersistError> {
        let bytes = region.as_bytes();
        let header = Header::read(bytes, expected_nodes, expected_graph_hash)?;
        if checksum(&bytes[HEADER_LEN..]) != header.stored_checksum {
            return Err(PersistError::ChecksumMismatch);
        }
        let mut cur = BorrowCursor::new(region);
        let stored_max_rank = cur.u64()?;
        // Struct-literal fields evaluate in the order written, which is
        // the payload's plane order.
        let store = match header.storage {
            LabelStorage::Csr => LabelStore::Csr(LabelSet {
                offsets: cur.plane()?,
                hub_ranks: cur.plane()?,
                dists: cur.plane()?,
            }),
            LabelStorage::CsrDict => LabelStore::CsrDict(DictLabelSet {
                offsets: cur.plane()?,
                hub_ranks: cur.plane()?,
                dists: cur.dict()?,
            }),
            LabelStorage::CompressedDict => LabelStore::CompressedDict(CompressedDictLabelSet {
                offsets: cur.plane()?,
                byte_offsets: cur.plane()?,
                rank_bytes: cur.plane()?,
                dists: cur.dict()?,
            }),
        };
        cur.finish()?;
        let nodes = header.fp.nodes as usize;
        let rank_bound = ranks_are_vertex_ranks.then_some(nodes as u32);
        validate_store(
            &store,
            nodes,
            header.fp.entries as usize,
            stored_max_rank,
            rank_bound,
        )?;
        Ok(store)
    }

    /// Memory-maps the index at `path` and borrows every label plane in
    /// place. Same reader and validation as [`LabelStore::load_from`];
    /// see [`IndexLoadMode`] for when to pick which. The returned store
    /// pins the mapping for as long as it (or anything cloned from it)
    /// lives.
    pub fn load_mmap(path: &Path, graph: &ExpertGraph) -> Result<LabelStore, PersistError> {
        let region = MmapRegion::map_file(path)?;
        LabelStore::from_region(&region, graph.num_nodes(), graph_fingerprint(graph))
    }

    /// Saves this store to `path` as a versioned dump fingerprinted with
    /// `graph` (the graph the index was built from). The write goes
    /// through [`atomic_write`]: a uniquely-named sibling temp file
    /// (extension appended, pid + sequence suffixed — concurrent savers
    /// never share a temp path) and an atomic rename, so a crashed or
    /// racing save never leaves a half-written index at `path`.
    pub fn save_to(&self, path: &Path, graph: &ExpertGraph) -> Result<(), PersistError> {
        let bytes = self.to_bytes(graph_fingerprint(graph));
        atomic_write(path, &bytes).map_err(PersistError::Io)
    }

    /// Reads the index at `path` into a heap region and loads it,
    /// rejecting files whose fingerprint does not match `graph` (see
    /// [`LabelStore::from_region`] for the validation guarantees).
    pub fn load_from(path: &Path, graph: &ExpertGraph) -> Result<LabelStore, PersistError> {
        let region = MmapRegion::read_file(path)?;
        LabelStore::from_region(&region, graph.num_nodes(), graph_fingerprint(graph))
    }

    /// [`LabelStore::save_to`] under a [`RetryPolicy`]: transient I/O
    /// failures are retried with capped backoff; structural failures
    /// cannot occur on save.
    pub fn save_to_with_retry(
        &self,
        path: &Path,
        graph: &ExpertGraph,
        retry: &RetryPolicy,
    ) -> Result<(), PersistError> {
        retry.run(|_| self.save_to(path, graph))
    }

    /// [`LabelStore::load_from`] under a [`RetryPolicy`]: transient I/O
    /// failures are retried with capped backoff; a stale, corrupt, or
    /// truncated file fails immediately (re-reading cannot fix bytes).
    pub fn load_from_with_retry(
        path: &Path,
        graph: &ExpertGraph,
        retry: &RetryPolicy,
    ) -> Result<LabelStore, PersistError> {
        retry.run(|_| LabelStore::load_from(path, graph))
    }
}

impl PrunedLandmarkLabeling {
    /// Persists this index to `path`; see [`LabelStore::save_to`].
    pub fn save_to(&self, path: &Path, graph: &ExpertGraph) -> Result<(), PersistError> {
        self.labels().save_to(path, graph)
    }

    /// Loads a previously saved index for `graph` from `path` — the fast
    /// half of the load-or-build cold start — by reading the file into a
    /// heap region ([`IndexLoadMode::Owned`]). On top of the store-level
    /// validation this requires every hub rank to be a valid vertex rank
    /// (`< num_nodes`), which is what lets [`SourceScatter`] scratch
    /// arrays stay direct-indexed and unchecked.
    ///
    /// The loaded index answers every query bit-identically to the build
    /// that produced the file; its build profile is empty and
    /// `build_time` reports the load wall time.
    ///
    /// [`SourceScatter`]: crate::scatter::SourceScatter
    pub fn load_from(
        path: &Path,
        graph: &ExpertGraph,
    ) -> Result<PrunedLandmarkLabeling, PersistError> {
        let start = Instant::now();
        PrunedLandmarkLabeling::load_region(MmapRegion::read_file(path)?, graph, start)
    }

    /// [`PrunedLandmarkLabeling::load_from`] over a memory mapping of the
    /// file instead of a heap copy ([`IndexLoadMode::Mmap`]): the same
    /// reader and validation, with the planes borrowed straight from the
    /// page cache (see [`LabelStore::load_mmap`]).
    ///
    /// Queries are bit-identical to [`PrunedLandmarkLabeling::load_from`]
    /// and to the build that produced the file.
    pub fn load_mmap(
        path: &Path,
        graph: &ExpertGraph,
    ) -> Result<PrunedLandmarkLabeling, PersistError> {
        let start = Instant::now();
        PrunedLandmarkLabeling::load_region(MmapRegion::map_file(path)?, graph, start)
    }

    fn load_region(
        region: Arc<MmapRegion>,
        graph: &ExpertGraph,
        start: Instant,
    ) -> Result<PrunedLandmarkLabeling, PersistError> {
        // The rank bound rides inside the one structural validation pass
        // — the load path never decodes the labels a second time.
        let store = LabelStore::from_region_impl(
            &region,
            graph.num_nodes(),
            graph_fingerprint(graph),
            true,
        )?;
        Ok(PrunedLandmarkLabeling::from_loaded_store(
            store,
            start.elapsed(),
        ))
    }

    /// [`PrunedLandmarkLabeling::load_mmap`] under a [`RetryPolicy`] —
    /// transient I/O failures retried, structural failures immediate,
    /// exactly like [`PrunedLandmarkLabeling::load_from_with_retry`].
    pub fn load_mmap_with_retry(
        path: &Path,
        graph: &ExpertGraph,
        retry: &RetryPolicy,
    ) -> Result<PrunedLandmarkLabeling, PersistError> {
        retry.run(|_| PrunedLandmarkLabeling::load_mmap(path, graph))
    }

    /// [`PrunedLandmarkLabeling::save_to`] under a [`RetryPolicy`] —
    /// see [`LabelStore::save_to_with_retry`].
    pub fn save_to_with_retry(
        &self,
        path: &Path,
        graph: &ExpertGraph,
        retry: &RetryPolicy,
    ) -> Result<(), PersistError> {
        retry.run(|_| self.save_to(path, graph))
    }

    /// [`PrunedLandmarkLabeling::load_from`] under a [`RetryPolicy`] —
    /// see [`LabelStore::load_from_with_retry`]. This is the load half
    /// used by both the `DiscoveryOptions::pll_index_path` cold start
    /// and the background snapshot-swap thread in `atd-serve`.
    pub fn load_from_with_retry(
        path: &Path,
        graph: &ExpertGraph,
        retry: &RetryPolicy,
    ) -> Result<PrunedLandmarkLabeling, PersistError> {
        retry.run(|_| PrunedLandmarkLabeling::load_from(path, graph))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::LabelEntry;

    fn e(hub_rank: u32, dist: f64) -> LabelEntry {
        LabelEntry { hub_rank, dist }
    }

    fn lists() -> Vec<Vec<LabelEntry>> {
        vec![
            vec![e(0, 0.25), e(1, 1.5), e(3, 2.0)],
            vec![],
            vec![e(2, 0.25), e(3, 1.5)],
        ]
    }

    fn stores() -> Vec<LabelStore> {
        let l = lists();
        vec![
            LabelStore::from(LabelSet::from_lists(&l)),
            LabelStore::from(DictLabelSet::from_lists(&l)),
            LabelStore::from(CompressedDictLabelSet::from_lists(&l)),
        ]
    }

    const HASH: u64 = 0xfeed_f00d;

    #[test]
    fn storage_tags_are_pinned() {
        // Files written before a backend was removed must keep loading as
        // the same backend: the tag byte is format, not enum position.
        let tags: Vec<(LabelStorage, u8)> = stores()
            .iter()
            .map(|s| (s.storage(), s.to_bytes(HASH)[6]))
            .collect();
        assert_eq!(
            tags,
            [
                (LabelStorage::Csr, 0),
                (LabelStorage::CsrDict, 2),
                (LabelStorage::CompressedDict, 3)
            ]
        );
    }

    #[test]
    fn roundtrips_every_backend_bit_identically() {
        for store in stores() {
            let bytes = store.to_bytes(HASH);
            let loaded = LabelStore::from_bytes(&bytes, store.num_nodes(), HASH)
                .unwrap_or_else(|err| panic!("{:?}: {err}", store.storage()));
            assert_eq!(loaded.storage(), store.storage());
            assert_eq!(loaded.stats(), store.stats());
            for v in 0..store.num_nodes() {
                let a: Vec<LabelEntry> = store.entries(v).collect();
                let b: Vec<LabelEntry> = loaded.entries(v).collect();
                assert_eq!(a.len(), b.len());
                for (x, y) in a.iter().zip(&b) {
                    assert_eq!(x.hub_rank, y.hub_rank);
                    assert_eq!(x.dist.to_bits(), y.dist.to_bits());
                }
            }
        }
    }

    #[test]
    fn stale_fingerprints_are_rejected() {
        let store = &stores()[0];
        let bytes = store.to_bytes(HASH);
        assert!(matches!(
            LabelStore::from_bytes(&bytes, store.num_nodes(), HASH + 1),
            Err(PersistError::StaleIndex {
                what: "graph hash",
                ..
            })
        ));
        assert!(matches!(
            LabelStore::from_bytes(&bytes, store.num_nodes() + 1, HASH),
            Err(PersistError::StaleIndex { what: "nodes", .. })
        ));
    }

    #[test]
    fn graph_fingerprint_tracks_edges_and_weights() {
        use atd_graph::GraphBuilder;
        let build = |w: f64, extra: bool| {
            let mut b = GraphBuilder::new();
            let u = b.add_node(1.0);
            let v = b.add_node(2.0);
            let x = b.add_node(3.0);
            b.add_edge(u, v, w).unwrap();
            if extra {
                b.add_edge(v, x, 1.0).unwrap();
            }
            b.build().unwrap()
        };
        let base = graph_fingerprint(&build(0.5, false));
        assert_eq!(base, graph_fingerprint(&build(0.5, false)), "deterministic");
        assert_ne!(base, graph_fingerprint(&build(0.75, false)), "weight");
        assert_ne!(base, graph_fingerprint(&build(0.5, true)), "topology");
    }

    #[test]
    fn header_fingerprint_matches_snapshot_fingerprint_of() {
        use atd_graph::GraphBuilder;
        let mut b = GraphBuilder::new();
        let u = b.add_node(1.0);
        let v = b.add_node(2.0);
        b.add_edge(u, v, 0.5).unwrap();
        let g = b.build().unwrap();
        let store = LabelStore::from(LabelSet::from_lists(&[vec![e(0, 0.0)], vec![e(0, 0.5)]]));
        let bytes = store.to_bytes(graph_fingerprint(&g));
        let read = SnapshotFingerprint::read_from_bytes(&bytes).unwrap();
        assert_eq!(read, SnapshotFingerprint::of(&g, &store));
        assert_eq!(read.nodes, 2);
        assert_eq!(read.entries, 2);
        assert!(matches!(
            SnapshotFingerprint::read_from_bytes(&bytes[..HEADER_LEN - 1]),
            Err(PersistError::Truncated)
        ));
    }

    #[test]
    fn empty_stores_roundtrip() {
        for store in [
            LabelStore::from(LabelSet::new(0)),
            LabelStore::from(LabelSet::new(3)),
            LabelStore::from(DictLabelSet::from_lists(&[vec![], vec![]])),
            LabelStore::from(CompressedDictLabelSet::from_lists(&[vec![]])),
        ] {
            let bytes = store.to_bytes(0);
            let loaded = LabelStore::from_bytes(&bytes, store.num_nodes(), 0).expect("roundtrip");
            assert_eq!(loaded.stats(), store.stats());
        }
    }

    fn io_err() -> PersistError {
        PersistError::Io(std::io::Error::other("disk hiccup"))
    }

    #[test]
    fn only_io_errors_are_transient() {
        assert!(io_err().is_transient());
        for e in [
            PersistError::BadMagic,
            PersistError::UnsupportedVersion(9),
            PersistError::BadStorageTag(7),
            PersistError::ChecksumMismatch,
            PersistError::Truncated,
            PersistError::Corrupt("x"),
        ] {
            assert!(!e.is_transient(), "{e}");
        }
    }

    #[test]
    fn retry_recovers_from_transient_failures_with_backoff() {
        let policy = RetryPolicy {
            attempts: 4,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(25),
        };
        let mut slept = Vec::new();
        let result = policy.run_with_sleep(
            |attempt| {
                if attempt < 3 {
                    Err(io_err())
                } else {
                    Ok(attempt)
                }
            },
            |d| slept.push(d),
        );
        assert_eq!(result.unwrap(), 3, "third attempt succeeds");
        // Exponential, capped: 10 ms, then 20 ms (2^1·10), cap 25 never hit.
        assert_eq!(
            slept,
            vec![Duration::from_millis(10), Duration::from_millis(20)]
        );
    }

    #[test]
    fn retry_caps_backoff_and_gives_up_after_attempts() {
        let policy = RetryPolicy {
            attempts: 5,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(15),
        };
        let mut slept = Vec::new();
        let mut calls = 0u32;
        let result: Result<(), _> = policy.run_with_sleep(
            |_| {
                calls += 1;
                Err(io_err())
            },
            |d| slept.push(d),
        );
        assert!(result.is_err());
        assert_eq!(calls, 5, "every attempt consumed");
        assert_eq!(slept.len(), 4, "no sleep after the final failure");
        // 10, then capped at 15 forever.
        assert_eq!(slept[0], Duration::from_millis(10));
        for &d in &slept[1..] {
            assert_eq!(d, Duration::from_millis(15));
        }
    }

    #[test]
    fn retry_does_not_retry_structural_errors() {
        let mut calls = 0u32;
        let result: Result<(), _> = RetryPolicy::default().run_with_sleep(
            |_| {
                calls += 1;
                Err(PersistError::ChecksumMismatch)
            },
            |_| panic!("structural errors must not sleep"),
        );
        assert!(matches!(result, Err(PersistError::ChecksumMismatch)));
        assert_eq!(calls, 1, "corrupt bytes are not retried");
    }

    #[test]
    fn retry_none_is_a_single_attempt() {
        let mut calls = 0u32;
        let result: Result<(), _> = RetryPolicy::none().run_with_sleep(
            |_| {
                calls += 1;
                Err(io_err())
            },
            |_| panic!("no sleeping"),
        );
        assert!(result.is_err());
        assert_eq!(calls, 1);
    }

    #[test]
    fn load_with_retry_survives_missing_then_present_file() {
        // End-to-end: the file "appears" between attempts (as when a
        // concurrent save's rename lands), and the retried load succeeds.
        use atd_graph::GraphBuilder;
        let mut b = GraphBuilder::new();
        let u = b.add_node(1.0);
        let v = b.add_node(2.0);
        b.add_edge(u, v, 0.5).unwrap();
        let g = b.build().unwrap();
        let store = LabelStore::from(LabelSet::from_lists(&[vec![e(0, 0.0)], vec![e(0, 0.5)]]));
        let dir = std::env::temp_dir().join(format!("atd_retry_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("late.atdl");
        let policy = RetryPolicy {
            attempts: 3,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(1),
        };
        let mut sleeps = 0u32;
        let loaded = policy
            .run_with_sleep(
                |_| {
                    let r = LabelStore::load_from(&path, &g);
                    if r.is_err() {
                        // Save so the *next* attempt sees the file.
                        store.save_to(&path, &g).unwrap();
                    }
                    r
                },
                |_| sleeps += 1,
            )
            .expect("second attempt loads");
        assert_eq!(sleeps, 1);
        assert_eq!(loaded.stats(), store.stats());
        std::fs::remove_dir_all(&dir).ok();
    }
}
