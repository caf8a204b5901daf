//! Borrowed-or-owned storage planes.
//!
//! Every label backend stores its data as a handful of flat, homogeneous
//! arrays — *planes*: CSR offsets, hub ranks, varint byte streams,
//! distance values, dictionary codes. [`Plane<T>`] abstracts where a
//! plane's memory lives:
//!
//! * **Owned** — a plain `Vec<T>`, produced by builders and incremental
//!   patching.
//! * **Borrowed** — a `&[T]` view into an [`MmapRegion`] (a file mapping
//!   or an aligned heap copy) holding an on-disk index, whose payload is
//!   laid out 8-byte-aligned precisely so planes can be reinterpreted in
//!   place. Every index load produces these. The plane holds an `Arc` to
//!   the region, so the region lives as long as any plane borrowed from
//!   it.
//!
//! Readers never see the difference: `Plane<T>` derefs to `[T]`, and all
//! query paths work on slices. Writers call [`Plane::vec_mut`], which
//! transparently copies a borrowed plane into owned storage first —
//! copy-on-write by construction, so nothing can ever write through a
//! shared mapping.
//!
//! Borrowing is only constructed by the persist layer, which guarantees
//! (and [`Plane::borrowed`] re-checks) alignment and bounds; element
//! types are restricted to the sealed [`PlanePod`] set, for which every
//! bit pattern is a valid value.

use std::sync::Arc;

use crate::mmap::MmapRegion;

mod sealed {
    pub trait Sealed {}
    impl Sealed for u8 {}
    impl Sealed for u16 {}
    impl Sealed for u32 {}
    impl Sealed for u64 {}
    impl Sealed for f64 {}
}

/// Marker for element types a plane may hold: plain-old-data numerics
/// where *any* bit pattern is a valid value, so reinterpreting aligned
/// little-endian file bytes as `[T]` is sound. Sealed — exactly
/// `u8`/`u16`/`u32`/`u64`/`f64`.
pub trait PlanePod: sealed::Sealed + Copy + Send + Sync + 'static {}
impl PlanePod for u8 {}
impl PlanePod for u16 {}
impl PlanePod for u32 {}
impl PlanePod for u64 {}
impl PlanePod for f64 {}

enum Repr<T: PlanePod> {
    Owned(Vec<T>),
    Borrowed {
        ptr: *const T,
        len: usize,
        /// Keeps the mapping alive; never read through directly.
        _backing: Arc<MmapRegion>,
    },
}

/// A flat array of `T` that is either owned (`Vec<T>`) or borrowed from
/// a reference-counted [`MmapRegion`]. Derefs to `[T]`; see the module
/// docs for the contract.
pub struct Plane<T: PlanePod> {
    repr: Repr<T>,
}

// SAFETY: `Borrowed` points into an immutable `MmapRegion` (read-only
// mapping or untouched heap buffer) kept alive by the Arc it carries;
// `Owned` is an ordinary Vec. Either way the data is plain `Copy`
// numerics with no interior mutability.
unsafe impl<T: PlanePod> Send for Plane<T> {}
unsafe impl<T: PlanePod> Sync for Plane<T> {}

impl<T: PlanePod> Plane<T> {
    /// An empty owned plane.
    pub fn new() -> Self {
        Plane {
            repr: Repr::Owned(Vec::new()),
        }
    }

    /// Borrow `len` elements of `T` starting `byte_offset` bytes into
    /// `backing`. Returns `None` when the requested window is out of
    /// bounds or misaligned for `T` — callers treat that as a corrupt
    /// file, not a panic. Zero-length borrows normalize to an owned
    /// empty plane (no reason to pin the mapping).
    pub fn borrowed(backing: &Arc<MmapRegion>, byte_offset: usize, len: usize) -> Option<Self> {
        if len == 0 {
            return Some(Plane::new());
        }
        let bytes = backing.as_bytes();
        let elem = std::mem::size_of::<T>();
        let total = len.checked_mul(elem)?;
        let end = byte_offset.checked_add(total)?;
        if end > bytes.len() {
            return None;
        }
        let ptr = bytes[byte_offset..].as_ptr();
        if !(ptr as usize).is_multiple_of(std::mem::align_of::<T>()) {
            return None;
        }
        Some(Plane {
            repr: Repr::Borrowed {
                ptr: ptr as *const T,
                len,
                _backing: Arc::clone(backing),
            },
        })
    }

    /// The plane as a slice (what `Deref` also gives).
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        match &self.repr {
            Repr::Owned(v) => v.as_slice(),
            // SAFETY: constructed by `borrowed` over an in-bounds,
            // aligned window of an immutable region pinned by `_backing`.
            Repr::Borrowed { ptr, len, .. } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
        }
    }

    /// True when the plane borrows from a region rather than owning its
    /// storage.
    pub fn is_borrowed(&self) -> bool {
        matches!(self.repr, Repr::Borrowed { .. })
    }

    /// True when the plane borrows from a live kernel mapping — zero
    /// copy — rather than owning its storage or borrowing a heap region.
    pub fn is_mapped(&self) -> bool {
        matches!(&self.repr, Repr::Borrowed { _backing, .. } if _backing.is_mapped())
    }

    /// Mutable access to the underlying `Vec`, converting a borrowed
    /// plane into owned storage first (copy-on-write). Builder and
    /// patch paths go through here, which is what guarantees nothing
    /// ever writes through a shared mapping.
    pub fn vec_mut(&mut self) -> &mut Vec<T> {
        if let Repr::Borrowed { .. } = self.repr {
            self.repr = Repr::Owned(self.as_slice().to_vec());
        }
        match &mut self.repr {
            Repr::Owned(v) => v,
            Repr::Borrowed { .. } => unreachable!("borrowed plane was just copied to owned"),
        }
    }

    /// The owned `Vec`, copying first if borrowed (copy-on-write).
    pub fn into_vec(mut self) -> Vec<T> {
        std::mem::take(self.vec_mut())
    }
}

impl<T: PlanePod> std::ops::Deref for Plane<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: PlanePod> From<Vec<T>> for Plane<T> {
    fn from(v: Vec<T>) -> Self {
        Plane {
            repr: Repr::Owned(v),
        }
    }
}

impl<T: PlanePod> Default for Plane<T> {
    fn default() -> Self {
        Plane::new()
    }
}

impl<T: PlanePod> Clone for Plane<T> {
    fn clone(&self) -> Self {
        match &self.repr {
            Repr::Owned(v) => Plane {
                repr: Repr::Owned(v.clone()),
            },
            // Cloning a borrow is cheap: same window, one more Arc ref.
            Repr::Borrowed { ptr, len, _backing } => Plane {
                repr: Repr::Borrowed {
                    ptr: *ptr,
                    len: *len,
                    _backing: Arc::clone(_backing),
                },
            },
        }
    }
}

impl<T: PlanePod + std::fmt::Debug> std::fmt::Debug for Plane<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: PlanePod + PartialEq> PartialEq for Plane<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region_of(bytes: &[u8]) -> Arc<MmapRegion> {
        let path = std::env::temp_dir().join(format!(
            "atd_plane_{}_{:?}.bin",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::write(&path, bytes).unwrap();
        let r = MmapRegion::map_file(&path).unwrap();
        std::fs::remove_file(&path).ok();
        r
    }

    #[test]
    fn owned_roundtrip_and_deref() {
        let p: Plane<u32> = vec![1, 2, 3].into();
        assert_eq!(&p[..], &[1, 2, 3]);
        assert_eq!(p.len(), 3);
        assert!(!p.is_borrowed());
        assert_eq!(p.clone().into_vec(), vec![1, 2, 3]);
    }

    #[test]
    fn borrowed_reads_the_mapped_bytes() {
        let mut bytes = Vec::new();
        for v in [10u32, 20, 30, 40] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        let region = region_of(&bytes);
        let p = Plane::<u32>::borrowed(&region, 0, 4).unwrap();
        assert!(p.is_borrowed());
        assert_eq!(&p[..], &[10, 20, 30, 40]);
        let q = Plane::<u32>::borrowed(&region, 8, 2).unwrap();
        assert_eq!(&q[..], &[30, 40]);
    }

    #[test]
    fn borrowed_rejects_out_of_bounds_and_misalignment() {
        let region = region_of(&[0u8; 64]);
        assert!(Plane::<u64>::borrowed(&region, 0, 9).is_none(), "past end");
        assert!(
            Plane::<u64>::borrowed(&region, 60, 1).is_none(),
            "tail past end"
        );
        assert!(
            Plane::<u64>::borrowed(&region, 4, 1).is_none(),
            "misaligned"
        );
        assert!(
            Plane::<u32>::borrowed(&region, 2, 1).is_none(),
            "misaligned u32"
        );
        assert!(
            Plane::<u8>::borrowed(&region, 3, 5).is_some(),
            "u8 never misaligned"
        );
        assert!(
            Plane::<u64>::borrowed(&region, usize::MAX, 2).is_none(),
            "offset overflow"
        );
    }

    #[test]
    fn zero_length_borrow_is_owned_and_does_not_pin() {
        let region = region_of(&[0u8; 8]);
        let p = Plane::<u64>::borrowed(&region, 0, 0).unwrap();
        assert!(!p.is_borrowed());
        assert!(p.is_empty());
        assert_eq!(Arc::strong_count(&region), 1);
    }

    #[test]
    fn vec_mut_copies_on_write_and_drops_the_pin() {
        let bytes: Vec<u8> = [1.5f64, 2.5, 3.5]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        let region = region_of(&bytes);
        let mut p = Plane::<f64>::borrowed(&region, 0, 3).unwrap();
        assert_eq!(Arc::strong_count(&region), 2);
        p.vec_mut().push(4.5);
        assert!(!p.is_borrowed());
        assert_eq!(&p[..], &[1.5, 2.5, 3.5, 4.5]);
        assert_eq!(Arc::strong_count(&region), 1, "CoW released the mapping");
        // The region still reads its original bytes.
        assert_eq!(region.as_bytes(), &bytes[..]);
    }

    #[test]
    fn clone_of_borrow_shares_the_region() {
        let region = region_of(&[0u8; 16]);
        let p = Plane::<u64>::borrowed(&region, 0, 2).unwrap();
        let q = p.clone();
        assert!(q.is_borrowed());
        assert_eq!(Arc::strong_count(&region), 3);
        drop(p);
        drop(q);
        assert_eq!(Arc::strong_count(&region), 1);
    }
}
