//! Read-only, 8-byte-aligned byte regions that index loads borrow from.
//!
//! [`MmapRegion`] holds the bytes of a persisted index file so
//! [`crate::persist`]'s one reader can borrow label planes straight out
//! of it instead of decoding them into owned `Vec`s. The bytes either
//! live in a kernel mapping of the file ([`MmapRegion::map_file`]) or in
//! an 8-byte-aligned heap buffer filled by one `read`
//! ([`MmapRegion::read_file`], [`MmapRegion::from_bytes`]); the reader
//! cannot tell the two apart. The region is reference-counted
//! (`Arc<MmapRegion>`): every borrowed [`crate::plane::Plane`] holds a
//! clone, so the bytes live exactly as long as the last plane (and,
//! through the serve layer, the last in-flight request pinning a
//! snapshot built over it).
//!
//! The build environment has no registry access, so instead of `memmap2`
//! this module issues the two syscalls it needs (`mmap`, `munmap`)
//! directly via inline assembly on Linux x86_64/aarch64; `map_file`
//! falls back to the heap buffer everywhere else (and for empty files,
//! which `mmap` rejects with `EINVAL`).
//!
//! # Safety contract
//!
//! Mappings are `PROT_READ` + `MAP_PRIVATE`: nothing in this process can
//! write through them. The persist layer never modifies an index file in
//! place — [`crate::persist::atomic_write`] always creates a fresh inode
//! and renames it over the path — so the bytes behind a mapping are
//! stable for its whole lifetime. Borrowed planes additionally require
//! 8-byte alignment, which `mmap` guarantees (page-aligned base) and the
//! heap fallback provides by allocating `u64` storage.

use std::fs::File;
use std::io::{self, Read as _};
use std::path::Path;
use std::sync::Arc;

/// Whether raw-syscall mapping is available on this target.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
const NATIVE_MMAP: bool = true;
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
const NATIVE_MMAP: bool = false;

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod sys {
    //! `mmap(2)` / `munmap(2)` via raw syscalls — no libc dependency.

    const PROT_READ: usize = 0x1;
    const MAP_PRIVATE: usize = 0x2;
    /// Pre-fault the whole mapping at map time so the first query pass
    /// doesn't pay per-page soft faults (the loader walks the payload
    /// once anyway to verify its checksum).
    const MAP_POPULATE: usize = 0x8000;

    #[cfg(target_arch = "x86_64")]
    const SYS_MMAP: usize = 9;
    #[cfg(target_arch = "x86_64")]
    const SYS_MUNMAP: usize = 11;
    #[cfg(target_arch = "aarch64")]
    const SYS_MMAP: usize = 222;
    #[cfg(target_arch = "aarch64")]
    const SYS_MUNMAP: usize = 215;

    #[cfg(target_arch = "x86_64")]
    unsafe fn syscall6(
        nr: usize,
        a: usize,
        b: usize,
        c: usize,
        d: usize,
        e: usize,
        f: usize,
    ) -> isize {
        let ret: isize;
        core::arch::asm!(
            "syscall",
            inlateout("rax") nr as isize => ret,
            in("rdi") a,
            in("rsi") b,
            in("rdx") c,
            in("r10") d,
            in("r8") e,
            in("r9") f,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
        ret
    }

    #[cfg(target_arch = "aarch64")]
    unsafe fn syscall6(
        nr: usize,
        a: usize,
        b: usize,
        c: usize,
        d: usize,
        e: usize,
        f: usize,
    ) -> isize {
        let ret: isize;
        core::arch::asm!(
            "svc 0",
            in("x8") nr,
            inlateout("x0") a => ret,
            in("x1") b,
            in("x2") c,
            in("x3") d,
            in("x4") e,
            in("x5") f,
            options(nostack),
        );
        ret
    }

    /// Kernel convention: errors come back as `-errno` in `[-4095, -1]`.
    fn check(ret: isize) -> std::io::Result<usize> {
        if (-4095..0).contains(&ret) {
            Err(std::io::Error::from_raw_os_error(-ret as i32))
        } else {
            Ok(ret as usize)
        }
    }

    /// Map `len` bytes of `fd` read-only and pre-faulted. `len` must be
    /// non-zero (the kernel rejects zero-length mappings).
    pub(super) fn map_readonly(fd: i32, len: usize) -> std::io::Result<*const u8> {
        let ret = unsafe {
            syscall6(
                SYS_MMAP,
                0,
                len,
                PROT_READ,
                MAP_PRIVATE | MAP_POPULATE,
                fd as usize,
                0,
            )
        };
        check(ret).map(|addr| addr as *const u8)
    }

    pub(super) fn unmap(ptr: *const u8, len: usize) {
        // Failure here would mean the mapping was already gone; there is
        // nothing useful to do with the error in a destructor.
        let _ = check(unsafe { syscall6(SYS_MUNMAP, ptr as usize, len, 0, 0, 0, 0) });
    }
}

enum Repr {
    /// A live kernel mapping; unmapped on drop.
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    Mapped { ptr: *const u8, len: usize },
    /// File contents read into an 8-byte-aligned heap buffer (`u64`
    /// storage); `len` is the real byte length, the final word may be
    /// zero-padded.
    Heap { buf: Vec<u64>, len: usize },
}

/// A read-only, 8-byte-aligned view of an index file, shared by every
/// plane borrowed from it.
///
/// Obtain one with [`MmapRegion::map_file`], [`MmapRegion::read_file`]
/// or [`MmapRegion::from_bytes`]; it is always returned inside an [`Arc`]
/// because its whole purpose is to outlive the loader and be pinned by
/// borrowed [`crate::plane::Plane`]s.
pub struct MmapRegion {
    repr: Repr,
}

// SAFETY: the region is immutable after construction (PROT_READ mapping
// or an owned buffer nobody writes to), so shared references can cross
// threads freely.
unsafe impl Send for MmapRegion {}
unsafe impl Sync for MmapRegion {}

impl MmapRegion {
    /// Map `path` read-only. Uses a real `mmap` on Linux
    /// x86_64/aarch64; everywhere else (and for empty files) reads the
    /// file into an 8-byte-aligned heap buffer instead.
    pub fn map_file(path: &Path) -> io::Result<Arc<MmapRegion>> {
        let (file, len) = open_with_len(path)?;

        #[cfg(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        ))]
        if len > 0 {
            use std::os::unix::io::AsRawFd;
            let ptr = sys::map_readonly(file.as_raw_fd(), len)?;
            // The descriptor can close now; the mapping keeps its own
            // reference to the inode.
            return Ok(Arc::new(MmapRegion {
                repr: Repr::Mapped { ptr, len },
            }));
        }

        MmapRegion::heap(len, |dst| (&file).read_exact(dst))
    }

    /// Read `path` into a private 8-byte-aligned heap buffer — one
    /// `read`, no mapping, on every target.
    pub fn read_file(path: &Path) -> io::Result<Arc<MmapRegion>> {
        let (file, len) = open_with_len(path)?;
        MmapRegion::heap(len, |dst| (&file).read_exact(dst))
    }

    /// Copy `bytes` into a private 8-byte-aligned heap buffer.
    pub fn from_bytes(bytes: &[u8]) -> Arc<MmapRegion> {
        MmapRegion::heap(bytes.len(), |dst| {
            dst.copy_from_slice(bytes);
            Ok(())
        })
        .expect("copying into memory cannot fail")
    }

    /// A zeroed `u64` buffer spanning `len` bytes, filled by `fill`.
    fn heap(
        len: usize,
        fill: impl FnOnce(&mut [u8]) -> io::Result<()>,
    ) -> io::Result<Arc<MmapRegion>> {
        let mut buf = vec![0u64; len.div_ceil(8)];
        // SAFETY: a `Vec<u64>` of ⌈len/8⌉ words spans at least `len`
        // initialized bytes; viewing them as `u8` is always valid.
        let dst = unsafe { std::slice::from_raw_parts_mut(buf.as_mut_ptr() as *mut u8, len) };
        fill(dst)?;
        Ok(Arc::new(MmapRegion {
            repr: Repr::Heap { buf, len },
        }))
    }

    /// The full file contents. The returned slice's base address is
    /// 8-byte aligned.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.repr {
            #[cfg(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            ))]
            Repr::Mapped { ptr, len } => {
                // SAFETY: the mapping covers `len` readable bytes and
                // stays valid until drop.
                unsafe { std::slice::from_raw_parts(*ptr, *len) }
            }
            Repr::Heap { buf, len } => {
                // SAFETY: as in `map_file`, the word buffer spans at
                // least `len` initialized bytes.
                unsafe { std::slice::from_raw_parts(buf.as_ptr() as *const u8, *len) }
            }
        }
    }

    /// Byte length of the region.
    pub fn len(&self) -> usize {
        match &self.repr {
            #[cfg(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            ))]
            Repr::Mapped { len, .. } => *len,
            Repr::Heap { len, .. } => *len,
        }
    }

    /// True when the region holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when backed by a live kernel mapping (page-cache sharing);
    /// false for a heap buffer.
    pub fn is_mapped(&self) -> bool {
        match &self.repr {
            #[cfg(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            ))]
            Repr::Mapped { .. } => true,
            Repr::Heap { .. } => false,
        }
    }

    /// Whether [`map_file`](Self::map_file) can produce real mappings on
    /// this target (it still heap-loads empty files).
    pub fn native_mmap_supported() -> bool {
        NATIVE_MMAP
    }
}

/// Opens `path` and returns it with its length, refusing files larger
/// than the address space.
fn open_with_len(path: &Path) -> io::Result<(File, usize)> {
    let file = File::open(path)?;
    let len = usize::try_from(file.metadata()?.len()).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            "index file exceeds the address space",
        )
    })?;
    Ok((file, len))
}

impl Drop for MmapRegion {
    fn drop(&mut self) {
        #[cfg(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        ))]
        if let Repr::Mapped { ptr, len } = self.repr {
            sys::unmap(ptr, len);
        }
    }
}

impl std::fmt::Debug for MmapRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MmapRegion")
            .field("len", &self.len())
            .field("mapped", &self.is_mapped())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "atd_mmap_{tag}_{}_{:?}.bin",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    #[test]
    fn maps_file_contents_exactly() {
        let path = tmp_path("contents");
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        std::fs::write(&path, &data).unwrap();
        let region = MmapRegion::map_file(&path).unwrap();
        assert_eq!(region.as_bytes(), &data[..]);
        assert_eq!(region.len(), data.len());
        assert_eq!(region.as_bytes().as_ptr() as usize % 8, 0, "8-aligned base");
        #[cfg(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        ))]
        assert!(region.is_mapped());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_file_heap_loads() {
        let path = tmp_path("empty");
        std::fs::write(&path, b"").unwrap();
        let region = MmapRegion::map_file(&path).unwrap();
        assert!(region.is_empty());
        assert!(!region.is_mapped());
        assert_eq!(region.as_bytes(), b"");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_a_clean_error() {
        let err = MmapRegion::map_file(Path::new("/definitely/not/here.atdl")).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn region_outlives_many_clones_across_threads() {
        let path = tmp_path("threads");
        std::fs::write(&path, vec![7u8; 4096 * 3 + 5]).unwrap();
        let region = MmapRegion::map_file(&path).unwrap();
        std::fs::remove_file(&path).ok(); // mapping keeps the inode alive
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let r = Arc::clone(&region);
                std::thread::spawn(move || r.as_bytes().iter().map(|&b| b as u64).sum::<u64>())
            })
            .collect();
        let expect = 7u64 * (4096 * 3 + 5);
        for h in handles {
            assert_eq!(h.join().unwrap(), expect);
        }
    }
}
