//! Read-only memory mapping for zero-copy snapshot loads.
//!
//! The `SFOS` codec stores the CSR arrays as contiguous little-endian `u32` sections, so
//! on a 64-bit little-endian unix host a snapshot can be *borrowed* from the page cache
//! instead of copied into the heap: map the file once, checksum-verify it once, and hand
//! [`CsrGraph`](crate::CsrGraph) slices that point straight into the mapping. This module
//! is the whole machinery behind that:
//!
//! * [`MappedFile`] — a minimal `extern "C"` shim over `mmap(2)`/`munmap(2)` (no new
//!   dependencies; the two symbols come from the platform libc every Rust binary already
//!   links). The mapping is `PROT_READ`/`MAP_PRIVATE`, so the kernel shares pages with
//!   the page cache and writes are impossible by construction.
//! * [`MappedCsr`] — a `(file, byte-range, byte-range)` triple proven 4-byte-aligned and
//!   in-bounds at construction, exposing the `offsets`/`targets` sections as `&[u32]` /
//!   `&[NodeId]`. `NodeId` is `#[repr(transparent)]` over `u32`, which is what makes the
//!   reinterpretation sound.
//!
//! The module is compiled only on `unix` + 64-bit + little-endian targets (the `i64`
//! file-offset in the `mmap` signature and the in-place `u32` reads are only correct
//! there); every other target — and any file whose sections fail the alignment check —
//! takes the documented read-based fallback in [`crate::snapshot`], which produces an
//! owned, byte-identical graph. This is the one module in the workspace permitted to use
//! `unsafe`; the rest of the crate denies it (see `lib.rs`).
//!
//! Safety caveat shared by every mmap consumer: the mapping is only as immutable as the
//! file. Snapshots in this workspace are written once by `sfo snapshot build` (or
//! `save`) and never appended to, and the checksum is verified by reading the same open
//! file the mapping was made from, right after it is established; truncating a snapshot while a process serves it would fault
//! that process, exactly as it would any mmap-based store.

#![allow(unsafe_code)]

use crate::NodeId;
use std::ffi::c_void;
use std::ops::Range;
use std::sync::Arc;

/// `PROT_READ` on every unix this workspace targets.
const PROT_READ: i32 = 1;
/// `MAP_PRIVATE` on every unix this workspace targets.
const MAP_PRIVATE: i32 = 2;

extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: i32,
        flags: i32,
        fd: i32,
        offset: i64,
    ) -> *mut c_void;
    fn munmap(addr: *mut c_void, len: usize) -> i32;
}

/// A whole file mapped read-only into the address space.
///
/// Dropping the value unmaps it; clones are shared through [`Arc`] by the callers that
/// need the mapping to outlive a borrow (see [`MappedCsr`]).
#[derive(Debug)]
pub(crate) struct MappedFile {
    ptr: *mut c_void,
    len: usize,
}

// SAFETY: the mapping is PROT_READ and never handed out mutably — concurrent reads from
// any thread are exactly reads of immutable memory.
unsafe impl Send for MappedFile {}
unsafe impl Sync for MappedFile {}

impl MappedFile {
    /// Maps the open `file` read-only in its entirety.
    ///
    /// # Errors
    ///
    /// Returns the underlying OS error when the file cannot be mapped. Empty files are
    /// reported as an error (`mmap` rejects zero-length mappings); callers fall back to
    /// the read-based loader, which produces the same typed snapshot error a zero-length
    /// file always produced.
    pub(crate) fn map(file: &std::fs::File) -> std::io::Result<MappedFile> {
        use std::os::unix::io::AsRawFd;
        let len = usize::try_from(file.metadata()?.len())
            .map_err(|_| std::io::Error::other("file too large to map"))?;
        if len == 0 {
            return Err(std::io::Error::other("cannot map an empty file"));
        }
        // SAFETY: a fresh anonymous-address read-only mapping of a file descriptor the
        // caller keeps open for the duration of the call; the kernel validates every argument and
        // returns MAP_FAILED (-1) on any problem.
        let ptr = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ,
                MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(MappedFile { ptr, len })
    }

    /// Borrows the mapped bytes.
    pub(crate) fn bytes(&self) -> &[u8] {
        // SAFETY: `ptr` is a live PROT_READ mapping of exactly `len` bytes, valid until
        // `self` drops, and nothing can write through it.
        unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
    }
}

impl Drop for MappedFile {
    fn drop(&mut self) {
        // SAFETY: `ptr`/`len` are exactly what mmap returned; unmapping once on drop is
        // the contract. Failure is unrecoverable and ignored (the process address space
        // is in an undefined state only if the arguments were wrong, which they cannot
        // be here).
        unsafe {
            let _ = munmap(self.ptr, self.len);
        }
    }
}

/// The CSR sections of a mapped snapshot, proven aligned and in-bounds.
///
/// Holds the mapping alive through an [`Arc`]; the accessors reinterpret the two byte
/// ranges as the typed arrays [`CsrGraph`](crate::CsrGraph) traverses. Cloning is two
/// range copies and an `Arc` bump — a mapped graph clones in O(1).
#[derive(Debug, Clone)]
pub(crate) struct MappedCsr {
    file: Arc<MappedFile>,
    offsets: Range<usize>,
    targets: Range<usize>,
}

impl MappedCsr {
    /// Wraps the `offsets`/`targets` byte ranges of `file`, or returns `None` when a
    /// range is out of bounds, not a multiple of 4 long, or not 4-byte aligned in the
    /// mapping (a provenance label of non-multiple-of-4 length shifts the arrays; such
    /// files take the owned fallback).
    ///
    /// The mapping base is page-aligned, so checking the in-file byte offset checks the
    /// pointer alignment too; the debug assertion below keeps that assumption honest.
    pub(crate) fn new(
        file: Arc<MappedFile>,
        offsets: Range<usize>,
        targets: Range<usize>,
    ) -> Option<Self> {
        let bytes = file.bytes();
        for range in [&offsets, &targets] {
            if range.start > range.end || range.end > bytes.len() {
                return None;
            }
            if range.len() % 4 != 0 || range.start % 4 != 0 {
                return None;
            }
            debug_assert_eq!(bytes[range.start..].as_ptr() as usize % 4, 0);
        }
        Some(MappedCsr {
            file,
            offsets,
            targets,
        })
    }

    /// The `offsets` section as the typed array, borrowed from the mapping.
    #[inline]
    pub(crate) fn offsets(&self) -> &[u32] {
        let bytes = &self.file.bytes()[self.offsets.clone()];
        // SAFETY: the range was proven 4-aligned and a multiple of 4 long at
        // construction; on this (little-endian) target `u32` has no invalid bit
        // patterns, so reinterpreting read-only bytes is sound and value-correct.
        unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const u32, bytes.len() / 4) }
    }

    /// The `targets` section as the typed array, borrowed from the mapping.
    #[inline]
    pub(crate) fn targets(&self) -> &[NodeId] {
        let bytes = &self.file.bytes()[self.targets.clone()];
        // SAFETY: as in `offsets`, plus `NodeId` is `#[repr(transparent)]` over `u32`,
        // so the two types share layout and validity exactly.
        unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const NodeId, bytes.len() / 4) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn temp_file(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("sfo-mmap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, bytes).unwrap();
        path
    }

    fn map_path(path: &Path) -> std::io::Result<MappedFile> {
        MappedFile::map(&std::fs::File::open(path)?)
    }

    #[test]
    fn mapping_reads_the_file_back_verbatim() {
        let payload: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let path = temp_file("verbatim.bin", &payload);
        let mapped = map_path(&path).unwrap();
        assert_eq!(mapped.bytes(), payload.as_slice());
        drop(mapped);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_and_missing_files_error_instead_of_mapping() {
        let path = temp_file("empty.bin", b"");
        assert!(map_path(&path).is_err());
        std::fs::remove_file(&path).unwrap();
        assert!(map_path(Path::new("/definitely/not/a/file")).is_err());
    }

    #[test]
    fn mapped_csr_reinterprets_aligned_sections() {
        let mut bytes = Vec::new();
        for v in [0u32, 2, 5, 9] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        for v in [7u32, 3, 1, 0, 4, 4, 2, 2, 6] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        let path = temp_file("csr.bin", &bytes);
        let file = Arc::new(map_path(&path).unwrap());
        let csr = MappedCsr::new(Arc::clone(&file), 0..16, 16..52).unwrap();
        assert_eq!(csr.offsets(), &[0, 2, 5, 9]);
        let targets: Vec<u32> = csr.targets().iter().map(|n| n.as_u32()).collect();
        assert_eq!(targets, vec![7, 3, 1, 0, 4, 4, 2, 2, 6]);
        // Clones share the mapping.
        let clone = csr.clone();
        assert_eq!(clone.offsets(), csr.offsets());
        drop((csr, clone, file));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn misaligned_or_out_of_bounds_sections_are_refused() {
        let path = temp_file("misaligned.bin", &[0u8; 64]);
        let file = Arc::new(map_path(&path).unwrap());
        // Misaligned start.
        assert!(MappedCsr::new(Arc::clone(&file), 2..10, 12..16).is_none());
        // Length not a multiple of 4.
        assert!(MappedCsr::new(Arc::clone(&file), 0..10, 12..16).is_none());
        // Out of bounds.
        assert!(MappedCsr::new(Arc::clone(&file), 0..4, 60..72).is_none());
        // Inverted range.
        #[allow(clippy::reversed_empty_ranges)]
        {
            assert!(MappedCsr::new(Arc::clone(&file), 8..4, 12..16).is_none());
        }
        drop(file);
        std::fs::remove_file(&path).unwrap();
    }
}
