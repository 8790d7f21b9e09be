//! Byte regions and typed array views — the storage substrate behind
//! [`Document`](crate::Document)'s two backings.
//!
//! A [`ByteRegion`] is an immutable, 8-byte-aligned run of bytes that is
//! either **owned** (a heap buffer this process filled) or **mapped**
//! (a read-only private `mmap(2)` of a snapshot file — zero parse, zero
//! copy). An [`Arr<T>`] is a typed array handle over plain-old-data
//! element types: either a heap `Arc<[T]>` produced by the builder and
//! parser, or a validated slice view into a shared `ByteRegion`. Every
//! flat arena in the document model (node link arrays, kind bytes, the
//! string arena, name/id/ref tables, the axis-index arrays) is stored as
//! an `Arr`, so the accessor code path is the same for parsed and
//! mmap'd documents.
//!
//! The workspace has no external dependencies, so the mapping itself is a
//! raw Linux `mmap` syscall (x86-64 and aarch64); everywhere else — and
//! under Miri, and when [`NO_MMAP_ENV`] requests it — files are read into
//! an owned aligned buffer instead, which exercises the identical `Arr`
//! code path.
//!
//! # Safety
//!
//! This module is one of the workspace's scoped `unsafe` exemptions
//! (with [`crate::simd`] and [`crate::signal`]; the workspace lints pin
//! `unsafe_code = deny`). The argument:
//!
//! * a `ByteRegion`'s pointer/length pair is established once at
//!   construction — from a live `Box<[u64]>` it owns, or from a
//!   successful `mmap` return — and never mutated; the backing is
//!   released only in `Drop`, so `bytes()` always derives a slice from a
//!   valid allocation. Mappings are `PROT_READ`/`MAP_PRIVATE`, and the
//!   store never maps a file it is concurrently writing (snapshots are
//!   published by atomic rename), so the contents are immutable for the
//!   region's lifetime;
//! * [`Arr::mapped`] is a *validating* constructor: element types are
//!   restricted to the sealed [`Pod`] contract (no padding, every bit
//!   pattern valid, alignment ≤ 8), and offset alignment and byte-range
//!   bounds are checked against the region before the view is created,
//!   so `as_slice` can never read out of bounds or at bad alignment;
//! * the `Send`/`Sync` impls are sound because both backings are
//!   immutable shared memory with no interior mutability;
//! * `as_bytes` casts `&[T]` down to `&[u8]`, which is always
//!   layout-valid for `Pod` element types (no padding bytes, alignment
//!   of `u8` is 1).
#![allow(unsafe_code)]

use std::fmt;
use std::fs::File;
use std::io::{self, Read};
use std::path::Path;
use std::sync::Arc;

/// Environment variable: set to `1` to disable `mmap(2)` and make
/// snapshot loads read files into owned aligned buffers instead (the
/// fallback path used on unsupported platforms and under Miri).
pub const NO_MMAP_ENV: &str = "GKP_SNAP_NO_MMAP";

/// Plain-old-data marker for element types storable in a [`ByteRegion`].
///
/// # Safety
/// Implementors must have no padding bytes, no invalid bit patterns, no
/// drop glue, and alignment ≤ 8 (the region alignment guarantee).
pub(crate) unsafe trait Pod: Copy + Sized + 'static {}

unsafe impl Pod for u8 {}
unsafe impl Pod for u32 {}
unsafe impl Pod for u64 {}

/// View a `Pod` slice as raw little-endian-in-memory bytes (used by the
/// snapshot writer and checksummer; this crate only targets
/// little-endian hosts, enforced in [`crate::snap`]).
pub(crate) fn as_bytes<T: Pod>(s: &[T]) -> &[u8] {
    // SAFETY: `Pod` guarantees no padding; u8 has alignment 1 and the
    // byte length cannot overflow because the slice exists.
    unsafe { std::slice::from_raw_parts(s.as_ptr().cast::<u8>(), std::mem::size_of_val(s)) }
}

enum Backing {
    /// Heap buffer owned by the region. `u64` storage guarantees 8-byte
    /// alignment. Held only for its allocation; read through `ptr`.
    Owned(#[allow(dead_code)] Box<[u64]>),
    /// Pages obtained from `mmap`; released with `munmap` on drop.
    #[cfg_attr(
        not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))),
        allow(dead_code)
    )]
    Mapped,
}

/// An immutable, 8-byte-aligned byte buffer: owned heap memory or a
/// read-only file mapping. Shared via `Arc` by every [`Arr`] view.
pub(crate) struct ByteRegion {
    ptr: *const u8,
    len: usize,
    backing: Backing,
}

// SAFETY: the region is immutable after construction (read-only mapping
// or owned buffer, no interior mutability); `Drop` needs `&mut self`,
// which `Arc` only grants to the last owner.
unsafe impl Send for ByteRegion {}
unsafe impl Sync for ByteRegion {}

impl Drop for ByteRegion {
    fn drop(&mut self) {
        #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
        if matches!(self.backing, Backing::Mapped) {
            // SAFETY: ptr/len came from a successful mmap of exactly
            // this length, unmapped exactly once (here).
            unsafe { sys::munmap(self.ptr, self.len) };
        }
    }
}

impl ByteRegion {
    /// Copy `bytes` into a fresh owned region (8-byte aligned).
    #[cfg(test)]
    pub fn from_bytes(bytes: &[u8]) -> ByteRegion {
        let words = vec![0u64; bytes.len().div_ceil(8)].into_boxed_slice();
        let ptr = words.as_ptr().cast::<u8>();
        // SAFETY: the word buffer spans at least `bytes.len()` bytes and
        // is freshly owned, so the copy is in-bounds and unaliased.
        unsafe {
            std::ptr::copy_nonoverlapping(bytes.as_ptr(), ptr.cast_mut(), bytes.len());
        }
        ByteRegion { ptr, len: bytes.len(), backing: Backing::Owned(words) }
    }

    /// Open `path` as a read-only region. Uses `mmap(2)` where available
    /// (Linux x86-64/aarch64, not under Miri, not when [`NO_MMAP_ENV`]
    /// is set); otherwise reads the file into an owned aligned buffer.
    /// Returns the region and whether it is memory-mapped.
    pub fn map_file(path: &Path) -> io::Result<(ByteRegion, bool)> {
        let mut file = File::open(path)?;
        let len = file.metadata()?.len();
        let len = usize::try_from(len)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "file too large to map"))?;
        if mmap_enabled() && len > 0 {
            if let Some(region) = Self::try_mmap(&file, len) {
                return Ok((region, true));
            }
        }
        Ok((Self::read_all(&mut file, len)?, false))
    }

    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64"),
        not(miri)
    ))]
    fn try_mmap(file: &File, len: usize) -> Option<ByteRegion> {
        use std::os::fd::AsRawFd;
        // SAFETY: fd is a live file descriptor, PROT_READ + MAP_PRIVATE;
        // a failed return is detected and reported as None.
        let ptr = unsafe { sys::mmap_ro(file.as_raw_fd(), len)? };
        debug_assert_eq!(ptr as usize % 8, 0, "mmap returns page-aligned memory");
        Some(ByteRegion { ptr, len, backing: Backing::Mapped })
    }

    #[cfg(not(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64"),
        not(miri)
    )))]
    fn try_mmap(_file: &File, _len: usize) -> Option<ByteRegion> {
        None
    }

    /// Read `path` into an owned aligned region unconditionally (the
    /// explicit no-mmap path, e.g. `OpenOptions { mmap: false }`).
    pub fn read_file(path: &Path) -> io::Result<ByteRegion> {
        let mut file = File::open(path)?;
        let len = file.metadata()?.len();
        let len = usize::try_from(len)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "file too large to read"))?;
        Self::read_all(&mut file, len)
    }

    fn read_all(file: &mut File, len: usize) -> io::Result<ByteRegion> {
        let mut words = vec![0u64; len.div_ceil(8)].into_boxed_slice();
        let ptr = words.as_ptr().cast::<u8>();
        {
            // SAFETY: the word buffer spans at least `len` bytes; the
            // mutable view is dropped before `words` is moved.
            let dst =
                unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr().cast::<u8>(), len) };
            file.read_exact(dst)?;
        }
        Ok(ByteRegion { ptr, len, backing: Backing::Owned(words) })
    }

    /// The region's contents.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        // SAFETY: ptr/len are valid for the region's lifetime (see the
        // module safety argument).
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// Length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the region came from `mmap` (vs. an owned buffer).
    pub fn is_mapped(&self) -> bool {
        matches!(self.backing, Backing::Mapped)
    }
}

fn mmap_enabled() -> bool {
    !matches!(std::env::var(NO_MMAP_ENV).ok().as_deref(), Some("1" | "true"))
}

/// A typed immutable array: heap-owned or a validated view into a shared
/// [`ByteRegion`]. Cloning is O(1) (an `Arc` bump) in both backings.
pub(crate) enum Arr<T: Pod> {
    /// Heap-owned elements (builder/parser output).
    Owned(Arc<[T]>),
    /// Borrowed from a mapped region; `_keep` pins the region alive.
    Mapped { _keep: Arc<ByteRegion>, ptr: *const T, len: usize },
}

// SAFETY: `Pod` elements are plain shared data; the mapped backing is
// immutable for the region's lifetime (see module docs).
unsafe impl<T: Pod> Send for Arr<T> {}
unsafe impl<T: Pod> Sync for Arr<T> {}

impl<T: Pod> Clone for Arr<T> {
    fn clone(&self) -> Self {
        match self {
            Arr::Owned(v) => Arr::Owned(Arc::clone(v)),
            Arr::Mapped { _keep, ptr, len } => {
                Arr::Mapped { _keep: Arc::clone(_keep), ptr: *ptr, len: *len }
            }
        }
    }
}

impl<T: Pod + fmt::Debug> fmt::Debug for Arr<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tag = if matches!(self, Arr::Owned(_)) { "owned" } else { "mapped" };
        write!(f, "Arr<{tag}>[{}]", self.len())
    }
}

impl<T: Pod> Arr<T> {
    /// Take ownership of a heap vector.
    pub fn from_vec(v: Vec<T>) -> Arr<T> {
        Arr::Owned(v.into())
    }

    /// Create a view of `byte_len` bytes at `off` inside `region`,
    /// reinterpreted as `[T]`. Fails (with a static description) if the
    /// offset is misaligned for `T`, the byte length is not a multiple
    /// of `size_of::<T>()`, or the range is out of bounds.
    pub fn mapped(
        region: &Arc<ByteRegion>,
        off: usize,
        byte_len: usize,
    ) -> Result<Arr<T>, &'static str> {
        let size = std::mem::size_of::<T>();
        if !off.is_multiple_of(std::mem::align_of::<T>()) {
            return Err("misaligned section offset");
        }
        if !byte_len.is_multiple_of(size) {
            return Err("section length not a multiple of the element size");
        }
        let end = off.checked_add(byte_len).ok_or("section range overflows")?;
        if end > region.len() {
            return Err("section range out of bounds");
        }
        // SAFETY: the range is in bounds and aligned (region base is
        // 8-aligned, `Pod` caps element alignment at 8); `Pod` accepts
        // every bit pattern, and `_keep` pins the allocation.
        let ptr = unsafe { region.bytes().as_ptr().add(off).cast::<T>() };
        Ok(Arr::Mapped { _keep: Arc::clone(region), ptr, len: byte_len / size })
    }

    /// The elements.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        match self {
            Arr::Owned(v) => v,
            // SAFETY: established by the validating constructor; the
            // region outlives `self` via `_keep`.
            Arr::Mapped { ptr, len, .. } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
        }
    }

    /// Element count.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            Arr::Owned(v) => v.len(),
            Arr::Mapped { len, .. } => *len,
        }
    }

    /// Size of the element payload in bytes.
    pub fn byte_len(&self) -> usize {
        self.len() * std::mem::size_of::<T>()
    }
}

#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"), not(miri)))]
mod sys {
    //! Raw `mmap`/`munmap` syscalls (the workspace vendors no `libc`).

    use std::arch::asm;

    const PROT_READ: usize = 1;
    const MAP_PRIVATE: usize = 2;

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
        a1: usize,
        a2: usize,
        a3: usize,
        a4: usize,
        a5: usize,
        a6: usize,
    ) -> isize {
        let ret: isize;
        // SAFETY: caller passes a valid syscall number and arguments;
        // rcx/r11 are declared clobbered per the Linux x86-64 ABI.
        unsafe {
            asm!(
                "syscall",
                inlateout("rax") nr as isize => ret,
                in("rdi") a1,
                in("rsi") a2,
                in("rdx") a3,
                in("r10") a4,
                in("r8") a5,
                in("r9") a6,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret
    }

    #[cfg(target_arch = "aarch64")]
    unsafe fn syscall6(
        nr: usize,
        a1: usize,
        a2: usize,
        a3: usize,
        a4: usize,
        a5: usize,
        a6: usize,
    ) -> isize {
        let ret: isize;
        // SAFETY: caller passes a valid syscall number and arguments per
        // the Linux aarch64 ABI (number in x8, args in x0-x5).
        unsafe {
            asm!(
                "svc 0",
                inlateout("x0") a1 as isize => ret,
                in("x1") a2,
                in("x2") a3,
                in("x3") a4,
                in("x4") a5,
                in("x5") a6,
                in("x8") nr,
                options(nostack),
            );
        }
        ret
    }

    /// Map `len` bytes of `fd` read-only and private. `None` on failure.
    ///
    /// # Safety
    /// `fd` must be a live, readable file descriptor.
    pub unsafe fn mmap_ro(fd: i32, len: usize) -> Option<*const u8> {
        // SAFETY: forwarded contract; a negative return is an errno, not
        // a pointer, and is rejected below.
        let ret = unsafe {
            #[allow(clippy::cast_sign_loss)]
            syscall6(SYS_MMAP, 0, len, PROT_READ, MAP_PRIVATE, fd as usize, 0)
        };
        if (-4095..0).contains(&ret) {
            None
        } else {
            Some(ret as *const u8)
        }
    }

    /// Unmap a region previously returned by [`mmap_ro`].
    ///
    /// # Safety
    /// `ptr`/`len` must describe exactly one live mapping.
    pub unsafe fn munmap(ptr: *const u8, len: usize) {
        // SAFETY: forwarded contract.
        let _ = unsafe { syscall6(SYS_MUNMAP, ptr as usize, len, 0, 0, 0, 0) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owned_region_roundtrip() {
        let r = ByteRegion::from_bytes(&[1, 2, 3, 4, 5]);
        assert_eq!(r.bytes(), &[1, 2, 3, 4, 5]);
        assert_eq!(r.len(), 5);
        assert!(!r.is_mapped());
        assert_eq!(r.bytes().as_ptr() as usize % 8, 0);
    }

    #[test]
    fn arr_owned_and_mapped_agree() {
        let words: Vec<u32> = (0..100).collect();
        let owned = Arr::from_vec(words.clone());
        let region = Arc::new(ByteRegion::from_bytes(as_bytes(&words)));
        let mapped: Arr<u32> = Arr::mapped(&region, 0, 400).unwrap();
        assert_eq!(owned.as_slice(), mapped.as_slice());
        assert_eq!(mapped.len(), 100);
        assert_eq!(mapped.byte_len(), 400);
        let tail: Arr<u32> = Arr::mapped(&region, 8, 392).unwrap();
        assert_eq!(tail.as_slice()[0], 2);
        let cloned = mapped.clone();
        assert_eq!(cloned.as_slice(), owned.as_slice());
    }

    #[test]
    fn arr_mapped_rejects_bad_ranges() {
        let region = Arc::new(ByteRegion::from_bytes(&[0u8; 64]));
        assert!(Arr::<u32>::mapped(&region, 2, 8).is_err()); // misaligned
        assert!(Arr::<u32>::mapped(&region, 0, 6).is_err()); // ragged length
        assert!(Arr::<u32>::mapped(&region, 32, 64).is_err()); // out of bounds
        assert!(Arr::<u64>::mapped(&region, 4, 8).is_err()); // u64 misaligned
        assert!(Arr::<u8>::mapped(&region, 0, 64).is_ok());
    }

    #[test]
    fn map_file_reads_back_contents() {
        let path = crate::temp::TempPath::new("bytes_test.bin");
        let payload: Vec<u8> = (0..=255).collect();
        std::fs::write(&path, &payload).unwrap();
        let (region, _mapped) = ByteRegion::map_file(&path).unwrap();
        assert_eq!(region.bytes(), payload.as_slice());
        assert_eq!(region.bytes().as_ptr() as usize % 8, 0);
    }
}
