//! Storage backings for an opened container: a read-only memory map on
//! platforms that support the zero-copy path, or an 8-byte-aligned heap
//! buffer everywhere (and as the explicit portable fallback).
//!
//! This module owns the store's storage `unsafe`; the only other `unsafe`
//! in `hcl-store` is the CRC kernel's CPU-feature dispatch and 16-byte
//! loads in `checksum.rs` (and the CLI has its signal FFI). The
//! invariants here are narrow and local:
//!
//! * [`Mmap`] wraps a `PROT_READ`/`MAP_PRIVATE` mapping of the whole file;
//!   the pointer is page-aligned (so 8-byte aligned) and valid for `len`
//!   bytes until `munmap` in `Drop`.
//! * [`AlignedBuf`] stores bytes inside a `Vec<u64>`, guaranteeing 8-byte
//!   base alignment for the same zero-copy slice casts the mmap path uses.
//! * [`cast_u32s`] / [`cast_u64s`] reinterpret validated, aligned byte
//!   ranges; both element types accept any bit pattern, so the casts are
//!   sound whenever alignment and length (checked by the format validator)
//!   hold.
//! * [`le_bytes`] is the other direction, for the writer: a `u32`/`u64`
//!   slice viewed as its bytes on little-endian targets (every byte of
//!   those types is initialised, and `u8` needs no alignment), an owned
//!   little-endian copy elsewhere.
//! * [`LargePages`] is the `hcl` binary's global allocator. A block of
//!   at least [`HUGE_PAGE`] bytes is its own anonymous private mapping,
//!   advised `MADV_HUGEPAGE` before anything touches it, resized with
//!   `mremap` and returned with `munmap`; the mapping is page-aligned (so
//!   any alignment up to [`MAX_MAPPED_ALIGN`] holds) and zero-filled by
//!   the kernel. The layout `dealloc` and `realloc` receive is the one the
//!   block was made with, so the same size test sends every block back to
//!   whoever made it. Every other block, and every block off Linux or
//!   under Miri, is `System`'s.
//!
//! Why a large-block allocator: a build touches each of its big
//! random-access arrays (edge buffer, CSR, sweep cells, label arrays) for
//! the first time once, and reads them at random after. On 4 KiB pages
//! that is one fault per 4 KiB on first touch and, under a hypervisor, a
//! two-dimensional page walk on each TLB miss; a 2 MiB page takes one
//! fault and one TLB entry for 512 of them (Navarro, Iyer, Druschel &
//! Cox, *Practical, transparent operating system support for
//! superpages*, OSDI 2002). Where transparent huge pages are `madvise`
//! only, nothing gets them unasked, and advising a block `System` returned
//! comes too late: `calloc` and `realloc` have already touched it. A freed
//! mapping also goes back to the OS at once instead of staying in the
//! `malloc` heap under later, still-live allocations. The query path does
//! not move: a mapped container is already served from the page cache's
//! large folios, and a query's scratch is far below a huge page.

use std::alloc::{GlobalAlloc, Layout, System};
use std::borrow::Cow;

/// Read-only whole-file memory mapping (64-bit little-endian Unix only —
/// the only platforms where the zero-copy serving path is enabled).
#[cfg(all(unix, not(miri), target_pointer_width = "64", target_endian = "little"))]
pub(crate) mod mmap {
    use std::fs::File;
    use std::io;
    use std::os::fd::AsRawFd;
    use std::os::raw::{c_int, c_void};

    const PROT_READ: c_int = 1;
    const MAP_PRIVATE: c_int = 2;

    // Direct libc FFI: the build environment has no registry access, so the
    // usual `memmap2` crate is not available. The symbols below are part of
    // POSIX and linked through std's libc dependency on every Unix target
    // this module compiles for (64-bit, so `off_t` is `i64`).
    extern "C" {
        fn mmap(
            addr: *mut c_void,
            length: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, length: usize) -> c_int;
    }

    /// An immutable, whole-file, private memory mapping.
    pub(crate) struct Mmap {
        ptr: std::ptr::NonNull<c_void>,
        len: usize,
    }

    // SAFETY: the mapping is PROT_READ and never handed out mutably;
    // moving ownership of the pointer to another thread is sound.
    unsafe impl Send for Mmap {}
    // SAFETY: all access is through `&self` returning `&[u8]` into
    // read-only pages; concurrent readers cannot race.
    unsafe impl Sync for Mmap {}

    impl Mmap {
        /// Maps `len` bytes of `file` read-only. `len` must be non-zero and
        /// no larger than the file (enforced by the caller reading the
        /// file's metadata immediately beforehand).
        pub(crate) fn map(file: &File, len: usize) -> io::Result<Self> {
            if len == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "cannot map an empty file",
                ));
            }
            // SAFETY: fd is a valid open file for the duration of the call;
            // we request a fresh private read-only mapping and check for
            // MAP_FAILED ((void*)-1) before trusting the result.
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
            if ptr == usize::MAX as *mut c_void || ptr.is_null() {
                return Err(io::Error::last_os_error());
            }
            Ok(Self {
                // SAFETY: checked non-null above.
                ptr: unsafe { std::ptr::NonNull::new_unchecked(ptr) },
                len,
            })
        }

        /// The mapped bytes.
        pub(crate) fn bytes(&self) -> &[u8] {
            // SAFETY: ptr is a live PROT_READ mapping of exactly `len`
            // bytes, page-aligned, valid until Drop unmaps it.
            unsafe { std::slice::from_raw_parts(self.ptr.as_ptr().cast::<u8>(), self.len) }
        }
    }

    impl Drop for Mmap {
        fn drop(&mut self) {
            // SAFETY: ptr/len describe a mapping we own and have not
            // unmapped before; failure here is unrecoverable but harmless.
            unsafe {
                munmap(self.ptr.as_ptr(), self.len);
            }
        }
    }
}

/// The smallest block [`LargePages`] maps itself: one x86-64 / AArch64
/// (4 KiB granule) huge page. Smaller blocks would waste most of a huge
/// page, or get none.
pub(crate) const HUGE_PAGE: usize = 2 << 20;

/// The largest alignment a mapped block is served at: the base page size
/// every mapping start is a multiple of. A layout asking for more goes to
/// `System`.
pub(crate) const MAX_MAPPED_ALIGN: usize = 4096;

/// A global allocator that puts every large block on huge pages.
///
/// A layout of at least `HUGE_PAGE` (2 MiB) with an alignment of at
/// most `MAX_MAPPED_ALIGN` (4 KiB) is served from an anonymous mapping of
/// its own, advised `MADV_HUGEPAGE` before its first touch: one fault and
/// one TLB entry per 2 MiB instead of 512. `alloc_zeroed` takes the
/// kernel's zero pages as they are, `realloc` resizes the mapping with
/// `mremap(MREMAP_MAYMOVE)` (page tables move, bytes are not copied; a
/// `realloc` across the threshold copies), and `dealloc` unmaps it, so a
/// freed block goes back to the OS at once. A failed `madvise` is
/// ignored: the block still works, on base pages. Everything else —
/// smaller or over-aligned layouts, and every layout on targets other
/// than Linux on x86-64 / AArch64, or under Miri — goes to [`System`].
///
/// Install it once per binary:
///
/// ```
/// #[global_allocator]
/// static ALLOCATOR: hcl_store::LargePages = hcl_store::LargePages;
/// ```
pub struct LargePages;

/// Whether [`LargePages`] maps `layout` itself.
#[cfg(all(
    target_os = "linux",
    not(miri),
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
fn is_mapped(layout: Layout) -> bool {
    layout.size() >= HUGE_PAGE && layout.align() <= MAX_MAPPED_ALIGN
}

/// The large-block mappings of [`LargePages`].
#[cfg(all(
    target_os = "linux",
    not(miri),
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod huge {
    use std::os::raw::{c_int, c_void};

    const PROT_READ: c_int = 1;
    const PROT_WRITE: c_int = 2;
    const MAP_PRIVATE: c_int = 2;
    const MAP_ANONYMOUS: c_int = 0x20;
    const MADV_HUGEPAGE: c_int = 14;
    const MREMAP_MAYMOVE: c_int = 1;
    const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

    // The same direct libc FFI as the file mapping; `mremap` and `madvise`
    // are Linux's, with these constants' values on both architectures
    // this module compiles for.
    extern "C" {
        fn mmap(
            addr: *mut c_void,
            length: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, length: usize) -> c_int;
        fn mremap(
            old_address: *mut c_void,
            old_size: usize,
            new_size: usize,
            flags: c_int,
            ...
        ) -> *mut c_void;
        fn madvise(addr: *mut c_void, length: usize, advice: c_int) -> c_int;
    }

    /// A fresh zero-filled, page-aligned mapping for `size` bytes, advised
    /// onto huge pages, or null if the kernel refuses it.
    ///
    /// This and the other two are out of line and cold: a syscall dwarfs
    /// the call, and every inlined allocation site stays a size test and
    /// a `malloc` call.
    #[cold]
    #[inline(never)]
    pub(super) fn map(size: usize) -> *mut u8 {
        // SAFETY: a new anonymous private mapping at an address the kernel
        // picks overlaps nothing this process uses; MAP_FAILED is checked
        // before the pointer is used.
        let ptr = unsafe {
            mmap(
                std::ptr::null_mut(),
                size,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        if ptr == MAP_FAILED {
            return std::ptr::null_mut();
        }
        // SAFETY: `ptr` / `size` are the mapping just made, untouched yet;
        // advice changes no contents, and a refusal (no THP support) is
        // harmless, so its result is ignored.
        unsafe {
            madvise(ptr, size, MADV_HUGEPAGE);
        }
        ptr.cast()
    }

    /// Returns the mapping of a `size`-byte block to the OS.
    ///
    /// # Safety
    /// `ptr` must be a block [`map`] or [`remap`] returned for `size`
    /// bytes, not unmapped since; no reference into it may be used after.
    #[cold]
    #[inline(never)]
    // SAFETY: callers keep the `# Safety` contract above.
    pub(super) unsafe fn unmap(ptr: *mut u8, size: usize) {
        // SAFETY: by the caller's contract `ptr` starts a mapping of
        // `size` bytes (rounded up to whole pages, as the kernel rounds
        // every length) that this allocator owns. A failure would leave it
        // mapped, which leaks but is sound.
        unsafe {
            munmap(ptr.cast(), size);
        }
    }

    /// Resizes a `size`-byte block to `new_size` bytes, keeping its
    /// contents up to the smaller size; the block may move. Null if the
    /// kernel refuses, and the old block is then untouched.
    ///
    /// # Safety
    /// As for [`unmap`]; on success the old pointer is dangling.
    #[cold]
    #[inline(never)]
    // SAFETY: callers keep the `# Safety` contract above.
    pub(super) unsafe fn remap(ptr: *mut u8, size: usize, new_size: usize) -> *mut u8 {
        // SAFETY: by the caller's contract `ptr` starts a mapping of
        // `size` bytes that this allocator owns; MREMAP_MAYMOVE lets the
        // kernel grow or shrink it in place or move it anywhere unused,
        // with its advice and contents, and MAP_FAILED (old mapping kept)
        // is checked.
        let moved = unsafe { mremap(ptr.cast(), size, new_size, MREMAP_MAYMOVE) };
        if moved == MAP_FAILED {
            std::ptr::null_mut()
        } else {
            moved.cast()
        }
    }
}

// SAFETY: a mapped block is a fresh private mapping of at least the
// layout's size, page-aligned (so aligned to anything up to
// `MAX_MAPPED_ALIGN`, which `is_mapped` requires), used by nothing else
// until it is unmapped; `dealloc` and `realloc` receive the layout the
// block was made with, so `is_mapped` sends a block back to whoever made
// it; every other call is `System`'s, with the caller's own arguments.
unsafe impl GlobalAlloc for LargePages {
    // SAFETY: the caller's contract is `GlobalAlloc::alloc`'s.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        #[cfg(all(
            target_os = "linux",
            not(miri),
            any(target_arch = "x86_64", target_arch = "aarch64")
        ))]
        if is_mapped(layout) {
            return huge::map(layout.size());
        }
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the caller's contract is `GlobalAlloc::alloc_zeroed`'s.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // A fresh anonymous mapping reads zero: no memset, and no page is
        // touched until the caller writes to it.
        #[cfg(all(
            target_os = "linux",
            not(miri),
            any(target_arch = "x86_64", target_arch = "aarch64")
        ))]
        if is_mapped(layout) {
            return huge::map(layout.size());
        }
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: the caller's contract is `GlobalAlloc::dealloc`'s.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        #[cfg(all(
            target_os = "linux",
            not(miri),
            any(target_arch = "x86_64", target_arch = "aarch64")
        ))]
        if is_mapped(layout) {
            // SAFETY: `layout` is the one the block was made with, so
            // `alloc`, `alloc_zeroed` or `realloc` mapped it for
            // `layout.size()` bytes, and the caller gives it up.
            return unsafe { huge::unmap(ptr, layout.size()) };
        }
        // SAFETY: as above, the block is `System`'s, made for `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: the caller's contract is `GlobalAlloc::realloc`'s.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        #[cfg(all(
            target_os = "linux",
            not(miri),
            any(target_arch = "x86_64", target_arch = "aarch64")
        ))]
        {
            // SAFETY: `realloc`'s contract makes `new_size` a valid size
            // at `layout.align()`.
            let new_layout = unsafe { Layout::from_size_align_unchecked(new_size, layout.align()) };
            match (is_mapped(layout), is_mapped(new_layout)) {
                (false, false) => {}
                // SAFETY: the block was mapped for `layout.size()` bytes.
                (true, true) => return unsafe { huge::remap(ptr, layout.size(), new_size) },
                // Crossing the threshold: a new block from the other
                // side, the kept bytes copied, the old block freed.
                _ => {
                    // SAFETY: `new_layout` has a non-zero size (it is
                    // `realloc`'s), and the caller's block is valid for
                    // `layout.size()` bytes, the new one for `new_size`,
                    // and they are distinct allocations.
                    unsafe {
                        let new = self.alloc(new_layout);
                        if !new.is_null() {
                            std::ptr::copy_nonoverlapping(ptr, new, layout.size().min(new_size));
                            self.dealloc(ptr, layout);
                        }
                        return new;
                    }
                }
            }
        }
        // SAFETY: both sides are `System`'s; forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Bytes stored inside a `Vec<u64>`, guaranteeing the 8-byte base alignment
/// the zero-copy slice casts rely on. Filled by one byte copy into zeroed
/// words, so [`AlignedBuf::bytes`] reproduces the input bytes exactly.
pub(crate) struct AlignedBuf {
    words: Vec<u64>,
    len: usize,
}

impl AlignedBuf {
    /// A buffer of `len` zero bytes.
    fn zeroed(len: usize) -> Self {
        Self {
            words: vec![0u64; len.div_ceil(8)],
            len,
        }
    }

    /// Copies the concatenation of `slices` into an aligned buffer, each
    /// slice straight to its place: no joined intermediate.
    pub(crate) fn gather(slices: &[&[u8]]) -> Self {
        let mut buf = Self::zeroed(slices.iter().map(|s| s.len()).sum());
        let mut rest = buf.bytes_mut();
        for slice in slices {
            let (head, tail) = rest.split_at_mut(slice.len());
            head.copy_from_slice(slice);
            rest = tail;
        }
        buf
    }

    /// Reads exactly `len` bytes from `reader` straight into an aligned
    /// buffer — one copy, no intermediate `Vec<u8>`, so loading a large
    /// container on the heap path costs peak memory of the file size, not
    /// twice it.
    pub(crate) fn read_from(reader: &mut impl std::io::Read, len: usize) -> std::io::Result<Self> {
        let mut buf = Self::zeroed(len);
        reader.read_exact(buf.bytes_mut())?;
        Ok(buf)
    }

    /// The stored bytes, writable.
    fn bytes_mut(&mut self) -> &mut [u8] {
        // SAFETY: the Vec owns `words.len() * 8 >= len` bytes at alignment
        // 8 >= 1; u8 accepts any bit pattern, and the tail byte(s) of the
        // last word stay at their zero initialisation.
        unsafe { std::slice::from_raw_parts_mut(self.words.as_mut_ptr().cast::<u8>(), self.len) }
    }

    /// The stored bytes.
    pub(crate) fn bytes(&self) -> &[u8] {
        // SAFETY: the Vec owns at least `len` bytes (len <= words.len() * 8)
        // at alignment 8 >= 1; u8 accepts any bit pattern.
        unsafe { std::slice::from_raw_parts(self.words.as_ptr().cast::<u8>(), self.len) }
    }
}

/// The storage behind an opened [`IndexStore`](crate::IndexStore).
pub(crate) enum Backing {
    /// Zero-copy memory mapping.
    #[cfg(all(unix, not(miri), target_pointer_width = "64", target_endian = "little"))]
    Mmap(mmap::Mmap),
    /// Heap copy (portable fallback, `from_bytes`, or explicit preload).
    Heap(AlignedBuf),
}

impl Backing {
    pub(crate) fn bytes(&self) -> &[u8] {
        match self {
            #[cfg(all(unix, not(miri), target_pointer_width = "64", target_endian = "little"))]
            Backing::Mmap(m) => m.bytes(),
            Backing::Heap(b) => b.bytes(),
        }
    }

    pub(crate) fn kind(&self) -> &'static str {
        match self {
            #[cfg(all(unix, not(miri), target_pointer_width = "64", target_endian = "little"))]
            Backing::Mmap(_) => "mmap",
            Backing::Heap(_) => "heap",
        }
    }
}

/// Reinterprets an aligned, validated byte range as little-endian `u32`s.
///
/// # Panics
/// Panics if `bytes` is misaligned or not a multiple of 4 long — both are
/// checked by the format validator before any cast, so a panic here means a
/// bug in validation, not bad input.
pub(crate) fn cast_u32s(bytes: &[u8]) -> &[u32] {
    // SAFETY: u32 accepts any bit pattern; `align_to` computes the aligned
    // split, and the assertion confirms the whole range was aligned/sized.
    let (pre, mid, post) = unsafe { bytes.align_to::<u32>() };
    assert!(
        pre.is_empty() && post.is_empty(),
        "section not aligned/sized for u32 despite validation"
    );
    mid
}

/// Reinterprets an aligned, validated byte range as little-endian `u64`s.
///
/// # Panics
/// See [`cast_u32s`].
pub(crate) fn cast_u64s(bytes: &[u8]) -> &[u64] {
    // SAFETY: as in `cast_u32s`, with 8-byte alignment guaranteed by the
    // backing (page- or Vec<u64>-aligned base) plus validated offsets.
    let (pre, mid, post) = unsafe { bytes.align_to::<u64>() };
    assert!(
        pre.is_empty() && post.is_empty(),
        "section not aligned/sized for u64 despite validation"
    );
    mid
}

/// The fixed-width integers a container section holds.
pub(crate) trait Word: Copy {
    /// Appends the little-endian bytes of `self` to `out` (only the
    /// big-endian copy in [`le_bytes`] needs it).
    #[cfg_attr(target_endian = "little", allow(dead_code))]
    fn extend_le(self, out: &mut Vec<u8>);
}

impl Word for u32 {
    fn extend_le(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
}

impl Word for u64 {
    fn extend_le(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
}

/// The little-endian bytes of `words`, as the container stores them: the
/// slice itself viewed as bytes on little-endian targets, an owned copy
/// elsewhere, so every writer has one path.
pub(crate) fn le_bytes<T: Word>(words: &[T]) -> Cow<'_, [u8]> {
    #[cfg(target_endian = "little")]
    {
        // SAFETY: `Word` is implemented only for `u32` and `u64` (the trait
        // is crate-private), which have no padding, so every byte of the
        // slice is initialised; `u8` has alignment 1; the byte length is
        // exactly the slice's size within its one allocation; and the
        // result borrows `words`, so it cannot outlive them. On this target
        // the in-memory order is the little-endian one the format stores.
        Cow::Borrowed(unsafe {
            std::slice::from_raw_parts(words.as_ptr().cast::<u8>(), std::mem::size_of_val(words))
        })
    }
    #[cfg(not(target_endian = "little"))]
    {
        let mut out = Vec::with_capacity(std::mem::size_of_val(words));
        for &w in words {
            w.extend_le(&mut out);
        }
        Cow::Owned(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligned_buf_roundtrips_bytes() {
        for len in [0usize, 1, 7, 8, 9, 63, 64, 65] {
            let data: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            for cut in 0..=len {
                let buf = AlignedBuf::gather(&[&data[..cut], &data[cut..]]);
                assert_eq!(buf.bytes(), &data[..]);
                assert_eq!(buf.bytes().as_ptr() as usize % 8, 0);
            }
        }
    }

    #[test]
    fn casts_reinterpret_little_endian() {
        let buf = AlignedBuf::gather(&[&[1, 0, 0], &[], &[0, 2, 0, 0, 0]]);
        assert_eq!(cast_u32s(buf.bytes()), &[1, 2]);
        assert_eq!(cast_u64s(buf.bytes()), &[0x2_0000_0001]);
    }

    #[test]
    fn byte_views_are_the_little_endian_encoding() {
        let words32 = [0u32, 1, 0x0102_0304, u32::MAX, 0xDEAD_BEEF];
        let words64 = [0u64, 1, 0x0102_0304_0506_0708, u64::MAX];
        for len in 0..=words32.len() {
            let expected: Vec<u8> = words32[..len]
                .iter()
                .flat_map(|w| w.to_le_bytes())
                .collect();
            assert_eq!(&*le_bytes(&words32[..len]), &expected[..]);
        }
        for len in 0..=words64.len() {
            let expected: Vec<u8> = words64[..len]
                .iter()
                .flat_map(|w| w.to_le_bytes())
                .collect();
            assert_eq!(&*le_bytes(&words64[..len]), &expected[..]);
        }
        // A view starting mid-slice: only the element alignment holds.
        let expected: Vec<u8> = words32[1..].iter().flat_map(|w| w.to_le_bytes()).collect();
        assert_eq!(&*le_bytes(&words32[1..]), &expected[..]);
    }

    /// [`LargePages`]' own mappings, exercised by calling it directly
    /// (the test binary keeps `System` as its global allocator).
    #[cfg(all(
        target_os = "linux",
        not(miri),
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    mod large_pages {
        use super::super::{LargePages, HUGE_PAGE, MAX_MAPPED_ALIGN};
        use std::alloc::{GlobalAlloc, Layout};

        fn pattern(len: usize, salt: u8) -> Vec<u8> {
            (0..len).map(|i| (i % 251) as u8 ^ salt).collect()
        }

        /// Writes `bytes` to the start of `block`, then reads back its
        /// first `bytes.len()` bytes.
        ///
        /// # Safety
        /// `block` must be valid for writes of `bytes.len()` bytes.
        // SAFETY: callers keep the `# Safety` contract above.
        unsafe fn write_and_read(block: *mut u8, bytes: &[u8]) -> Vec<u8> {
            // SAFETY: the caller's contract; a fresh pattern cannot
            // overlap the block.
            unsafe {
                std::ptr::copy_nonoverlapping(bytes.as_ptr(), block, bytes.len());
                std::slice::from_raw_parts(block, bytes.len()).to_vec()
            }
        }

        #[test]
        fn blocks_below_at_and_above_a_huge_page_hold_their_bytes() {
            for size in [HUGE_PAGE - 1, HUGE_PAGE, HUGE_PAGE + 1, 3 * HUGE_PAGE + 5] {
                let layout = Layout::from_size_align(size, 8).unwrap();
                for zeroed in [false, true] {
                    // SAFETY: `layout` has a non-zero size.
                    let block = unsafe {
                        if zeroed {
                            LargePages.alloc_zeroed(layout)
                        } else {
                            LargePages.alloc(layout)
                        }
                    };
                    assert!(!block.is_null(), "{size}");
                    assert_eq!(block as usize % 8, 0, "{size}");
                    if size >= HUGE_PAGE {
                        // Its own mapping: page-aligned, where `malloc`
                        // puts a header before a large block.
                        assert_eq!(block as usize % MAX_MAPPED_ALIGN, 0, "{size}");
                    }
                    if zeroed {
                        // SAFETY: a zeroed block is initialised end to end.
                        let bytes = unsafe { std::slice::from_raw_parts(block, size) };
                        assert!(bytes.iter().all(|&b| b == 0), "{size}");
                    }
                    let bytes = pattern(size, zeroed as u8);
                    // SAFETY: the block is valid for `size` bytes.
                    assert_eq!(unsafe { write_and_read(block, &bytes) }, bytes, "{size}");
                    // SAFETY: `block` was made for `layout` and is freed once.
                    unsafe { LargePages.dealloc(block, layout) };
                }
            }
        }

        #[test]
        fn realloc_keeps_the_contents_across_and_beyond_the_threshold() {
            let align = 8;
            let sizes = [64 << 10, 3 * HUGE_PAGE, 9 * HUGE_PAGE + 3, 100 << 10];
            let full = pattern(*sizes.iter().max().unwrap(), 0x5a);
            let mut layout = Layout::from_size_align(sizes[0], align).unwrap();
            // SAFETY: `layout` has a non-zero size.
            let mut block = unsafe { LargePages.alloc(layout) };
            assert!(!block.is_null());
            // SAFETY: the block is valid for `sizes[0]` bytes.
            unsafe { write_and_read(block, &full[..sizes[0]]) };
            for &new_size in &sizes[1..] {
                // SAFETY: `block` was made for `layout`, and `new_size` is
                // non-zero and far below `isize::MAX`.
                block = unsafe { LargePages.realloc(block, layout, new_size) };
                assert!(!block.is_null(), "{new_size}");
                let kept = layout.size().min(new_size);
                // SAFETY: the first `kept` bytes were written before.
                let bytes = unsafe { std::slice::from_raw_parts(block, kept) };
                assert!(bytes == &full[..kept], "{} -> {new_size}", layout.size());
                layout = Layout::from_size_align(new_size, align).unwrap();
                // SAFETY: the block is valid for `new_size` bytes.
                unsafe { write_and_read(block, &full[..new_size]) };
            }
            // SAFETY: `block` was last made for `layout`.
            unsafe { LargePages.dealloc(block, layout) };
        }

        #[test]
        fn an_over_aligned_large_layout_comes_back_aligned() {
            let layout = Layout::from_size_align(2 * HUGE_PAGE, 2 * MAX_MAPPED_ALIGN).unwrap();
            for zeroed in [false, true] {
                // SAFETY: `layout` has a non-zero size.
                let block = unsafe {
                    if zeroed {
                        LargePages.alloc_zeroed(layout)
                    } else {
                        LargePages.alloc(layout)
                    }
                };
                assert!(!block.is_null());
                assert_eq!(block as usize % layout.align(), 0);
                let bytes = pattern(layout.size(), 3);
                // SAFETY: the block is valid for `layout.size()` bytes.
                assert_eq!(unsafe { write_and_read(block, &bytes) }, bytes);
                // SAFETY: `block` was made for `layout` and is freed once.
                unsafe { LargePages.dealloc(block, layout) };
            }
        }

        #[test]
        fn threads_map_write_and_free_large_blocks_at_once() {
            let start = std::sync::Barrier::new(4);
            std::thread::scope(|scope| {
                for t in 0..4u8 {
                    let start = &start;
                    scope.spawn(move || {
                        let sizes = [HUGE_PAGE, HUGE_PAGE + 4096 * usize::from(t) + 1];
                        let layouts = sizes.map(|s| Layout::from_size_align(s, 8).unwrap());
                        start.wait();
                        for round in 0..4u8 {
                            // SAFETY: both layouts have a non-zero size.
                            let blocks = layouts.map(|l| unsafe { LargePages.alloc(l) });
                            for (&block, layout) in blocks.iter().zip(&layouts) {
                                assert!(!block.is_null());
                                let bytes = pattern(layout.size(), t * 16 + round);
                                // SAFETY: the block is valid for its size.
                                assert_eq!(unsafe { write_and_read(block, &bytes) }, bytes);
                            }
                            for (block, layout) in blocks.into_iter().zip(layouts) {
                                // SAFETY: made for `layout`, freed once.
                                unsafe { LargePages.dealloc(block, layout) };
                            }
                        }
                    });
                }
            });
        }
    }
}
