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

/// Bytes stored inside a `Vec<u64>`, guaranteeing the 8-byte base alignment
/// the zero-copy slice casts rely on. Construction is fully safe (chunked
/// `u64::from_le_bytes`); on the little-endian hosts the format serves,
/// [`AlignedBuf::bytes`] reproduces the input bytes exactly.
pub(crate) struct AlignedBuf {
    words: Vec<u64>,
    len: usize,
}

impl AlignedBuf {
    /// Copies `bytes` into an aligned buffer.
    pub(crate) fn copy_from(bytes: &[u8]) -> Self {
        let mut words = Vec::with_capacity(bytes.len().div_ceil(8));
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            words.push(u64::from_le_bytes(word));
        }
        Self {
            words,
            len: bytes.len(),
        }
    }

    /// Reads exactly `len` bytes from `reader` straight into an aligned
    /// buffer — one copy, no intermediate `Vec<u8>`, so loading a large
    /// container on the heap path costs peak memory of the file size, not
    /// twice it.
    pub(crate) fn read_from(reader: &mut impl std::io::Read, len: usize) -> std::io::Result<Self> {
        let mut words = vec![0u64; len.div_ceil(8)];
        // SAFETY: the Vec owns `words.len() * 8 >= len` bytes at alignment
        // 8 >= 1; u8 accepts any bit pattern, and the tail byte(s) of the
        // last word stay at their zero initialisation.
        let bytes = unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr().cast::<u8>(), len) };
        reader.read_exact(bytes)?;
        Ok(Self { words, len })
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
            let buf = AlignedBuf::copy_from(&data);
            assert_eq!(buf.bytes(), &data[..]);
            assert_eq!(buf.bytes().as_ptr() as usize % 8, 0);
        }
    }

    #[test]
    fn casts_reinterpret_little_endian() {
        let buf = AlignedBuf::copy_from(&[1, 0, 0, 0, 2, 0, 0, 0]);
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
}
