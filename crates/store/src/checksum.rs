//! CRC-64 (ECMA-182, reflected) — the integrity checksum of the `.hcl`
//! container.
//!
//! Dependency-free and byte-order independent. This is a corruption
//! detector, not a cryptographic MAC: it reliably catches truncation, bit
//! rot, and sloppy edits, which is all the format promises.
//!
//! Two kernels compute the same function — same polynomial, init and
//! finish — so a checksum written by either verifies under the other (and
//! under the bytewise loop the format was first written with).
//!
//! * **Slicing-by-16** (Kounavis & Berry, IEEE ToC 2008), everywhere. A
//!   bytewise table CRC makes every byte wait for the previous byte's
//!   lookup, which caps it far below memory speed; slicing folds 16 input
//!   bytes per step through sixteen *independent* lookups, so the only
//!   serial dependency left is one XOR tree per block.
//! * **Carry-less-multiply folding** (Gopal et al., *Fast CRC Computation
//!   for Generic Polynomials Using PCLMULQDQ*, Intel 2009), on x86_64
//!   hosts that have `pclmulqdq`, for inputs of at least one 128-byte
//!   step; runtime detection is the only switch. Eight
//!   16-byte accumulators each stand for a block of the message with
//!   everything before it zero; a step multiplies each one forward by
//!   `x^1024` (128 bytes) and XORs in the next 128 input bytes, so the
//!   eight multiply chains run in parallel at memory speed. The lanes are
//!   then merged, and any further 16-byte blocks folded, by multiplying
//!   forward by `x^128`. What is left is 16 bytes congruent mod P to
//!   everything read so far, so their table CRC from state 0 is the state
//!   the whole prefix would have left (no Barrett reduction needed); the
//!   sub-16-byte tail follows through the table kernel.
//!
//! Fold constants. A reflected 16-byte block holds its higher-degree half
//! in the low eight bytes, so moving it `d` bits forward is
//! `lo·x^(d+64) + hi·x^d`, each factor reduced mod P to 64 bits. A
//! carry-less product of two reflected 64-bit values comes out one degree
//! short of the 128-bit reflected block, so each constant carries one
//! factor of `x` less: `x^(d+63)` and `x^(d-1)`, i.e. `x^1087` / `x^1023`
//! for the 128-byte step and `x^191` / `x^127` for a 16-byte one.
//! `x_pow_mod_p` derives them at compile time with the same shift-and-
//! reduce step the table kernel's bit loop uses.

/// Reflected ECMA-182 polynomial (the one used by `xz`).
const POLY: u64 = 0xC96C_5795_D787_0F42;

/// Bytes folded per slicing step, and the number of lookup tables.
const SLICES: usize = 16;

/// `TABLES[0]` is the classic bytewise table: the CRC of the single byte
/// `i`. `TABLES[k][i]` is the CRC of byte `i` followed by `k` zero bytes —
/// what byte `i` contributes to the state `k` positions further on.
const fn make_tables() -> [[u64; 256]; SLICES] {
    let mut tables = [[0u64; 256]; SLICES];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < SLICES {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u64; 256]; SLICES] = make_tables();

/// Streaming state for a CRC-64 computation. Start with [`crc64_init`],
/// fold bytes in with [`crc64_update`], finish with [`crc64_finish`].
pub fn crc64_init() -> u64 {
    !0
}

/// Folds `bytes` into a running CRC state (a call of any length, at any
/// alignment, continues any other). Long inputs take the carry-less
/// kernel where the CPU has one, everything else the slicing kernel.
pub fn crc64_update(state: u64, bytes: &[u8]) -> u64 {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if bytes.len() >= clmul::STEP && std::is_x86_feature_detected!("pclmulqdq") {
        // SAFETY: the CPU supports pclmulqdq, the only feature the kernel
        // enables beyond the x86_64 baseline.
        return unsafe { clmul::update(state, bytes) };
    }
    update_slicing(state, bytes)
}

/// Names the kernel [`crc64_update`] runs on inputs of at least 128
/// bytes on this host — every container image — so a
/// slow `crc` open phase can be told apart from a missing CPU feature.
pub fn crc64_kernel() -> &'static str {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if std::is_x86_feature_detected!("pclmulqdq") {
        return "pclmulqdq";
    }
    "slicing-by-16"
}

/// The slicing-by-16 kernel: 16 bytes per step while they last, then
/// bytewise for the tail.
fn update_slicing(mut state: u64, bytes: &[u8]) -> u64 {
    let mut blocks = bytes.chunks_exact(SLICES);
    for block in &mut blocks {
        let (lo, hi) = block.split_at(8);
        // The state only reaches the first eight bytes; the byte at
        // position `p` of the block is `15 - p` bytes from its end.
        let lo = state ^ u64::from_le_bytes(lo.try_into().expect("first half of a 16-byte block"));
        let hi = u64::from_le_bytes(hi.try_into().expect("second half of a 16-byte block"));
        state = 0;
        for p in 0..8 {
            state ^= TABLES[15 - p][(lo >> (8 * p)) as usize & 0xFF]
                ^ TABLES[7 - p][(hi >> (8 * p)) as usize & 0xFF];
        }
    }
    for &b in blocks.remainder() {
        state = TABLES[0][((state ^ b as u64) & 0xFF) as usize] ^ (state >> 8);
    }
    state
}

/// Finalises a CRC state into the checksum value.
pub fn crc64_finish(state: u64) -> u64 {
    !state
}

/// One-shot CRC-64 of a byte slice.
pub fn crc64(bytes: &[u8]) -> u64 {
    crc64_finish(crc64_update(crc64_init(), bytes))
}

/// The carry-less-multiply folding kernel (x86_64 `pclmulqdq`; see the
/// module docs for the method and its constants).
#[cfg(all(target_arch = "x86_64", not(miri)))]
mod clmul {
    use super::{update_slicing, POLY};
    use std::arch::x86_64::{
        __m128i, _mm_clmulepi64_si128, _mm_cvtsi128_si64, _mm_cvtsi64_si128, _mm_loadu_si128,
        _mm_set_epi64x, _mm_unpackhi_epi64, _mm_xor_si128,
    };

    /// Bytes per accumulator.
    const BLOCK: usize = 16;
    /// Independent accumulators.
    const LANES: usize = 8;
    /// Bytes one step reads, and the shortest input dispatch sends here:
    /// from one step on this kernel wins (128 bytes: 26 ns against the
    /// slicing kernel's 67 ns on a 2-core KVM host), while shorter inputs,
    /// such as the journal's 40-byte frames, have no step to fold.
    pub(super) const STEP: usize = LANES * BLOCK;

    /// `x^e mod P`, bit-reflected like the CRC state (bit 63 holds `x^0`):
    /// multiplying by `x` is one right shift, and the `x^64` that falls out
    /// of bit 0 is replaced by the rest of the polynomial.
    const fn x_pow_mod_p(e: u32) -> u64 {
        let mut r = 1u64 << 63;
        let mut i = 0;
        while i < e {
            r = if r & 1 != 0 { (r >> 1) ^ POLY } else { r >> 1 };
            i += 1;
        }
        r
    }

    /// Multipliers of an accumulator's low (higher-degree) and high halves
    /// that move it one whole step, 1024 bits, forward.
    const STEP_LO: u64 = x_pow_mod_p(1024 + 63);
    const STEP_HI: u64 = x_pow_mod_p(1024 - 1);
    /// The same for one block, 128 bits.
    const BLOCK_LO: u64 = x_pow_mod_p(128 + 63);
    const BLOCK_HI: u64 = x_pow_mod_p(128 - 1);

    /// Folds `bytes` into `state`; any length, any alignment.
    #[target_feature(enable = "pclmulqdq")]
    pub(super) fn update(state: u64, bytes: &[u8]) -> u64 {
        let mut steps = bytes.chunks_exact(STEP);
        let Some(first) = steps.next() else {
            return update_slicing(state, bytes);
        };
        let mut lanes = [_mm_cvtsi64_si128(0); LANES];
        for (lane, block) in lanes.iter_mut().zip(first.chunks_exact(BLOCK)) {
            *lane = load(block);
        }
        // The state enters as if XORed into the first eight message bytes.
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi64_si128(state as i64));

        let step = _mm_set_epi64x(STEP_HI as i64, STEP_LO as i64);
        for chunk in &mut steps {
            for (lane, block) in lanes.iter_mut().zip(chunk.chunks_exact(BLOCK)) {
                *lane = _mm_xor_si128(fold(*lane, step), load(block));
            }
        }

        let block = _mm_set_epi64x(BLOCK_HI as i64, BLOCK_LO as i64);
        let mut acc = lanes[0];
        for &lane in &lanes[1..] {
            acc = _mm_xor_si128(fold(acc, block), lane);
        }
        let mut blocks = steps.remainder().chunks_exact(BLOCK);
        for next in &mut blocks {
            acc = _mm_xor_si128(fold(acc, block), load(next));
        }

        let lo = _mm_cvtsi128_si64(acc) as u64;
        let hi = _mm_cvtsi128_si64(_mm_unpackhi_epi64(acc, acc)) as u64;
        let mut folded = [0u8; BLOCK];
        folded[..8].copy_from_slice(&lo.to_le_bytes());
        folded[8..].copy_from_slice(&hi.to_le_bytes());
        update_slicing(update_slicing(0, &folded), blocks.remainder())
    }

    /// `x` moved forward by the distance `k` was built for: its low half
    /// times `k`'s low, XOR its high half times `k`'s high (`_mm_set_epi64x`
    /// takes the high half first).
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold(x: __m128i, k: __m128i) -> __m128i {
        _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(x, k),
            _mm_clmulepi64_si128::<0x11>(x, k),
        )
    }

    /// The first 16 bytes of `bytes`, as one little-endian 128-bit value.
    #[inline]
    fn load(bytes: &[u8]) -> __m128i {
        let block: &[u8; BLOCK] = bytes[..BLOCK].try_into().expect("a 16-byte block");
        // SAFETY: `block` is 16 readable bytes, and the unaligned load
        // has no alignment requirement.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcl_core::rng::SplitMix64;

    /// The bytewise loop every container before the slicing kernel was
    /// written with: the reference the kernel must reproduce bit for bit.
    fn crc64_reference(bytes: &[u8]) -> u64 {
        let mut state = crc64_init();
        for &b in bytes {
            state = TABLES[0][((state ^ b as u64) & 0xFF) as usize] ^ (state >> 8);
        }
        crc64_finish(state)
    }

    fn seeded_bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = SplitMix64::new(seed);
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    #[test]
    fn known_vector() {
        // ECMA-182 reflected CRC of "123456789" is 0x995DC9BBDF1939FA.
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
        assert_eq!(crc64(b""), 0);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data = b"highway cover labelling";
        let mut state = crc64_init();
        for chunk in data.chunks(5) {
            state = crc64_update(state, chunk);
        }
        assert_eq!(crc64_finish(state), crc64(data));
    }

    #[test]
    fn detects_single_bit_flips() {
        let mut data = vec![0xA5u8; 512];
        let clean = crc64(&data);
        data[200] ^= 0x10;
        assert_ne!(crc64(&data), clean);
    }

    #[test]
    fn every_length_matches_the_bytewise_reference() {
        // Every block count × tail length combination up to 64 blocks.
        let data = seeded_bytes(1024, 0xC0FFEE);
        for len in 0..=data.len() {
            assert_eq!(
                crc64(&data[..len]),
                crc64_reference(&data[..len]),
                "len = {len}"
            );
        }
    }

    #[test]
    fn a_large_buffer_matches_the_bytewise_reference() {
        // 1 MiB (the interpreter gets 4 KiB), plus an odd bytewise tail.
        let blocks = if cfg!(miri) { 4 << 10 } else { 1 << 20 };
        let data = seeded_bytes(blocks + 5, 7);
        assert_eq!(crc64(&data), crc64_reference(&data));
    }

    #[test]
    fn every_split_point_matches_one_shot() {
        // Unaligned heads and sub-16 tails on both sides of the cut.
        let data = seeded_bytes(257, 42);
        let whole = crc64(&data);
        assert_eq!(whole, crc64_reference(&data));
        for cut in 0..=data.len() {
            let (head, tail) = data.split_at(cut);
            let state = crc64_update(crc64_update(crc64_init(), head), tail);
            assert_eq!(crc64_finish(state), whole, "cut = {cut}");
        }
    }

    /// The carry-less kernel called directly, not through dispatch, so
    /// every length reaches it whatever the dispatch threshold.
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    mod carry_less {
        use super::*;
        use crate::format::{file_checksum, CHECKSUM_OFFSET, HEADER_LEN};

        /// `None` (after a skip note) on a host without `pclmulqdq`.
        fn kernel() -> Option<fn(u64, &[u8]) -> u64> {
            if !std::is_x86_feature_detected!("pclmulqdq") {
                eprintln!("skipped: this host has no pclmulqdq, so only the table kernel runs");
                return None;
            }
            // SAFETY: the CPU supports pclmulqdq (checked just above).
            Some(|state, bytes| unsafe { clmul::update(state, bytes) })
        }

        #[test]
        fn every_length_at_every_offset_matches_the_bytewise_reference() {
            // Lengths 0..=2048 cover every residue mod 16 and mod 128, and
            // the 16 start offsets every alignment of the 16-byte loads.
            let Some(kernel) = kernel() else { return };
            const MAX: usize = 2048;
            let data = seeded_bytes(MAX + 16, 0x5EED);
            for offset in 0..16 {
                let mut reference = crc64_init();
                for len in 0..=MAX {
                    let bytes = &data[offset..offset + len];
                    assert_eq!(
                        kernel(crc64_init(), bytes),
                        reference,
                        "offset = {offset}, len = {len}"
                    );
                    let b = data[offset + len];
                    reference =
                        TABLES[0][((reference ^ b as u64) & 0xFF) as usize] ^ (reference >> 8);
                }
            }
        }

        #[test]
        fn every_split_point_of_a_kibibyte_matches_the_bytewise_reference() {
            // Through dispatch: each side of the cut is in turn shorter and
            // longer than the carry-less threshold.
            let data = seeded_bytes(1024, 0xD15);
            let whole = crc64_reference(&data);
            for cut in 0..=data.len() {
                let (head, tail) = data.split_at(cut);
                let state = crc64_update(crc64_update(crc64_init(), head), tail);
                assert_eq!(crc64_finish(state), whole, "cut = {cut}");
            }
        }

        #[test]
        fn file_checksum_call_shape_matches_the_bytewise_reference() {
            // Header head, the zeroed checksum field, then the rest: the
            // three pieces `file_checksum` feeds every container through.
            let Some(kernel) = kernel() else { return };
            let data = seeded_bytes(1536, 0xF11E);
            for len in HEADER_LEN..=data.len() {
                let bytes = &data[..len];
                let mut zeroed = bytes.to_vec();
                zeroed[CHECKSUM_OFFSET..CHECKSUM_OFFSET + 8].fill(0);
                let expected = crc64_reference(&zeroed);
                let mut state = kernel(crc64_init(), &bytes[..CHECKSUM_OFFSET]);
                state = kernel(state, &[0u8; 8]);
                state = kernel(state, &bytes[CHECKSUM_OFFSET + 8..]);
                assert_eq!(crc64_finish(state), expected, "len = {len}");
                assert_eq!(file_checksum(bytes), expected, "len = {len}");
            }
        }
    }
}
