//! CRC-64 (ECMA-182, reflected) — the integrity checksum of the `.hcl`
//! container.
//!
//! Table-driven, dependency-free, and byte-order independent. This is a
//! corruption detector, not a cryptographic MAC: it reliably catches
//! truncation, bit rot, and sloppy edits, which is all the format promises.
//!
//! The kernel is the slicing-by-16 table CRC (Kounavis & Berry, IEEE ToC
//! 2008): a bytewise table CRC makes every byte wait for the previous
//! byte's lookup, which caps it far below memory speed; slicing folds 16
//! input bytes per step through sixteen *independent* lookups, so the only
//! serial dependency left is one XOR tree per block. It computes the same
//! function — same polynomial, init and finish — so checksums written by
//! the bytewise loop verify under this one and vice versa.

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

/// Folds `bytes` into a running CRC state: 16 bytes per step while they
/// last, then bytewise for the tail (so a call of any length, at any
/// alignment, continues any other).
pub fn crc64_update(mut state: u64, bytes: &[u8]) -> u64 {
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
}
