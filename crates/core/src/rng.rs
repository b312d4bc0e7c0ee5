//! The workspace's seeded pseudo-random number generator.
//!
//! The testkit graph generators and the benchmark harness's seeded inputs
//! are all drawn from this generator: a test that pins a generated graph,
//! and a benchmark that compares runs by seed, rely on the same seed
//! giving the same stream in every release.

/// SplitMix64 pseudo-random number generator.
///
/// Tiny, fast, and statistically fine for graph generation. Not
/// cryptographic.
///
/// **The output stream is frozen.** Changing the algorithm, constants, or
/// the [`next_below`](SplitMix64::next_below) mapping silently changes
/// every seeded testkit graph and benchmark input, and with them every
/// test pinned to one and every benchmark baseline. A pinned-constants
/// test enforces this.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Equal seeds yield equal streams.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`. `bound` must be non-zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Multiply-shift; bias is negligible for the bounds used here.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn rng_stream_is_frozen() {
        // Seeded testkit graphs and benchmark inputs must reproduce
        // identically forever, so the exact output stream is pinned. If
        // this test fails, the RNG changed — that moves every pinned test
        // graph and benchmark baseline, so fix the RNG, do not update the
        // constants here.
        let mut rng = SplitMix64::new(42);
        let got: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(
            got,
            vec![
                0xbdd732262feb6e95,
                0x28efe333b266f103,
                0x47526757130f9f52,
                0x581ce1ff0e4ae394,
            ]
        );
        let mut rng = SplitMix64::new(7);
        assert_eq!(rng.next_below(1000), 389);
        assert_eq!(rng.next_below(1000), 16);
    }
}
