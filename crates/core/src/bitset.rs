//! A dense, fixed-universe bitset.
//!
//! Built for hot-path membership tests where the candidate set is a small
//! fraction of a large universe — e.g. "is vertex `w` a landmark?" inside
//! the query engine's residual BFS, where a bit probe touches 64× less
//! cache than the equivalent `u32` rank-table load. The universe size is
//! explicit ([`DenseBitSet::reset`]) and out-of-range probes simply answer
//! `false`, so callers can share one set across graphs of different sizes.

/// A dense bitset over the universe `0..len`.
///
/// One `u64` word per 64 universe elements. [`DenseBitSet::reset`]
/// re-zeroes and re-sizes in one pass (`O(len / 64)`), which is how a
/// reusable scratch structure swaps to a different universe cheaply.
#[derive(Clone, Debug, Default)]
pub struct DenseBitSet {
    words: Vec<u64>,
    len: usize,
}

impl DenseBitSet {
    /// Creates an empty set over the empty universe; use
    /// [`DenseBitSet::reset`] to size it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears the set and resizes the universe to `0..len`.
    pub fn reset(&mut self, len: usize) {
        let words = len.div_ceil(64);
        self.words.clear();
        self.words.resize(words, 0);
        self.len = len;
    }

    /// Universe size (`contains` answers `false` at and beyond it).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts `i` into the set.
    ///
    /// # Panics
    /// Panics if `i` is outside the universe.
    pub fn insert(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} outside universe 0..{}", self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Whether `i` is in the set. Out-of-universe probes answer `false`
    /// instead of panicking, so the hot path needs no separate range check.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        match self.words.get(i / 64) {
            Some(word) => (word >> (i % 64)) & 1 != 0,
            None => false,
        }
    }

    /// Number of elements currently in the set.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The elements in ascending order, one word scan (`O(len / 64)` plus
    /// one step per element).
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                let bit = (bits != 0).then(|| bits.trailing_zeros() as usize)?;
                bits &= bits - 1;
                Some(w * 64 + bit)
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_empty_and_resets_clear() {
        let mut s = DenseBitSet::new();
        assert!(s.is_empty());
        assert!(!s.contains(0));
        s.reset(130);
        assert_eq!(s.len(), 130);
        assert_eq!(s.count(), 0);
        assert_eq!(s.iter().count(), 0);
        s.insert(129);
        s.insert(64);
        s.insert(0);
        s.insert(63);
        assert_eq!(s.count(), 4);
        assert_eq!(s.iter().collect::<Vec<_>>(), [0, 63, 64, 129]);
        for i in [0usize, 63, 64, 129] {
            assert!(s.contains(i), "missing {i}");
        }
        for i in [1usize, 62, 65, 128, 130, 4096] {
            assert!(!s.contains(i), "spurious {i}");
        }
        // Reset to a smaller universe drops everything.
        s.reset(10);
        assert_eq!(s.count(), 0);
        assert!(!s.contains(0));
        assert!(!s.contains(64));
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn insert_out_of_universe_panics() {
        let mut s = DenseBitSet::new();
        s.reset(64);
        s.insert(64);
    }

    #[test]
    fn word_boundaries_are_exact() {
        let mut s = DenseBitSet::new();
        s.reset(256);
        for i in (0..256).step_by(2) {
            s.insert(i);
        }
        assert_eq!(s.count(), 128);
        for i in 0..256 {
            assert_eq!(s.contains(i), i % 2 == 0, "bit {i}");
        }
        assert!(s.iter().eq((0..256).step_by(2)));
    }
}
