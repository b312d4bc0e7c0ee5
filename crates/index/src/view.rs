//! Borrowed, zero-copy views of a highway-cover index.
//!
//! [`IndexView`] is the label-storage abstraction of the crate: the whole
//! query engine is implemented against it, and two backings provide it —
//!
//! * [`HighwayCoverIndex`](crate::HighwayCoverIndex) (owned `Vec`s, produced
//!   by a build) via [`HighwayCoverIndex::as_view`](crate::HighwayCoverIndex::as_view),
//! * `hcl-store`'s memory-mapped files, whose validated byte ranges are
//!   reinterpreted as the same five slices without copying.
//!
//! Each label entry is one **packed `u32`**: the landmark rank in the
//! high 8 bits, the distance in the low 24 ([`pack_label_entry`] /
//! [`unpack_label_entry`]). This module is the one place that knows that
//! layout; everything else names its constants and accessors. The query
//! hot path walks one cache-line-friendly array per vertex instead of two
//! parallel pointer streams, and because ranks occupy the high bits,
//! per-vertex entries sorted by rank are also sorted as plain `u32`s —
//! which is what the galloping merge in `query.rs` relies on.
//!
//! The word sets two limits: at most [`MAX_LANDMARKS`] (256) landmarks,
//! and a finite landmark distance of at most [`MAX_LABEL_DISTANCE`]
//! (2^24 − 1), which no graph of at most 2^24 vertices can exceed. A build
//! refuses a landmark list longer than the first and panics, naming the
//! limit, on a graph that would break the second; an edit that would write
//! such a distance is refused with a typed error; and
//! [`IndexView::from_parts`] refuses more than 256 landmarks. A distance
//! that fits 24 bits is never [`INFINITY`](hcl_core::INFINITY) and no sum
//! of two of them overflows, so the query merges need no guard on label
//! distances.
//!
//! Untrusted data enters through [`IndexView::from_parts`], which checks
//! every structural invariant the query engine relies on, so hot paths can
//! index unchecked without risking panics on corrupt input.
//!
//! An edited labelling is served as a view of the last fold's arrays under
//! a copy-on-write [`Overlay`] of replacement labels, with its highway
//! slice pointing at the patched matrix ([`PatchedIndex`](crate::PatchedIndex)):
//! a label read loads one chunk pointer, then tests one bit.
//! Every accessor sees the patches except the raw label arrays
//! ([`IndexView::label_offsets`] / [`IndexView::label_entries`]), which
//! are the base's.

use crate::build::{HighwayCoverIndex, IndexStats, NOT_A_LANDMARK};
use hcl_core::{FlatRows, Overlay, Rows, VertexId};
use std::fmt;

/// Where a label entry's landmark rank starts: the low 24 bits hold the
/// distance, the high 8 the rank.
const RANK_SHIFT: u32 = 24;

/// The largest landmark distance a label entry holds: 2^24 − 1.
pub const MAX_LABEL_DISTANCE: u32 = (1 << RANK_SHIFT) - 1;

/// The most landmarks an index holds: a label entry keeps the landmark
/// rank in its high 8 bits, so ranks run below 256.
pub const MAX_LANDMARKS: usize = 1 << (u32::BITS - RANK_SHIFT);

/// The rank bits of a label entry.
const HUB_MASK: u32 = !MAX_LABEL_DISTANCE;

/// Packs a `(hub rank, distance)` label pair into one `u32`: hub in the
/// high 8 bits, distance in the low 24. Hub-sorted entry sequences are
/// therefore also `u32`-sorted. The pair must fit: the hub below
/// [`MAX_LANDMARKS`], the distance at most [`MAX_LABEL_DISTANCE`]; debug
/// builds assert it.
#[inline]
pub const fn pack_label_entry(hub: u32, dist: u32) -> u32 {
    debug_assert!((hub as usize) < MAX_LANDMARKS && dist <= MAX_LABEL_DISTANCE);
    (hub << RANK_SHIFT) | dist
}

/// [`pack_label_entry`], or `None` when the hub rank is not below
/// [`MAX_LANDMARKS`] or the distance is above [`MAX_LABEL_DISTANCE`]. The
/// one check every writer of a label entry that could overflow goes
/// through.
#[inline]
pub(crate) const fn try_pack_label_entry(hub: u32, dist: u32) -> Option<u32> {
    if (hub as usize) < MAX_LANDMARKS && dist <= MAX_LABEL_DISTANCE {
        Some(pack_label_entry(hub, dist))
    } else {
        None
    }
}

/// Unpacks a label entry into `(hub rank, distance)`; inverse of
/// [`pack_label_entry`].
#[inline]
pub const fn unpack_label_entry(entry: u32) -> (u32, u32) {
    (entry_hub(entry), entry_dist(entry))
}

/// The hub rank of a packed label entry (its high 8 bits).
#[inline]
pub(crate) const fn entry_hub(entry: u32) -> u32 {
    entry >> RANK_SHIFT
}

/// The distance of a packed label entry (its low 24 bits).
#[inline]
pub(crate) const fn entry_dist(entry: u32) -> u32 {
    entry & MAX_LABEL_DISTANCE
}

/// The rank key of a packed label entry: its hub bits in place, so two
/// keys compare like the hubs and a key compares with whole entries.
#[inline]
pub(crate) const fn hub_key(entry: u32) -> u32 {
    entry & HUB_MASK
}

/// Validation failure for raw index arrays ([`IndexView::from_parts`]).
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum IndexDataError {
    /// `label_offsets` must hold exactly `num_vertices + 1` entries.
    OffsetsLength {
        /// Expected entry count (`num_vertices + 1`).
        expected: usize,
        /// Actual entry count.
        found: usize,
    },
    /// `label_offsets[0]` is not zero.
    NonZeroFirstOffset,
    /// `label_offsets` decreases at some vertex.
    NonMonotoneOffsets {
        /// Vertex whose label extent is negative.
        vertex: usize,
    },
    /// The final label offset disagrees with the entry array length.
    EntriesLengthMismatch {
        /// Value of the final label offset.
        offsets_total: u64,
        /// Length of the packed entry array.
        entries_len: usize,
    },
    /// More landmarks than vertices.
    TooManyLandmarks {
        /// Number of landmarks.
        landmarks: usize,
        /// Number of vertices.
        vertices: usize,
    },
    /// More landmarks than a label entry has rank bits for
    /// ([`MAX_LANDMARKS`]).
    LandmarkLimit {
        /// Number of landmarks.
        landmarks: usize,
    },
    /// The highway matrix is not `k × k`.
    HighwayShape {
        /// Number of landmarks `k`.
        landmarks: usize,
        /// Actual highway array length.
        found: usize,
    },
    /// A landmark vertex id is out of range.
    LandmarkOutOfRange {
        /// Rank of the bad landmark.
        rank: usize,
        /// The out-of-range vertex id.
        vertex: VertexId,
    },
    /// `landmark_rank` and `landmarks` disagree (not inverse permutations).
    RankTableMismatch {
        /// Vertex at which the disagreement was detected.
        vertex: VertexId,
    },
    /// A label hub rank is `>= k`.
    HubOutOfRange {
        /// Vertex whose label holds the bad hub.
        vertex: usize,
        /// The out-of-range hub rank.
        hub: u32,
    },
    /// A vertex label is not strictly ascending by hub rank.
    UnsortedHubs {
        /// Vertex whose label is malformed.
        vertex: usize,
    },
    /// A highway diagonal entry is non-zero.
    HighwayDiagonal {
        /// Rank with `highway[r][r] != 0`.
        rank: usize,
    },
    /// The highway matrix is asymmetric (the graph is undirected).
    HighwayAsymmetric {
        /// First rank of the asymmetric pair.
        a: usize,
        /// Second rank of the asymmetric pair.
        b: usize,
    },
}

impl fmt::Display for IndexDataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexDataError::OffsetsLength { expected, found } => {
                write!(f, "label offsets hold {found} entries, expected {expected}")
            }
            IndexDataError::NonZeroFirstOffset => write!(f, "label offsets must start at 0"),
            IndexDataError::NonMonotoneOffsets { vertex } => {
                write!(f, "label offsets decrease at vertex {vertex}")
            }
            IndexDataError::EntriesLengthMismatch {
                offsets_total,
                entries_len,
            } => write!(
                f,
                "final label offset {offsets_total} disagrees with entry array length \
                 {entries_len}"
            ),
            IndexDataError::TooManyLandmarks {
                landmarks,
                vertices,
            } => {
                write!(f, "{landmarks} landmarks on a {vertices}-vertex graph")
            }
            IndexDataError::LandmarkLimit { landmarks } => write!(
                f,
                "{landmarks} landmarks, but a label entry holds ranks below {MAX_LANDMARKS}"
            ),
            IndexDataError::HighwayShape { landmarks, found } => {
                write!(f, "highway has {found} entries, expected {landmarks}²")
            }
            IndexDataError::LandmarkOutOfRange { rank, vertex } => {
                write!(f, "landmark {rank} is out-of-range vertex {vertex}")
            }
            IndexDataError::RankTableMismatch { vertex } => {
                write!(
                    f,
                    "landmark rank table disagrees with landmark list at vertex {vertex}"
                )
            }
            IndexDataError::HubOutOfRange { vertex, hub } => {
                write!(
                    f,
                    "label of vertex {vertex} references out-of-range hub {hub}"
                )
            }
            IndexDataError::UnsortedHubs { vertex } => {
                write!(
                    f,
                    "label of vertex {vertex} is not strictly ascending by hub"
                )
            }
            IndexDataError::HighwayDiagonal { rank } => {
                write!(f, "highway diagonal entry {rank} is non-zero")
            }
            IndexDataError::HighwayAsymmetric { a, b } => {
                write!(f, "highway entries ({a}, {b}) and ({b}, {a}) disagree")
            }
        }
    }
}

impl std::error::Error for IndexDataError {}

/// A borrowed, zero-copy view of a highway-cover index.
///
/// Five slices, layout-identical to the owned
/// [`HighwayCoverIndex`](crate::HighwayCoverIndex); see the module docs.
/// `Copy`, so pass it by value. All query entry points
/// ([`query_with`](IndexView::query_with) and friends) live on this type.
#[derive(Clone, Copy, Debug)]
pub struct IndexView<'a> {
    /// Landmark rank → vertex id, in ranking order.
    pub(crate) landmarks: &'a [VertexId],
    /// Vertex id → landmark rank, or [`NOT_A_LANDMARK`]; length is the
    /// vertex count.
    pub(crate) landmark_rank: &'a [u32],
    /// CSR offsets into `label_entries`; length `n + 1`.
    pub(crate) label_offsets: &'a [u64],
    /// Packed label entries ([`pack_label_entry`]), hub-ascending (hence
    /// `u32`-ascending) within each vertex.
    pub(crate) label_entries: &'a [u32],
    /// Row-major `k × k` closed landmark-to-landmark distances.
    pub(crate) highway: &'a [u32],
    /// Replacement labels over `label_offsets` / `label_entries`, if any.
    pub(crate) label_patches: Option<&'a Overlay<u32>>,
}

impl<'a> IndexView<'a> {
    /// Builds a validated view over raw index arrays.
    ///
    /// Checks every structural invariant the query engine indexes by:
    /// label offsets monotone and spanning the entry array, entry hubs
    /// strictly ascending and `< k`, `landmarks`/`landmark_rank` mutually
    /// inverse, highway `k × k` with zero diagonal and symmetric. `O(n +
    /// entries + k²)` — run once per load. Semantic correctness of the
    /// *distances* is not (cannot cheaply be) verified here; a
    /// tampered-but-well-formed file yields wrong answers, never panics or
    /// UB. The labels, the largest section, are checked by an exact pass
    /// that only accepts or rejects; only labels it rejects are walked
    /// again to name the fault.
    pub fn from_parts(
        landmarks: &'a [VertexId],
        landmark_rank: &'a [u32],
        label_offsets: &'a [u64],
        label_entries: &'a [u32],
        highway: &'a [u32],
    ) -> Result<Self, IndexDataError> {
        let view = Self::from_parts_unchecked(
            landmarks,
            landmark_rank,
            label_offsets,
            label_entries,
            highway,
        );
        view.validate()?;
        Ok(view)
    }

    /// Builds a view **without validating** (see
    /// [`from_parts`](IndexView::from_parts) for what is skipped).
    ///
    /// Still a safe function: malformed arrays can cause wrong answers or
    /// panics later, never undefined behaviour. Use only on arrays that
    /// already passed validation.
    pub fn from_parts_unchecked(
        landmarks: &'a [VertexId],
        landmark_rank: &'a [u32],
        label_offsets: &'a [u64],
        label_entries: &'a [u32],
        highway: &'a [u32],
    ) -> Self {
        Self {
            landmarks,
            landmark_rank,
            label_offsets,
            label_entries,
            highway,
            label_patches: None,
        }
    }

    fn validate(&self) -> Result<(), IndexDataError> {
        let n = self.landmark_rank.len();
        let k = self.landmarks.len();
        if self.label_offsets.len() != n + 1 {
            return Err(IndexDataError::OffsetsLength {
                expected: n + 1,
                found: self.label_offsets.len(),
            });
        }
        if self.label_offsets[0] != 0 {
            return Err(IndexDataError::NonZeroFirstOffset);
        }
        let mut prev = 0u64;
        for (v, &off) in self.label_offsets.iter().enumerate().skip(1) {
            if off < prev {
                return Err(IndexDataError::NonMonotoneOffsets { vertex: v - 1 });
            }
            prev = off;
        }
        if prev != self.label_entries.len() as u64 {
            return Err(IndexDataError::EntriesLengthMismatch {
                offsets_total: prev,
                entries_len: self.label_entries.len(),
            });
        }
        if k > n {
            return Err(IndexDataError::TooManyLandmarks {
                landmarks: k,
                vertices: n,
            });
        }
        if k > MAX_LANDMARKS {
            return Err(IndexDataError::LandmarkLimit { landmarks: k });
        }
        if self.highway.len() != k * k {
            return Err(IndexDataError::HighwayShape {
                landmarks: k,
                found: self.highway.len(),
            });
        }
        // `landmarks` and `landmark_rank` must be mutually inverse.
        for (rank, &v) in self.landmarks.iter().enumerate() {
            if (v as usize) >= n {
                return Err(IndexDataError::LandmarkOutOfRange { rank, vertex: v });
            }
            if self.landmark_rank[v as usize] != rank as u32 {
                return Err(IndexDataError::RankTableMismatch { vertex: v });
            }
        }
        for (v, &rank) in self.landmark_rank.iter().enumerate() {
            if rank != NOT_A_LANDMARK
                && (rank as usize >= k || self.landmarks[rank as usize] as usize != v)
            {
                return Err(IndexDataError::RankTableMismatch {
                    vertex: v as VertexId,
                });
            }
        }
        // Labels: hubs strictly ascending and in range. Strict hub ascent
        // implies strict `u32` ascent of the packed entries but not the
        // other way round — equal hubs with ascending distances ascend as
        // words — so both passes compare hubs, never whole entries. The
        // accept-only pass decides; the naming loop runs only on labels it
        // rejected.
        let labels = FlatRows::new(self.label_offsets, self.label_entries);
        if !labels.ascend_below(entry_hub, k) {
            for v in 0..n {
                let lo = self.label_offsets[v] as usize;
                let hi = self.label_offsets[v + 1] as usize;
                let mut last: Option<u32> = None;
                for &entry in &self.label_entries[lo..hi] {
                    let hub = entry_hub(entry);
                    if hub as usize >= k {
                        return Err(IndexDataError::HubOutOfRange { vertex: v, hub });
                    }
                    if let Some(l) = last {
                        if hub <= l {
                            return Err(IndexDataError::UnsortedHubs { vertex: v });
                        }
                    }
                    last = Some(hub);
                }
            }
        }
        // Highway: zero diagonal, symmetric.
        for a in 0..k {
            if self.highway[a * k + a] != 0 {
                return Err(IndexDataError::HighwayDiagonal { rank: a });
            }
            for b in (a + 1)..k {
                if self.highway[a * k + b] != self.highway[b * k + a] {
                    return Err(IndexDataError::HighwayAsymmetric { a, b });
                }
            }
        }
        Ok(())
    }

    /// Number of landmarks in the index.
    pub fn num_landmarks(&self) -> usize {
        self.landmarks.len()
    }

    /// Vertex count of the graph this index was built for.
    pub fn num_vertices(&self) -> usize {
        self.landmark_rank.len()
    }

    /// The `(hub rank, distance)` label entries of vertex `v`, hub-sorted.
    pub fn label(&self, v: VertexId) -> impl Iterator<Item = (u32, u32)> + 'a {
        self.packed_label(v).iter().map(|&e| unpack_label_entry(e))
    }

    /// The packed label entries of vertex `v`, hub-sorted: its
    /// replacement if the view is patched there, else the base slice.
    #[inline]
    pub(crate) fn packed_label(&self, v: VertexId) -> &'a [u32] {
        if let Some(label) = self.label_patches.and_then(|p| p.get(v)) {
            return label;
        }
        let lo = self.label_offsets[v as usize] as usize;
        let hi = self.label_offsets[v as usize + 1] as usize;
        &self.label_entries[lo..hi]
    }

    /// Whether the view carries replacement labels.
    pub fn is_patched(&self) -> bool {
        self.label_patches.is_some()
    }

    /// Number of vertices whose label the view's patches replace (0 for
    /// an unpatched view).
    pub fn patched_rows(&self) -> usize {
        self.label_patches.map_or(0, Overlay::len)
    }

    /// The label arrays this view's patches apply to, without them (the
    /// view itself when it is unpatched); the highway stays the view's.
    pub fn unpatched(&self) -> Self {
        Self {
            label_patches: None,
            ..*self
        }
    }

    /// The bare label rows of an unpatched view, for query bodies generic
    /// over [`Rows`].
    pub(crate) fn flat_label_rows(&self) -> FlatRows<'a, u32> {
        debug_assert!(self.label_patches.is_none(), "flat rows of a patched view");
        FlatRows::new(self.label_offsets, self.label_entries)
    }

    /// Whether vertex `v` is a landmark.
    pub fn is_landmark(&self, v: VertexId) -> bool {
        self.landmark_rank[v as usize] != NOT_A_LANDMARK
    }

    /// Landmark rank → vertex id, in ranking order (for serialisation).
    pub fn landmarks(&self) -> &'a [VertexId] {
        self.landmarks
    }

    /// Vertex id → landmark rank array (for serialisation).
    pub fn landmark_rank(&self) -> &'a [u32] {
        self.landmark_rank
    }

    /// CSR label offsets, `n + 1` entries (for serialisation). Base only:
    /// a patched view's replacement labels are not in it, so call this on
    /// unpatched views ([`unpatched`](Self::unpatched) gets the base of a
    /// patched one).
    pub fn label_offsets(&self) -> &'a [u64] {
        debug_assert!(
            self.label_patches.is_none(),
            "raw offsets of a patched view"
        );
        self.label_offsets
    }

    /// Flat packed label entries ([`pack_label_entry`]), for
    /// serialisation. Base only, like [`label_offsets`](Self::label_offsets).
    pub fn label_entries(&self) -> &'a [u32] {
        debug_assert!(
            self.label_patches.is_none(),
            "raw entries of a patched view"
        );
        self.label_entries
    }

    /// Row-major `k × k` closed highway matrix (for serialisation).
    pub fn highway(&self) -> &'a [u32] {
        self.highway
    }

    /// Copies the view into an owned [`HighwayCoverIndex`]; patched labels
    /// are spliced (each clean run of vertices one copy, each patched label
    /// one).
    pub fn to_owned_index(&self) -> HighwayCoverIndex {
        let (label_offsets, label_entries) = match self.label_patches {
            Some(patches) => patches.splice(self.label_offsets, self.label_entries),
            None => (self.label_offsets.to_vec(), self.label_entries.to_vec()),
        };
        HighwayCoverIndex {
            landmarks: self.landmarks.to_vec(),
            landmark_rank: self.landmark_rank.to_vec(),
            label_offsets,
            label_entries,
            highway: self.highway.to_vec(),
        }
    }

    /// Size statistics for logging and tuning — of the labelling as served,
    /// so a patched view reports what its splice would.
    pub fn stats(&self) -> IndexStats {
        let base_total = self.label_entries.len();
        let total = self
            .label_patches
            .map_or(base_total, |p| p.patched_len(base_total));
        let n = self.num_vertices();
        let max = (0..n as VertexId)
            .map(|v| self.packed_label(v).len())
            .max()
            .unwrap_or(0);
        let bytes = std::mem::size_of_val(self.landmarks)
            + std::mem::size_of_val(self.landmark_rank)
            + std::mem::size_of_val(self.label_offsets)
            + total * std::mem::size_of::<u32>()
            + std::mem::size_of_val(self.highway);
        IndexStats {
            num_landmarks: self.landmarks.len(),
            total_label_entries: total,
            avg_label_size: total as f64 / n.max(1) as f64,
            max_label_size: max,
            bytes,
        }
    }
}

impl<'a> Rows<'a, u32> for IndexView<'a> {
    #[inline]
    fn row(self, v: VertexId) -> &'a [u32] {
        self.packed_label(v)
    }

    fn num_rows(self) -> usize {
        self.num_vertices()
    }
}

impl<'a> From<&'a HighwayCoverIndex> for IndexView<'a> {
    fn from(idx: &'a HighwayCoverIndex) -> Self {
        idx.as_view()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcl_core::testkit::{self, SplitMix64};
    use hcl_core::Graph;

    /// Packs parallel hub/dist arrays — the shape tests are written in.
    fn pack(hubs: &[u32], dists: &[u32]) -> Vec<u32> {
        hubs.iter()
            .zip(dists)
            .map(|(&h, &d)| pack_label_entry(h, d))
            .collect()
    }

    #[test]
    fn pack_unpack_roundtrips_and_orders_by_hub() {
        let (top_hub, top_dist) = (MAX_LANDMARKS as u32 - 1, MAX_LABEL_DISTANCE);
        for (h, d) in [
            (0u32, 0u32),
            (1, top_dist),
            (top_hub, 7),
            (top_hub, top_dist),
            (3, 3),
        ] {
            assert_eq!(unpack_label_entry(pack_label_entry(h, d)), (h, d));
            assert_eq!(try_pack_label_entry(h, d), Some(pack_label_entry(h, d)));
        }
        // Hub dominates the packed ordering regardless of distances.
        assert!(pack_label_entry(1, top_dist) < pack_label_entry(2, 0));
        assert_eq!(
            hub_key(pack_label_entry(5, top_dist)),
            pack_label_entry(5, 0)
        );
    }

    #[test]
    fn the_word_holds_distance_two_to_the_24_minus_1_and_refuses_two_to_the_24() {
        assert_eq!(MAX_LABEL_DISTANCE, (1 << 24) - 1);
        assert_eq!(MAX_LANDMARKS, 256);
        let top = try_pack_label_entry(255, (1 << 24) - 1).expect("2^24 - 1 fits");
        assert_eq!(unpack_label_entry(top), (255, (1 << 24) - 1));
        assert_eq!(top, u32::MAX);
        for (hub, dist) in [
            (0, 1 << 24),
            (255, 1 << 24),
            (0, u32::MAX),
            (256, 0),
            (u32::MAX, 0),
        ] {
            assert_eq!(try_pack_label_entry(hub, dist), None, "({hub}, {dist})");
        }
    }

    #[test]
    fn build_output_validates_cleanly() {
        for k in [0, 1, 4, 16] {
            let g = testkit::erdos_renyi(50, 0.08, 9);
            let idx = HighwayCoverIndex::build_top_k(&g, k);
            let v = idx.as_view();
            let revalidated = IndexView::from_parts(
                v.landmarks(),
                v.landmark_rank(),
                v.label_offsets(),
                v.label_entries(),
                v.highway(),
            )
            .expect("freshly built index must validate");
            assert_eq!(revalidated.num_landmarks(), idx.as_view().num_landmarks());
            assert_eq!(revalidated.num_vertices(), idx.as_view().num_vertices());
        }
    }

    #[test]
    fn to_owned_index_roundtrips() {
        let g = testkit::grid(5, 5);
        let idx = HighwayCoverIndex::build_top_k(&g, 6);
        let copy = idx.as_view().to_owned_index();
        for v in 0..25 {
            assert_eq!(
                idx.as_view().label(v).collect::<Vec<_>>(),
                copy.as_view().label(v).collect::<Vec<_>>()
            );
        }
        assert_eq!(idx.stats().bytes, copy.stats().bytes);
    }

    /// The label part of what `from_parts` decides, by brute force: every
    /// hub below `k`, and each label strictly ascending by hub.
    fn labels_are_valid(offsets: &[u64], entries: &[u32], k: usize) -> bool {
        offsets.windows(2).all(|o| {
            let label = &entries[o[0] as usize..o[1] as usize];
            label.iter().all(|&e| (entry_hub(e) as usize) < k)
                && label.windows(2).all(|p| entry_hub(p[0]) < entry_hub(p[1]))
        })
    }

    /// Seeded single-fault mutations of `entries` at up to `positions`
    /// sampled entries (every entry when there are no more): the hub
    /// bumped by one, a hub `>= k`, a swap with another entry, and the
    /// predecessor's hub with a larger distance (still `u32`-ascending).
    fn label_mutations(
        offsets: &[u64],
        entries: &[u32],
        k: usize,
        positions: usize,
        rng: &mut SplitMix64,
    ) -> Vec<(String, Vec<u32>)> {
        let len = entries.len();
        let sampled: Vec<usize> = if len <= positions {
            (0..len).collect()
        } else {
            (0..positions)
                .map(|_| rng.next_below(len as u64) as usize)
                .collect()
        };
        let mut out = Vec::new();
        for e in sampled {
            let (hub, dist) = unpack_label_entry(entries[e]);
            let mut set = |what: String, value: u32| {
                let mut bad = entries.to_vec();
                bad[e] = value;
                out.push((what, bad));
            };
            set(format!("hub + 1 at {e}"), pack_label_entry(hub + 1, dist));
            let big = k as u32 + rng.next_below(3) as u32;
            set(format!("hub {big} at {e}"), pack_label_entry(big, dist));
            let row_start = offsets[offsets.partition_point(|&o| o <= e as u64) - 1];
            if e as u64 > row_start {
                let (prev, prev_dist) = unpack_label_entry(entries[e - 1]);
                let equal = pack_label_entry(prev, prev_dist.saturating_add(1));
                set(format!("hub {prev} repeated at {e}"), equal);
            }
            let f = rng.next_below(len as u64) as usize;
            let mut swapped = entries.to_vec();
            swapped.swap(e, f);
            out.push((format!("swap {e} <-> {f}"), swapped));
        }
        out
    }

    #[test]
    fn from_parts_agrees_with_the_definition_under_mutation() {
        let leaves = 100_000;
        let hub = leaves as VertexId;
        let mut graphs = testkit::families();
        graphs.push(("broom".into(), testkit::broom(1_000, 3, 1_500, 23)));
        graphs.push(("star centred first".into(), testkit::star(leaves + 1)));
        let edges: Vec<(VertexId, VertexId)> = (0..hub).map(|v| (v, hub)).collect();
        graphs.push(("star centred last".into(), Graph::from_edges(&edges)));

        let mut rng = SplitMix64::new(0x1AB_2026);
        let mut rejected = 0;
        for (name, g) in &graphs {
            // Every entry of a family's labels, a sample of the broom's
            // and the stars'.
            let positions = match g.num_vertices() {
                0..=100 => usize::MAX,
                101..=10_000 => 200,
                _ => 12,
            };
            for k in [1, 16] {
                let idx = HighwayCoverIndex::build_top_k(g, k);
                let v = idx.as_view();
                let (offsets, entries) = (v.label_offsets(), v.label_entries());
                let k = v.num_landmarks();
                let error = |entries: &[u32]| {
                    IndexView::from_parts(
                        v.landmarks(),
                        v.landmark_rank(),
                        offsets,
                        entries,
                        v.highway(),
                    )
                    .err()
                };
                assert_eq!(error(entries), None, "{name}, k = {k}");
                let labels = FlatRows::new(offsets, entries);
                assert!(labels.ascend_below(entry_hub, k), "{name}, k = {k}");
                for (what, bad) in label_mutations(offsets, entries, k, positions, &mut rng) {
                    let want = labels_are_valid(offsets, &bad, k);
                    let got = error(&bad);
                    assert_eq!(got.is_none(), want, "{name}, k = {k}: {what}: {got:?}");
                    // The accept-only pass alone decides the same.
                    let accepted = FlatRows::new(offsets, &bad).ascend_below(entry_hub, k);
                    assert_eq!(accepted, want, "{name}, k = {k}: {what}: accept-only pass");
                    rejected += usize::from(!want);
                }
            }
        }
        assert!(rejected > 0, "no mutation was rejected");
    }

    #[test]
    fn from_parts_reports_errors_in_section_order() {
        // Three vertices, landmarks 0 and 1; vertex 2's label is the one
        // with two entries.
        let landmarks: &[u32] = &[0, 1];
        let rank: &[u32] = &[0, 1, NOT_A_LANDMARK];
        let offsets: &[u64] = &[0, 1, 2, 4];
        let entries = pack(&[0, 1, 0, 1], &[0, 0, 1, 1]);
        let highway: &[u32] = &[0, 1, 1, 0];
        let check =
            |landmarks: &[u32], rank: &[u32], offsets: &[u64], entries: &[u32], highway: &[u32]| {
                IndexView::from_parts(landmarks, rank, offsets, entries, highway)
                    .err()
                    .map(|e| e.to_string())
            };
        assert_eq!(check(landmarks, rank, offsets, &entries, highway), None);

        // One fault per section, in the order they are checked. Each
        // later section's fault is planted beside every earlier one.
        let bad_offsets: &[u64] = &[0, 2, 1, 4];
        let bad_landmarks: &[u32] = &[0, 7];
        let bad_entries = pack(&[0, 1, 1, 0], &[0, 0, 1, 1]);
        let bad_highway: &[u32] = &[0, 1, 2, 0];
        let offsets_err = IndexDataError::NonMonotoneOffsets { vertex: 1 }.to_string();
        let landmark_err = IndexDataError::LandmarkOutOfRange { rank: 1, vertex: 7 }.to_string();
        let label_err = IndexDataError::UnsortedHubs { vertex: 2 }.to_string();
        let highway_err = IndexDataError::HighwayAsymmetric { a: 0, b: 1 }.to_string();
        for later in 0..8u32 {
            let (l, e, h) = (later & 1 != 0, later & 2 != 0, later & 4 != 0);
            let landmarks = if l { bad_landmarks } else { landmarks };
            let entries = if e { &bad_entries } else { &entries };
            let highway = if h { bad_highway } else { highway };
            assert_eq!(
                check(landmarks, rank, bad_offsets, entries, highway),
                Some(offsets_err.clone())
            );
            let first = [(l, &landmark_err), (e, &label_err), (h, &highway_err)]
                .into_iter()
                .find_map(|(planted, err)| planted.then(|| err.clone()));
            assert_eq!(check(landmarks, rank, offsets, entries, highway), first);
        }
        // Offsets and length errors outrank a rank table that disagrees.
        assert!(matches!(
            IndexView::from_parts(landmarks, &[1, 0, 0], &[0, 1, 2, 5], &entries, highway),
            Err(IndexDataError::EntriesLengthMismatch { .. })
        ));
        assert!(matches!(
            IndexView::from_parts(landmarks, &[1, 0, 0], &[0, 1, 2], &entries, highway),
            Err(IndexDataError::OffsetsLength { .. })
        ));
        // A disagreeing rank table outranks every label fault.
        assert_eq!(
            IndexView::from_parts(landmarks, &[1, 0, 0], offsets, &bad_entries, highway).err(),
            Some(IndexDataError::RankTableMismatch { vertex: 0 })
        );

        // Labels: an earlier row outranks a later one, and within a row
        // the first offending entry decides.
        let labels = |hubs: &[u32], offsets: &[u64]| {
            IndexView::from_parts(landmarks, rank, offsets, &pack(hubs, &[0; 4]), highway)
                .unwrap_err()
        };
        let rows = [0, 1, 2, 4];
        let cases: [(&[u32], &[u64], IndexDataError); 7] = [
            // Row 0 out of range, row 2 unsorted.
            (
                &[5, 1, 1, 0],
                &rows,
                IndexDataError::HubOutOfRange { vertex: 0, hub: 5 },
            ),
            // Row 1 unsorted (two entries), row 2 out of range.
            (
                &[0, 1, 0, 9],
                &[0, 1, 3, 4],
                IndexDataError::UnsortedHubs { vertex: 1 },
            ),
            // Row 2: unsorted at its second entry, out of range at a later
            // one — and the other way round.
            (
                &[0, 1, 1, 1],
                &[0, 1, 1, 4],
                IndexDataError::UnsortedHubs { vertex: 2 },
            ),
            (
                &[0, 1, 8, 0],
                &rows,
                IndexDataError::HubOutOfRange { vertex: 2, hub: 8 },
            ),
            // Equal hubs whose packed words still ascend.
            (
                &[0, 1, 1, 1],
                &rows,
                IndexDataError::UnsortedHubs { vertex: 2 },
            ),
            // Both entries of row 2 out of range, the second also not
            // above the first: the first entry is named, out of range.
            (
                &[0, 1, 9, 9],
                &rows,
                IndexDataError::HubOutOfRange { vertex: 2, hub: 9 },
            ),
            // A drop across a row start is no fault; row 2's is.
            (
                &[0, 1, 0, 0],
                &rows,
                IndexDataError::UnsortedHubs { vertex: 2 },
            ),
        ];
        for (hubs, offsets, want) in cases {
            assert_eq!(
                labels(hubs, offsets),
                want,
                "hubs {hubs:?}, offsets {offsets:?}"
            );
        }

        // Highway, row by row: row `a`'s diagonal, then its pairs `(a, b)`
        // with `b > a`, then row `a + 1`.
        let highway_err = |highway: &[u32]| {
            IndexView::from_parts(landmarks, rank, offsets, &entries, highway).err()
        };
        assert_eq!(
            highway_err(&[0, 1, 1, 3]),
            Some(IndexDataError::HighwayDiagonal { rank: 1 })
        );
        assert_eq!(
            highway_err(&[0, 1, 2, 3]),
            Some(IndexDataError::HighwayAsymmetric { a: 0, b: 1 })
        );
        assert_eq!(
            highway_err(&[4, 1, 2, 3]),
            Some(IndexDataError::HighwayDiagonal { rank: 0 })
        );
    }

    #[test]
    fn from_parts_rejects_malformed_arrays() {
        // Minimal 2-vertex, 1-landmark shape.
        let landmarks: &[u32] = &[0];
        let rank: &[u32] = &[0, NOT_A_LANDMARK];
        let offsets: &[u64] = &[0, 1, 2];
        let entries = pack(&[0, 0], &[0, 1]);
        let highway: &[u32] = &[0];
        assert!(IndexView::from_parts(landmarks, rank, offsets, &entries, highway).is_ok());

        assert!(matches!(
            IndexView::from_parts(landmarks, rank, &[0, 1], &entries, highway).unwrap_err(),
            IndexDataError::OffsetsLength { .. }
        ));
        assert!(matches!(
            IndexView::from_parts(landmarks, rank, &[0, 2, 1], &entries, highway).unwrap_err(),
            IndexDataError::NonMonotoneOffsets { .. }
        ));
        assert!(matches!(
            IndexView::from_parts(landmarks, rank, &[0, 1, 3], &entries, highway).unwrap_err(),
            IndexDataError::EntriesLengthMismatch { .. }
        ));
        let bad_hub = pack(&[5, 0], &[0, 1]);
        assert!(matches!(
            IndexView::from_parts(landmarks, rank, offsets, &bad_hub, highway).unwrap_err(),
            IndexDataError::HubOutOfRange { hub: 5, .. }
        ));
        assert!(matches!(
            IndexView::from_parts(landmarks, rank, offsets, &entries, &[0, 0]).unwrap_err(),
            IndexDataError::HighwayShape { .. }
        ));
        assert!(matches!(
            IndexView::from_parts(&[9], rank, offsets, &entries, highway).unwrap_err(),
            IndexDataError::LandmarkOutOfRange { vertex: 9, .. }
        ));
        assert!(matches!(
            IndexView::from_parts(landmarks, &[0, 0], offsets, &entries, highway).unwrap_err(),
            IndexDataError::RankTableMismatch { .. }
        ));
        assert!(matches!(
            IndexView::from_parts(landmarks, rank, offsets, &entries, &[3]).unwrap_err(),
            IndexDataError::HighwayDiagonal { .. }
        ));
        // Duplicate hub within one vertex label.
        let dup = pack(&[0, 0], &[0, 1]);
        assert!(matches!(
            IndexView::from_parts(&[0, 1], &[0, 1], &[0, 2, 2], &dup, &[0, 1, 1, 0]).unwrap_err(),
            IndexDataError::UnsortedHubs { vertex: 0 }
        ));
        // Asymmetric highway on the same 2-landmark shape.
        let one = pack(&[0], &[0]);
        assert!(matches!(
            IndexView::from_parts(&[0, 1], &[0, 1], &[0, 1, 1], &one, &[0, 1, 2, 0]).unwrap_err(),
            IndexDataError::HighwayAsymmetric { .. }
        ));
        // Every vertex a landmark, no label entries: 256 is well formed,
        // 257 is more ranks than a label entry holds.
        for k in [MAX_LANDMARKS, MAX_LANDMARKS + 1] {
            let landmarks: Vec<u32> = (0..k as u32).collect();
            let offsets = vec![0u64; k + 1];
            let highway = vec![0u32; k * k];
            let got = IndexView::from_parts(&landmarks, &landmarks, &offsets, &[], &highway);
            match got {
                Ok(_) => assert_eq!(k, MAX_LANDMARKS),
                Err(e) => assert_eq!(e, IndexDataError::LandmarkLimit { landmarks: k }),
            }
        }
    }
}
