//! Immutable CSR (compressed sparse row) graph storage — owned graphs and
//! zero-copy borrowed views.
//!
//! The graph model throughout the workspace is the one used by the paper:
//! unweighted, undirected, simple graphs. [`GraphBuilder`] accepts arbitrary
//! messy edge lists (self-loops, duplicates, either endpoint order) and
//! canonicalises them at build time, so the resulting [`Graph`] can assume a
//! clean adjacency structure on every hot path.
//!
//! Storage comes in two flavours sharing one implementation:
//!
//! * [`Graph`] — owns its two arrays (`Vec`-backed). Produced by
//!   [`GraphBuilder`] (ingest), [`Graph::from_csr`], or a delta overlay's
//!   splice ([`DeltaGraph::to_graph`](crate::DeltaGraph::to_graph)).
//! * [`GraphView`] — borrows the same two arrays as slices. This is what
//!   `hcl-store` hands out when serving a memory-mapped index file without
//!   copying: the mmap'd bytes *are* the arrays. A view may also carry an
//!   [`Overlay`] of replacement adjacency rows (a live-updated generation,
//!   see [`FrozenGraph`](crate::FrozenGraph)): a read loads one chunk
//!   pointer, then tests one bit. Every accessor except the raw-array ones
//!   sees the patches.
//!
//! `Graph` methods delegate through [`Graph::as_view`], so owned and
//! mapped graphs behave identically. Every traversal (BFS oracle, index
//! build, query engine) reads its rows through the [`Rows`] trait, which
//! [`FlatRows`] and `&Graph` (bare arrays), [`GraphView`] (patch-aware)
//! and `&DeltaGraph` (an edit overlay) implement, so one generic body
//! compiles to each and a loop over bare arrays pays no per-row patch
//! test.
//!
//! Offsets are stored as `u64` (not `usize`) so the in-memory layout matches
//! the on-disk little-endian format exactly, making the borrowed view a
//! straight reinterpretation of file bytes.

use crate::delta::Overlay;
use std::fmt;

/// Vertex identifier. Dense, zero-based.
pub type VertexId = u32;

/// Sentinel distance meaning "unreachable" in `u32` distance arrays.
pub const INFINITY: u32 = u32::MAX;

/// Validation failure for raw CSR arrays ([`Graph::from_csr`] /
/// [`GraphView::from_csr`]).
///
/// Untrusted CSR data (e.g. read from disk) is validated once up front;
/// afterwards every traversal can rely on the invariants without rechecking
/// them on hot paths.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum CsrError {
    /// The offsets array is empty; it must hold `n + 1` entries.
    EmptyOffsets,
    /// `offsets[0]` is not zero.
    NonZeroFirstOffset,
    /// The offsets array implies more vertices than [`VertexId`] can address.
    TooManyVertices {
        /// Vertex count implied by the offsets array.
        num_vertices: u64,
    },
    /// `offsets[vertex + 1] < offsets[vertex]` (negative extent).
    NonMonotoneOffsets {
        /// Vertex whose extent is negative.
        vertex: usize,
    },
    /// The final offset disagrees with the neighbour-array length.
    LengthMismatch {
        /// Value of the final offset.
        last_offset: u64,
        /// Actual length of the neighbour array.
        neighbors_len: usize,
    },
    /// A neighbour id is out of range (`>= n`).
    NeighborOutOfRange {
        /// Vertex whose adjacency list holds the bad entry.
        vertex: usize,
        /// The out-of-range neighbour id.
        neighbor: VertexId,
    },
    /// A vertex appears in its own adjacency list.
    SelfLoop {
        /// The offending vertex.
        vertex: usize,
    },
    /// An adjacency list is not strictly ascending (unsorted or duplicated).
    UnsortedNeighbors {
        /// Vertex whose adjacency list is malformed.
        vertex: usize,
    },
    /// Edge `u -> v` is present without its reverse `v -> u`; the graph
    /// model is undirected, so adjacency must be symmetric.
    MissingReverseEdge {
        /// Source of the one-directional edge.
        u: VertexId,
        /// Target of the one-directional edge.
        v: VertexId,
    },
}

impl fmt::Display for CsrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsrError::EmptyOffsets => write!(f, "CSR offsets array is empty"),
            CsrError::NonZeroFirstOffset => write!(f, "CSR offsets must start at 0"),
            CsrError::TooManyVertices { num_vertices } => {
                write!(f, "{num_vertices} vertices exceed the VertexId range")
            }
            CsrError::NonMonotoneOffsets { vertex } => {
                write!(f, "CSR offsets decrease at vertex {vertex}")
            }
            CsrError::LengthMismatch {
                last_offset,
                neighbors_len,
            } => write!(
                f,
                "final CSR offset {last_offset} != neighbour array length {neighbors_len}"
            ),
            CsrError::NeighborOutOfRange { vertex, neighbor } => {
                write!(f, "vertex {vertex} has out-of-range neighbour {neighbor}")
            }
            CsrError::SelfLoop { vertex } => write!(f, "vertex {vertex} has a self-loop"),
            CsrError::UnsortedNeighbors { vertex } => {
                write!(
                    f,
                    "adjacency list of vertex {vertex} is not strictly ascending"
                )
            }
            CsrError::MissingReverseEdge { u, v } => {
                write!(f, "edge {u} -> {v} has no reverse edge {v} -> {u}")
            }
        }
    }
}

impl std::error::Error for CsrError {}

/// Where a traversal reads the rows of a CSR array from: bare arrays
/// ([`FlatRows`], `&Graph`) or arrays under an overlay of replacement
/// rows (a patched [`GraphView`], a [`DeltaGraph`](crate::DeltaGraph),
/// `hcl-index`'s patched label views). A body generic over `Rows` runs the
/// bare slice arithmetic when handed bare arrays — no per-row patch test —
/// and the patch-aware lookup otherwise.
pub trait Rows<'a, T: 'a>: Copy {
    /// The items of row `r`.
    ///
    /// # Panics
    /// Panics if `r` is out of range.
    fn row(self, r: VertexId) -> &'a [T];

    /// The number of rows: the vertex count of an adjacency.
    fn num_rows(self) -> usize;
}

/// The rows of bare CSR arrays: `offsets[r]..offsets[r + 1]` of `items`.
#[derive(Clone, Copy, Debug)]
pub struct FlatRows<'a, T> {
    offsets: &'a [u64],
    items: &'a [T],
}

impl<'a, T> FlatRows<'a, T> {
    /// The rows of `offsets` (`rows + 1` entries) over `items`.
    pub fn new(offsets: &'a [u64], items: &'a [T]) -> Self {
        Self { offsets, items }
    }
}

impl<T: Copy> FlatRows<'_, T> {
    /// Whether every row ascends strictly by `key` and every key is below
    /// `bound`, for offsets already checked monotone and spanning the
    /// items: the order check of the accept-only passes of
    /// [`GraphView::from_csr`] and `hcl-index`'s `IndexView::from_parts`.
    /// One pass compares each item's key with the one before it, across
    /// the whole array, and every adjacent pair whose keys do not ascend
    /// must straddle the start of a row. It runs in blocks, and each
    /// block's row starts are checked while the block is still in cache.
    ///
    /// # Panics
    /// May panic if the offsets are not monotone or do not span the items.
    pub fn ascend_below(self, key: impl Fn(T) -> u32, bound: usize) -> bool {
        const BLOCK: usize = 1 << 14;
        let items = self.items;
        let Some(&last) = items.last() else {
            return true;
        };
        let mut starts = self
            .offsets
            .windows(2)
            .filter(|o| 0 < o[0] && o[0] < o[1])
            .map(|o| o[0] as usize)
            .peekable();
        // Once every row ascends, the largest key is the last of some row:
        // the one before a later row's start, or the array's last.
        let (mut max, mut drops, mut start_drops) = (key(last), 0, 0);
        for lo in (1..items.len()).step_by(BLOCK) {
            let hi = items.len().min(lo + BLOCK);
            // A `u32` count per block vectorises; a `usize` one does not.
            let pairs = items[lo - 1..hi - 1].iter().zip(&items[lo..hi]);
            let block = pairs.fold(0u32, |d, (&a, &b)| d + u32::from(key(b) <= key(a)));
            drops += block as usize;
            while let Some(at) = starts.next_if(|&at| at < hi) {
                let before = key(items[at - 1]);
                max = max.max(before);
                start_drops += usize::from(key(items[at]) <= before);
            }
        }
        drops == start_drops && (max as usize) < bound
    }
}

impl<'a, T: Copy + 'a> Rows<'a, T> for FlatRows<'a, T> {
    #[inline]
    fn row(self, r: VertexId) -> &'a [T] {
        let r = r as usize;
        &self.items[self.offsets[r] as usize..self.offsets[r + 1] as usize]
    }

    fn num_rows(self) -> usize {
        self.offsets.len() - 1
    }
}

/// A borrowed, zero-copy view of a CSR graph.
///
/// Layout-identical to [`Graph`], but the arrays live elsewhere — inside an
/// owned `Graph`, or inside a memory-mapped index file — optionally under a
/// copy-on-write overlay of replacement adjacency rows. `Copy`, so pass it
/// by value.
#[derive(Clone, Copy, Debug)]
pub struct GraphView<'a> {
    /// `offsets[v]..offsets[v + 1]` indexes `neighbors` for vertex `v`.
    offsets: &'a [u64],
    /// Concatenated, per-vertex-sorted adjacency lists.
    neighbors: &'a [VertexId],
    /// Replacement adjacency rows over the two arrays, if any.
    patches: Option<&'a Overlay<VertexId>>,
}

impl<'a> GraphView<'a> {
    /// Builds a validated view over raw CSR arrays.
    ///
    /// Checks every invariant traversals rely on: offsets monotone and
    /// spanning the neighbour array; lists strictly ascending, in range,
    /// self-loop free and symmetric (undirected). An exact `O(n + m)` pass
    /// that only accepts or rejects runs first; only arrays it rejects are
    /// walked again to name the fault, and any structural fault is
    /// reported before an asymmetry. Once per load, never per query.
    pub fn from_csr(offsets: &'a [u64], neighbors: &'a [VertexId]) -> Result<Self, CsrError> {
        let view = Self::from_csr_unchecked(offsets, neighbors);
        view.validate()?;
        Ok(view)
    }

    /// Builds a view over raw CSR arrays **without validating them**.
    ///
    /// This is still a safe function: malformed arrays can cause wrong
    /// answers or panics in later traversals, but never undefined
    /// behaviour. Use only on arrays that already passed
    /// [`GraphView::from_csr`] (e.g. re-borrowing from a validated store).
    pub fn from_csr_unchecked(offsets: &'a [u64], neighbors: &'a [VertexId]) -> Self {
        Self {
            offsets,
            neighbors,
            patches: None,
        }
    }

    /// This (unpatched) view under `patches`: replacement rows made for
    /// exactly these arrays (see [`FrozenGraph`](crate::FrozenGraph)).
    ///
    /// # Panics
    /// Panics if `patches` were made for a different row count.
    pub(crate) fn with_patches(self, patches: &'a Overlay<VertexId>) -> Self {
        assert_eq!(
            patches.num_rows(),
            self.num_vertices(),
            "patches made for another vertex count"
        );
        Self {
            patches: Some(patches),
            ..self
        }
    }

    /// Whether the view carries replacement rows.
    pub fn is_patched(&self) -> bool {
        self.patches.is_some()
    }

    /// Number of vertices whose adjacency the view's patches replace (0
    /// for an unpatched view).
    pub fn patched_rows(&self) -> usize {
        self.patches.map_or(0, Overlay::len)
    }

    /// The arrays this view's patches apply to, without them (the view
    /// itself when it is unpatched).
    pub fn unpatched(&self) -> Self {
        Self::from_csr_unchecked(self.offsets, self.neighbors)
    }

    /// The bare CSR rows of an unpatched view, for traversal bodies
    /// generic over [`Rows`].
    pub fn flat_rows(&self) -> FlatRows<'a, VertexId> {
        debug_assert!(self.patches.is_none(), "flat rows of a patched view");
        FlatRows::new(self.offsets, self.neighbors)
    }

    fn validate(&self) -> Result<(), CsrError> {
        let offsets = self.offsets;
        if offsets.is_empty() {
            return Err(CsrError::EmptyOffsets);
        }
        if offsets[0] != 0 {
            return Err(CsrError::NonZeroFirstOffset);
        }
        let n = offsets.len() - 1;
        if n as u64 > VertexId::MAX as u64 + 1 {
            return Err(CsrError::TooManyVertices {
                num_vertices: n as u64,
            });
        }
        if let Some(vertex) = offsets.windows(2).position(|o| o[1] < o[0]) {
            return Err(CsrError::NonMonotoneOffsets { vertex });
        }
        if offsets[n] != self.neighbors.len() as u64 {
            return Err(CsrError::LengthMismatch {
                last_offset: offsets[n],
                neighbors_len: self.neighbors.len(),
            });
        }
        if self.accepts() {
            return Ok(());
        }
        // The naming pass, run only on arrays `accepts` rejected. One walk
        // checks each entry's structure and each undirected edge once, from
        // its higher endpoint: `u -> w` with `w < u` claims `u` at
        // `cursor[w]`, which row `w` leaves at its first upper entry. Rows
        // ascend and so does each row, so the claimers of `adj(w)` arrive in
        // the order it lists them: each must find itself *at* the cursor.
        // Claims read no row end; the last sweep checks that each upper part
        // was claimed exactly to its end. Claims land in the lower endpoint's
        // list (a hub's, under preferential attachment), so mostly hit cache.
        // A structural fault anywhere outranks an asymmetry (and may be its
        // cause), so the pass goes on. Only the first failed claim is kept:
        // every claim before it held, which is what makes its pair genuine.
        let mut cursor: Vec<u64> = offsets[..n].to_vec();
        let mut asymmetry = None;
        for u in 0..n {
            let (id, start) = (u as VertexId, offsets[u]);
            for e in start..offsets[u + 1] {
                let w = self.neighbors[e as usize];
                let v = w as usize;
                if v >= n {
                    return Err(CsrError::NeighborOutOfRange {
                        vertex: u,
                        neighbor: w,
                    });
                }
                if v == u {
                    return Err(CsrError::SelfLoop { vertex: u });
                }
                if e > start && w <= self.neighbors[e as usize - 1] {
                    return Err(CsrError::UnsortedNeighbors { vertex: u });
                }
                if v > u {
                    continue;
                }
                cursor[u] = e + 1;
                if self.neighbors.get(cursor[v] as usize) == Some(&id) {
                    cursor[v] += 1;
                    continue;
                }
                let next = (cursor[v] < offsets[v + 1]).then(|| self.neighbors[cursor[v] as usize]);
                asymmetry.get_or_insert(match next {
                    // `x` (< u) had its turn and did not claim: it lacks `w`.
                    Some(x) if x < id => CsrError::MissingReverseEdge { u: w, v: x },
                    // Claimers below `u` precede the cursor, entries above it
                    // follow: `adj(w)` lacks `u`.
                    _ => CsrError::MissingReverseEdge { u: id, v: w },
                });
            }
        }
        // An upper entry nobody claimed lacks its reverse; a claim past the
        // end found `adj(w)` all taken, by vertices below the claimer.
        for (w, (&at, &end)) in cursor.iter().zip(&offsets[1..]).enumerate() {
            if at != end && asymmetry.is_none() {
                let (w, x) = (w as VertexId, self.neighbors[at.min(end) as usize]);
                let (u, v) = if at < end { (w, x) } else { (x, w) };
                asymmetry = Some(CsrError::MissingReverseEdge { u, v });
            }
        }
        asymmetry.map_or(Ok(()), Err)
    }

    /// Whether arrays whose offsets passed `validate`'s checks are valid
    /// CSR — exactly what the naming pass decides, without naming anything.
    /// Arrays of `2^32` entries or more are left to the naming pass.
    fn accepts(&self) -> bool {
        let (offsets, neighbors) = (self.offsets, self.neighbors);
        let n = offsets.len() - 1;
        if u32::try_from(neighbors.len()).is_err() {
            return false;
        }
        // Order (and range) first: the claims' cursor bound relies on
        // strict ascent.
        if !FlatRows::new(offsets, neighbors).ascend_below(|w| w, n) {
            return false;
        }
        // Claims, as in the naming pass: each row walks its lower part only,
        // claiming itself at each lower neighbour's cursor, and stops at its
        // first entry `>= u`. Lists ascend strictly, so `w` is claimed at
        // most once per row after its own, each of which lies past `adj(w)`:
        // a cursor never leaves the array, and fits `u32`. A self-loop needs
        // no check of its own: it is never below its row, so it sits in the
        // row's upper part, which only the rows its entries name can claim,
        // and row `u` never claims itself, so the sweep finds that part
        // unclaimed.
        let mut cursor = vec![0u32; n];
        let mut claimed = true;
        for (u, o) in offsets.windows(2).enumerate() {
            let (id, row) = (u as VertexId, &neighbors[o[0] as usize..o[1] as usize]);
            let mut lower = 0;
            for &w in row {
                if w >= id {
                    break;
                }
                let at = &mut cursor[w as usize];
                claimed &= neighbors[*at as usize] == id;
                *at += 1;
                lower += 1;
            }
            cursor[u] = (o[0] as usize + lower) as u32;
        }
        // Sweep: every upper part claimed exactly to its end.
        claimed
            && cursor
                .iter()
                .zip(&offsets[1..])
                .all(|(&at, &end)| at as u64 == end)
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges (each edge counted once).
    pub fn num_edges(&self) -> usize {
        self.patches.map_or(self.neighbors.len(), |p| {
            p.patched_len(self.neighbors.len())
        }) / 2
    }

    /// Degree of vertex `v`.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    pub fn degree(&self, v: VertexId) -> usize {
        if let Some(adj) = self.patches.and_then(|p| p.get(v)) {
            return adj.len();
        }
        let v = v as usize;
        (self.offsets[v + 1] - self.offsets[v]) as usize
    }

    /// The sorted neighbour list of vertex `v`: its replacement row if the
    /// view is patched there, else the CSR slice.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &'a [VertexId] {
        if let Some(adj) = self.patches.and_then(|p| p.get(v)) {
            return adj;
        }
        FlatRows::new(self.offsets, self.neighbors).row(v)
    }

    /// Whether `u` and `v` are adjacent (`O(log degree(u))`).
    ///
    /// # Panics
    /// Panics if `u` is out of range.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Vertices ranked by importance: descending degree, ties broken by
    /// ascending id so the order is deterministic.
    ///
    /// The first `k` entries are the landmark set used by the
    /// highway-cover labelling, mirroring the paper's heuristic that
    /// high-degree vertices cover the most shortest paths in complex
    /// networks.
    pub fn rank_by_degree(&self) -> Vec<VertexId> {
        let mut order: Vec<VertexId> = (0..self.num_vertices() as VertexId).collect();
        order.sort_by_key(|&v| (std::cmp::Reverse(self.degree(v)), v));
        order
    }

    /// The first `k` entries of [`GraphView::rank_by_degree`] without
    /// sorting the whole vertex set: a partial selection
    /// (`select_nth_unstable`) followed by a sort of just the top slice.
    ///
    /// The ranking key `(Reverse(degree), id)` is injective, so the top-`k`
    /// set and its order are unique — this is **exactly**
    /// `rank_by_degree()[..k]`, element for element, which the
    /// degree-ranked landmark selection relies on for bit-for-bit
    /// reproducible indexes. `O(n + k log k)` instead of `O(n log n)`.
    pub fn top_k_by_degree(&self, k: usize) -> Vec<VertexId> {
        let n = self.num_vertices();
        let k = k.min(n);
        if k == 0 {
            return Vec::new();
        }
        let key = |v: &VertexId| (std::cmp::Reverse(self.degree(*v)), *v);
        let mut order: Vec<VertexId> = (0..n as VertexId).collect();
        if k < n {
            order.select_nth_unstable_by_key(k - 1, key);
            order.truncate(k);
        }
        order.sort_unstable_by_key(key);
        order
    }

    /// The raw CSR offsets array (`n + 1` entries), e.g. for serialisation.
    /// Base only: a patched view's replacement rows are not in it, so call
    /// this on unpatched views ([`unpatched`](Self::unpatched) gets the
    /// base of a patched one).
    pub fn csr_offsets(&self) -> &'a [u64] {
        debug_assert!(self.patches.is_none(), "raw offsets of a patched view");
        self.offsets
    }

    /// The raw concatenated neighbour array, e.g. for serialisation. Base
    /// only, like [`csr_offsets`](Self::csr_offsets).
    pub fn csr_neighbors(&self) -> &'a [VertexId] {
        debug_assert!(self.patches.is_none(), "raw neighbours of a patched view");
        self.neighbors
    }

    /// Copies the view into an owned [`Graph`]; a patched view is spliced
    /// (each clean run of rows one copy, each patched row one).
    pub fn to_owned_graph(&self) -> Graph {
        match self.patches {
            Some(patches) => {
                let (offsets, neighbors) = patches.splice(self.offsets, self.neighbors);
                Graph { offsets, neighbors }
            }
            None => Graph {
                offsets: self.offsets.to_vec(),
                neighbors: self.neighbors.to_vec(),
            },
        }
    }
}

impl<'a> Rows<'a, VertexId> for GraphView<'a> {
    #[inline]
    fn row(self, v: VertexId) -> &'a [VertexId] {
        self.neighbors(v)
    }

    fn num_rows(self) -> usize {
        self.num_vertices()
    }
}

/// An immutable unweighted, undirected simple graph in CSR form.
///
/// Neighbour lists are stored back-to-back in one contiguous array and are
/// sorted ascending per vertex, which makes iteration cache-friendly and
/// membership checks binary-searchable. All traversal methods delegate to
/// [`GraphView`], so owned graphs and mmap-backed views share one code path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    offsets: Vec<u64>,
    neighbors: Vec<VertexId>,
}

impl Graph {
    /// Builds a graph directly from an edge list.
    ///
    /// Convenience wrapper over [`GraphBuilder`]; the vertex count is
    /// inferred as `max endpoint + 1` (0 for an empty list).
    pub fn from_edges(edges: &[(VertexId, VertexId)]) -> Self {
        let mut b = GraphBuilder::new();
        for &(u, v) in edges {
            b.add_edge(u, v);
        }
        b.build()
    }

    /// Builds a graph from raw CSR arrays, validating every invariant
    /// (see [`GraphView::from_csr`]).
    pub fn from_csr(offsets: Vec<u64>, neighbors: Vec<VertexId>) -> Result<Self, CsrError> {
        GraphView::from_csr(&offsets, &neighbors)?;
        Ok(Self { offsets, neighbors })
    }

    /// Adopts CSR arrays the caller built canonical by construction (the
    /// delta overlay's splice), without a second validation pass.
    pub(crate) fn from_csr_trusted(offsets: Vec<u64>, neighbors: Vec<VertexId>) -> Self {
        Self { offsets, neighbors }
    }

    /// A borrowed, `Copy` view of this graph. Cheap; use it to share one
    /// code path between owned and memory-mapped graphs.
    pub fn as_view(&self) -> GraphView<'_> {
        GraphView::from_csr_unchecked(&self.offsets, &self.neighbors)
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.as_view().num_vertices()
    }

    /// Number of undirected edges (each edge counted once).
    pub fn num_edges(&self) -> usize {
        self.as_view().num_edges()
    }

    /// Degree of vertex `v`.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    pub fn degree(&self, v: VertexId) -> usize {
        self.as_view().degree(v)
    }

    /// The sorted neighbour list of vertex `v`.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        self.as_view().neighbors(v)
    }

    /// Whether `u` and `v` are adjacent (`O(log degree(u))`).
    ///
    /// # Panics
    /// Panics if `u` is out of range.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.as_view().has_edge(u, v)
    }

    /// Vertices ranked by importance: descending degree, ties broken by
    /// ascending id. See [`GraphView::rank_by_degree`].
    pub fn rank_by_degree(&self) -> Vec<VertexId> {
        self.as_view().rank_by_degree()
    }

    /// The first `k` entries of the degree ranking via partial selection.
    /// See [`GraphView::top_k_by_degree`].
    pub fn top_k_by_degree(&self, k: usize) -> Vec<VertexId> {
        self.as_view().top_k_by_degree(k)
    }

    /// The raw CSR offsets array (`n + 1` entries), e.g. for serialisation.
    pub fn csr_offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// The raw concatenated neighbour array, e.g. for serialisation.
    pub fn csr_neighbors(&self) -> &[VertexId] {
        &self.neighbors
    }
}

/// An owned graph's rows are its bare arrays: no patch test.
impl<'a> Rows<'a, VertexId> for &'a Graph {
    #[inline]
    fn row(self, v: VertexId) -> &'a [VertexId] {
        FlatRows::new(&self.offsets, &self.neighbors).row(v)
    }

    fn num_rows(self) -> usize {
        self.offsets.len() - 1
    }
}

impl<'a> From<&'a Graph> for GraphView<'a> {
    fn from(g: &'a Graph) -> Self {
        g.as_view()
    }
}

/// Incremental builder producing a canonical [`Graph`].
///
/// Canonicalisation performed by [`GraphBuilder::build`]:
/// * self-loops are dropped,
/// * duplicate edges (in either orientation) are deduplicated,
/// * every kept edge is materialised in both directions,
/// * adjacency lists are sorted ascending.
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    edges: Vec<(VertexId, VertexId)>,
    num_vertices: usize,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ensures the graph has at least `n` vertices, so trailing isolated
    /// vertices survive even though no edge mentions them.
    pub fn reserve_vertices(&mut self, n: usize) -> &mut Self {
        self.num_vertices = self.num_vertices.max(n);
        self
    }

    /// Adds an undirected edge. Order of endpoints is irrelevant;
    /// self-loops and duplicates are tolerated and cleaned up in
    /// [`GraphBuilder::build`].
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> &mut Self {
        self.num_vertices = self.num_vertices.max(u.max(v) as usize + 1);
        self.edges.push((u, v));
        self
    }

    /// Finalises the builder into an immutable CSR [`Graph`], reusing its
    /// edge buffer: the pairs are canonicalised and sorted in place, and
    /// the adjacency rows come out sorted without sorting any row.
    pub fn build(self) -> Graph {
        let n = self.num_vertices;
        // Canonicalise: drop self-loops, order endpoints, sort, dedup.
        let mut edges = self.edges;
        edges.retain_mut(|e| {
            if e.0 > e.1 {
                *e = (e.1, e.0);
            }
            e.0 != e.1
        });
        edges.sort_unstable();
        edges.dedup();

        // `offsets[w]` starts as the end of row `w` and serves as its
        // descending cursor. Walking the sorted pairs in reverse hands
        // each row its upper neighbours, then its lower ones, each in
        // descending order, so filling every row from its end leaves it
        // ascending — and leaves `offsets[w]` at the row's start.
        let mut offsets = vec![0u64; n + 1];
        for &(u, v) in &edges {
            offsets[u as usize] += 1;
            offsets[v as usize] += 1;
        }
        let mut acc = 0u64;
        for end in &mut offsets[..n] {
            acc += *end;
            *end = acc;
        }
        offsets[n] = acc;
        let mut neighbors = vec![0 as VertexId; acc as usize];
        for &(u, v) in edges.iter().rev() {
            offsets[u as usize] -= 1;
            neighbors[offsets[u as usize] as usize] = v;
            offsets[v as usize] -= 1;
            neighbors[offsets[v as usize] as usize] = u;
        }
        Graph { offsets, neighbors }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;
    use crate::testkit;

    /// The search-based symmetry scan `validate` ran before the cursor
    /// sweep — one binary search per directed entry — kept as the
    /// reference: every entry `u -> v` lacking its reverse, in scan order
    /// (the old scan reported the first).
    fn missing_reverse_edges(offsets: &[u64], neighbors: &[VertexId]) -> Vec<(VertexId, VertexId)> {
        let view = GraphView::from_csr_unchecked(offsets, neighbors);
        let mut missing = Vec::new();
        for u in 0..view.num_vertices() as VertexId {
            for &v in view.neighbors(u) {
                if !view.has_edge(v, u) {
                    missing.push((u, v));
                }
            }
        }
        missing
    }

    /// `from_csr` on arrays with `violations` planted (lists still in
    /// range and strictly ascending) must name one of them — and the very
    /// pair the search-based scan named whenever there is only one.
    fn assert_names_a_planted_violation(
        offsets: &[u64],
        neighbors: &[VertexId],
        violations: usize,
        what: &str,
    ) {
        let missing = missing_reverse_edges(offsets, neighbors);
        assert_eq!(missing.len(), violations, "{what}: planted violations");
        match GraphView::from_csr(offsets, neighbors) {
            Err(CsrError::MissingReverseEdge { u, v }) => {
                assert!(missing.contains(&(u, v)), "{what}: ({u}, {v}) is symmetric");
                if violations == 1 {
                    assert_eq!((u, v), missing[0], "{what}: differs from the search scan");
                }
            }
            other => panic!("{what}: expected MissingReverseEdge, got {other:?}"),
        }
    }

    /// What `from_csr` decides, by brute force, for arrays whose offsets
    /// are well formed: a structural scan (every list in range, self-loop
    /// free and strictly ascending), then the search-based symmetry scan.
    fn is_valid_csr(offsets: &[u64], neighbors: &[VertexId]) -> bool {
        let n = offsets.len() - 1;
        let structural = (0..n).all(|u| {
            let row = &neighbors[offsets[u] as usize..offsets[u + 1] as usize];
            row.iter().all(|&w| (w as usize) < n && w as usize != u)
                && row.windows(2).all(|p| p[0] < p[1])
        });
        structural && missing_reverse_edges(offsets, neighbors).is_empty()
    }

    /// Seeded single-fault mutations of `g`'s arrays, at up to `entries`
    /// sampled positions (every position when there are no more): ±1 on
    /// the entry, a swap with another entry, id `n`, a self-loop, and the
    /// entry dropped (its reverse left dangling). Offsets stay well formed.
    fn csr_mutations(
        g: &Graph,
        entries: usize,
        rng: &mut SplitMix64,
    ) -> Vec<(String, Vec<u64>, Vec<VertexId>)> {
        let (offsets, neighbors) = (g.csr_offsets(), g.csr_neighbors());
        let (n, m) = (g.num_vertices() as VertexId, neighbors.len());
        let positions: Vec<usize> = if m <= entries {
            (0..m).collect()
        } else {
            (0..entries)
                .map(|_| rng.next_below(m as u64) as usize)
                .collect()
        };
        let mut out = Vec::new();
        for e in positions {
            let owner = offsets.partition_point(|&o| o <= e as u64) - 1;
            let mut set = |what: &str, value: VertexId| {
                let mut bad = neighbors.to_vec();
                bad[e] = value;
                out.push((format!("{what} at {e}"), offsets.to_vec(), bad));
            };
            set("+1", neighbors[e].wrapping_add(1));
            set("-1", neighbors[e].wrapping_sub(1));
            set("id n", n);
            set("self-loop", owner as VertexId);
            let f = rng.next_below(m as u64) as usize;
            let mut swapped = neighbors.to_vec();
            swapped.swap(e, f);
            out.push((format!("swap {e} <-> {f}"), offsets.to_vec(), swapped));
            let mut cut_offsets = offsets.to_vec();
            for o in &mut cut_offsets[owner + 1..] {
                *o -= 1;
            }
            let mut cut = neighbors.to_vec();
            cut.remove(e);
            out.push((format!("dropped {e}"), cut_offsets, cut));
        }
        out
    }

    #[test]
    fn from_csr_agrees_with_the_definition_under_mutation() {
        // Mutated positions per graph: every entry of a family, a sample
        // of the broom's and the stars'; a few of each under Miri.
        let (leaves, sampled) = if cfg!(miri) {
            (1_000, [4, 4, 4])
        } else {
            (100_000, [usize::MAX, 200, 12])
        };
        let hub = leaves as VertexId;
        let mut graphs = testkit::families();
        graphs.push((
            "broom".into(),
            if cfg!(miri) {
                testkit::broom(60, 2, 40, 23)
            } else {
                testkit::broom(1_000, 3, 1_500, 23)
            },
        ));
        graphs.push(("star centred first".into(), testkit::star(leaves + 1)));
        let edges: Vec<(VertexId, VertexId)> = (0..hub).map(|v| (v, hub)).collect();
        graphs.push(("star centred last".into(), Graph::from_edges(&edges)));

        let mut rng = SplitMix64::new(0xC5_2026);
        let mut rejected = 0;
        for (name, g) in &graphs {
            assert!(
                GraphView::from_csr(g.csr_offsets(), g.csr_neighbors()).is_ok(),
                "{name}"
            );
            assert!(g.as_view().accepts(), "{name}: accept-only pass");
            let entries = match g.num_vertices() {
                0..=100 => sampled[0],
                101..=10_000 => sampled[1],
                _ => sampled[2],
            };
            for (what, offsets, neighbors) in csr_mutations(g, entries, &mut rng) {
                let want = is_valid_csr(&offsets, &neighbors);
                let got = GraphView::from_csr(&offsets, &neighbors);
                assert_eq!(got.is_ok(), want, "{name}: {what}: {got:?}");
                // The accept-only pass alone decides the same.
                let view = GraphView::from_csr_unchecked(&offsets, &neighbors);
                assert_eq!(view.accepts(), want, "{name}: {what}: accept-only pass");
                rejected += usize::from(!want);
            }
        }
        assert!(rejected > 0, "no mutation was rejected");
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().build();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn self_loops_are_dropped() {
        let g = Graph::from_edges(&[(0, 0), (0, 1), (1, 1)]);
        assert_eq!(g.num_vertices(), 2);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0]);
    }

    #[test]
    fn duplicate_edges_are_deduplicated() {
        let g = Graph::from_edges(&[(0, 1), (1, 0), (0, 1), (1, 2)]);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
    }

    #[test]
    fn isolated_vertices_are_kept() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1).reserve_vertices(5);
        let g = b.build();
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.degree(3), 0);
        assert!(g.neighbors(4).is_empty());
    }

    #[test]
    fn adjacency_is_sorted_and_queryable() {
        let g = Graph::from_edges(&[(2, 0), (2, 3), (2, 1), (0, 3)]);
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
        assert!(g.has_edge(2, 1));
        assert!(g.has_edge(1, 2));
        assert!(!g.has_edge(1, 3));
    }

    #[test]
    fn degree_ranking_is_deterministic() {
        // Star centred on 0 plus an extra edge raising vertex 1's degree.
        let g = Graph::from_edges(&[(0, 1), (0, 2), (0, 3), (1, 2)]);
        let rank = g.rank_by_degree();
        assert_eq!(rank[0], 0); // degree 3
        assert_eq!(rank[1], 1); // degree 2, ties broken by id
        assert_eq!(rank[2], 2);
        assert_eq!(rank[3], 3);
    }

    #[test]
    fn top_k_by_degree_equals_full_ranking_prefix() {
        // Injective ranking key ⇒ the partial selection must reproduce the
        // full sort's prefix exactly, for every k including 0, n, and > n.
        let graphs = [
            GraphBuilder::new().build(),
            Graph::from_edges(&[(0, 1)]),
            Graph::from_edges(&[(0, 1), (0, 2), (0, 3), (1, 2), (3, 4), (4, 5), (5, 3)]),
            {
                // Many degree ties so the id tiebreak is actually exercised.
                let mut b = GraphBuilder::new();
                for v in 1..40u32 {
                    b.add_edge(v - 1, v);
                }
                b.build()
            },
        ];
        for g in &graphs {
            let full = g.rank_by_degree();
            for k in [0, 1, 2, 3, g.num_vertices() / 2, g.num_vertices(), 1000] {
                let want = &full[..k.min(g.num_vertices())];
                assert_eq!(g.top_k_by_degree(k), want, "k={k}");
            }
        }
    }

    #[test]
    fn view_matches_owned_graph() {
        let g = Graph::from_edges(&[(0, 1), (1, 2), (2, 3), (0, 3)]);
        let v = g.as_view();
        assert_eq!(v.num_vertices(), g.num_vertices());
        assert_eq!(v.num_edges(), g.num_edges());
        for x in 0..4 {
            assert_eq!(v.neighbors(x), g.neighbors(x));
            assert_eq!(v.degree(x), g.degree(x));
        }
        assert_eq!(v.rank_by_degree(), g.rank_by_degree());
        assert_eq!(v.to_owned_graph(), g);
    }

    #[test]
    fn from_csr_roundtrips_builder_output() {
        let g = Graph::from_edges(&[(0, 1), (1, 2), (2, 0), (2, 3)]);
        let rebuilt = Graph::from_csr(g.csr_offsets().to_vec(), g.csr_neighbors().to_vec())
            .expect("builder output must be valid CSR");
        assert_eq!(rebuilt, g);
    }

    #[test]
    fn from_csr_accepts_every_testkit_family() {
        for (name, g) in testkit::families() {
            assert!(
                missing_reverse_edges(g.csr_offsets(), g.csr_neighbors()).is_empty(),
                "{name}"
            );
            let view = GraphView::from_csr(g.csr_offsets(), g.csr_neighbors())
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(view.to_owned_graph(), g, "{name}");
        }
    }

    #[test]
    fn from_csr_accepts_a_long_star() {
        // One list of length n - 1 that every other vertex advances once:
        // the shape a per-entry rescan of the hub list would make
        // quadratic. Shape guard only — nothing here is timed.
        let leaves = if cfg!(miri) { 1_000 } else { 100_000 };
        let g = testkit::star(leaves + 1);
        let view = GraphView::from_csr(g.csr_offsets(), g.csr_neighbors()).expect("star is valid");
        assert_eq!(view.degree(0), leaves);
    }

    #[test]
    fn from_csr_accepts_a_long_star_centred_last() {
        // The other orientation: the hub is the last vertex, so its whole
        // list sits below it and every leaf's row reaches into it once.
        let leaves = if cfg!(miri) { 1_000 } else { 100_000 };
        let hub = leaves as VertexId;
        let edges: Vec<(VertexId, VertexId)> = (0..hub).map(|v| (v, hub)).collect();
        let g = Graph::from_edges(&edges);
        let (offsets, neighbors) = (g.csr_offsets(), g.csr_neighbors());
        let view = GraphView::from_csr(offsets, neighbors).expect("star is valid");
        assert_eq!(view.degree(hub), leaves);

        // Drop one leaf's entry from the hub's list, then the hub from
        // that leaf's list: one dangling reverse each.
        let (leaf, hub_row) = (leaves / 2, offsets[hub as usize] as usize);
        for e in [hub_row + leaf, leaf] {
            let owner = offsets.partition_point(|&o| o <= e as u64) - 1;
            let mut cut_offsets = offsets.to_vec();
            for o in &mut cut_offsets[owner + 1..] {
                *o -= 1;
            }
            let mut cut = neighbors.to_vec();
            cut.remove(e);
            let what = format!("star centred last: {owner} -> {} dropped", neighbors[e]);
            assert_names_a_planted_violation(&cut_offsets, &cut, 1, &what);
        }
    }

    #[test]
    fn from_csr_names_a_genuine_missing_reverse_edge() {
        let mut rng = SplitMix64::new(0x5EED);
        for (name, g) in testkit::families() {
            let (offsets, neighbors) = (g.csr_offsets(), g.csr_neighbors());
            let n = g.num_vertices();
            // The vertex owning directed entry `e`.
            let owner = |e: usize| offsets.partition_point(|&o| o <= e as u64) - 1;
            // Every entry; the interpreter gets the first few per family.
            let sampled = if cfg!(miri) { 8 } else { usize::MAX };
            for e in 0..neighbors.len().min(sampled) {
                let u = owner(e);
                let what = format!("{name}: entry {e} ({u} -> {})", neighbors[e]);

                // Drop the entry: its reverse is left dangling.
                let mut cut_offsets = offsets.to_vec();
                for o in &mut cut_offsets[u + 1..] {
                    *o -= 1;
                }
                let mut cut = neighbors.to_vec();
                cut.remove(e);
                assert_names_a_planted_violation(&cut_offsets, &cut, 1, &format!("{what} dropped"));

                // Retarget it within the gap between its list neighbours,
                // so the list stays strictly ascending: the new target has
                // no reverse, and the old target's reverse dangles.
                let lo = if e as u64 > offsets[u] {
                    neighbors[e - 1] + 1
                } else {
                    0
                };
                let hi = if (e as u64 + 1) < offsets[u + 1] {
                    neighbors[e + 1]
                } else {
                    n as VertexId
                };
                if let Some(target) = (lo..hi).find(|&t| t != neighbors[e] && t as usize != u) {
                    let mut moved = neighbors.to_vec();
                    moved[e] = target;
                    assert_names_a_planted_violation(
                        offsets,
                        &moved,
                        2,
                        &format!("{what} retargeted to {target}"),
                    );
                }
            }

            // Add one extra entry `u -> w` at its sorted position.
            for u in 0..n {
                let absent: Vec<VertexId> = (0..n as VertexId)
                    .filter(|&w| w as usize != u && !g.has_edge(u as VertexId, w))
                    .collect();
                if absent.is_empty() {
                    continue;
                }
                let w = absent[rng.next_below(absent.len() as u64) as usize];
                let at =
                    offsets[u] as usize + g.neighbors(u as VertexId).partition_point(|&x| x < w);
                let mut grown_offsets = offsets.to_vec();
                for o in &mut grown_offsets[u + 1..] {
                    *o += 1;
                }
                let mut grown = neighbors.to_vec();
                grown.insert(at, w);
                assert_names_a_planted_violation(
                    &grown_offsets,
                    &grown,
                    1,
                    &format!("{name}: extra entry {u} -> {w}"),
                );
            }
        }
    }

    #[test]
    fn from_csr_reports_structural_faults_before_asymmetry() {
        // Rows 0: [1, 5], 1: [0, 2], 2: [1, 3, 5], 3: [2, 4], 4: [3, 5],
        // 5: [0, 2, 4]. Each fault goes into the last row, which rows 0
        // and 2 name, so it also breaks their reverses; the early row 1
        // optionally gets an asymmetry of its own. Whatever the rows
        // before it look like, a structural fault anywhere wins.
        let g = Graph::from_edges(&[(0, 1), (0, 5), (1, 2), (2, 3), (3, 4), (4, 5), (2, 5)]);
        let (offsets, neighbors) = (g.csr_offsets(), g.csr_neighbors());
        let last = offsets[5] as usize;
        let faults: [(&[VertexId], CsrError); 4] = [
            (
                &[9, 2, 4],
                CsrError::NeighborOutOfRange {
                    vertex: 5,
                    neighbor: 9,
                },
            ),
            (&[0, 2, 5], CsrError::SelfLoop { vertex: 5 }),
            (&[0, 4, 2], CsrError::UnsortedNeighbors { vertex: 5 }),
            (&[0, 2, 2], CsrError::UnsortedNeighbors { vertex: 5 }),
        ];
        for (row, want) in faults {
            for early in [false, true] {
                let mut bad = neighbors.to_vec();
                bad[last..].copy_from_slice(row);
                if early {
                    // 1: [0, 3] — neither 1 -> 3 nor 2 -> 1 has a reverse.
                    bad[offsets[1] as usize + 1] = 3;
                }
                assert_eq!(
                    GraphView::from_csr(offsets, &bad).unwrap_err(),
                    want,
                    "row 5 = {row:?}, early asymmetry {early}"
                );
            }
        }
    }

    #[test]
    fn from_csr_rejects_malformed_arrays() {
        assert_eq!(
            GraphView::from_csr(&[], &[]).unwrap_err(),
            CsrError::EmptyOffsets
        );
        assert_eq!(
            GraphView::from_csr(&[1, 2], &[0, 0]).unwrap_err(),
            CsrError::NonZeroFirstOffset
        );
        assert!(matches!(
            GraphView::from_csr(&[0, 2, 1], &[1, 0]).unwrap_err(),
            CsrError::NonMonotoneOffsets { vertex: 1 }
        ));
        assert!(matches!(
            GraphView::from_csr(&[0, 1, 2], &[1, 0, 0]).unwrap_err(),
            CsrError::LengthMismatch { .. }
        ));
        assert!(matches!(
            GraphView::from_csr(&[0, 1, 2], &[7, 0]).unwrap_err(),
            CsrError::NeighborOutOfRange {
                vertex: 0,
                neighbor: 7
            }
        ));
        assert!(matches!(
            GraphView::from_csr(&[0, 1, 2], &[0, 0]).unwrap_err(),
            CsrError::SelfLoop { vertex: 0 }
        ));
        // 0 -> 1 without 1 -> 0.
        assert!(matches!(
            GraphView::from_csr(&[0, 1, 1], &[1]).unwrap_err(),
            CsrError::MissingReverseEdge { u: 0, v: 1 }
        ));
        // Unsorted adjacency.
        assert!(matches!(
            GraphView::from_csr(&[0, 2, 3, 4], &[2, 1, 0, 0]).unwrap_err(),
            CsrError::UnsortedNeighbors { vertex: 0 }
        ));
    }
}
