//! Edge edits on the immutable CSR graph: a shared flat base under a
//! copy-on-write overlay of replacement rows.
//!
//! The CSR layout ([`Graph`]/[`GraphView`]) is deliberately frozen: its
//! contiguous arrays are what the store memory-maps and what every
//! traversal iterates. Dynamic graphs are layered *on top* of it instead
//! of mutating it: a [`PatchedGraph`] keeps its base CSR untouched and
//! materialises a private, fully merged adjacency list only for the
//! vertices an edit actually touched. Its view's `neighbors` therefore
//! still returns a plain sorted `&[VertexId]` slice — patched vertices
//! serve their overlay copy, everyone else serves the base CSR — so
//! traversal code needs no per-edge branching and no iterator abstraction.
//! The base is anything that lends flat CSR arrays ([`CsrArrays`]): an
//! owned [`Graph`], or a store's mapped image, edited over, not copied.
//!
//! The patched lists live in an [`Overlay`], the row-keyed overlay
//! `hcl-index` also keeps its edited labels in. Folding one back into a
//! flat CSR ([`PatchedGraph::flatten`], or [`PatchedGraph::to_graph`] for a
//! copy) is a splice — the base's clean runs and the patched rows copied
//! in row order — so it costs two memory-speed copies, not a sort.
//!
//! Serving an edited graph needs no splice at all: a clone of the
//! [`PatchedGraph`] is the served generation — the base `Arc` plus a clone
//! of the overlay, read as a patched [`GraphView`]. An overlay keeps its
//! rows in chunks of 4 096 under an `Arc`'d spine and copies on write, so
//! the clone is two `Arc` clones and shares everything; the edits after it
//! copy the spine once and each chunk they touch once. A publish therefore
//! costs the spine plus the chunks its update touched — never the rows
//! patched before it, nor the size of the base.
//!
//! [`PatchedGraph::as_view`] is a [`GraphView`], which implements
//! [`Rows`](crate::Rows), so the BFS oracles in [`crate::bfs`] and every
//! other traversal run unchanged over a frozen CSR or a base+delta
//! overlay. The vertex set is fixed: deltas add and remove
//! *edges* between existing vertices (the serving path's containers pin
//! `n` at build time); growing the vertex set remains a rebuild.

use crate::graph::{Graph, GraphView, VertexId};
use std::fmt;
use std::sync::Arc;

/// What an [`EdgeDelta`] does to the edge `(u, v)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DeltaOp {
    /// Add the undirected edge.
    Insert,
    /// Remove the undirected edge.
    Delete,
}

impl DeltaOp {
    /// The sign character the CLI protocols use (`+` insert, `-` delete).
    pub fn sign(self) -> char {
        match self {
            DeltaOp::Insert => '+',
            DeltaOp::Delete => '-',
        }
    }
}

/// One undirected edge edit. Endpoint order is irrelevant (the graph is
/// undirected); `u == v` is invalid (self-loops are canonicalised away at
/// build time and stay banned).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct EdgeDelta {
    /// Insert or delete.
    pub op: DeltaOp,
    /// First endpoint.
    pub u: VertexId,
    /// Second endpoint.
    pub v: VertexId,
}

impl EdgeDelta {
    /// An insertion of edge `(u, v)`.
    pub fn insert(u: VertexId, v: VertexId) -> Self {
        Self {
            op: DeltaOp::Insert,
            u,
            v,
        }
    }

    /// A deletion of edge `(u, v)`.
    pub fn delete(u: VertexId, v: VertexId) -> Self {
        Self {
            op: DeltaOp::Delete,
            u,
            v,
        }
    }

    /// Checks the delta against a graph of `num_vertices` vertices without
    /// applying it: both endpoints in range, no self-loop.
    pub fn validate(&self, num_vertices: usize) -> Result<(), DeltaError> {
        for vertex in [self.u, self.v] {
            if vertex as usize >= num_vertices {
                return Err(DeltaError::VertexOutOfRange {
                    vertex,
                    num_vertices,
                });
            }
        }
        if self.u == self.v {
            return Err(DeltaError::SelfLoop { vertex: self.u });
        }
        Ok(())
    }
}

impl fmt::Display for EdgeDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{} {}", self.op.sign(), self.u, self.v)
    }
}

/// Why an [`EdgeDelta`] cannot be applied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum DeltaError {
    /// An endpoint is not a vertex of the base graph (the vertex set is
    /// fixed; growing it is a rebuild).
    VertexOutOfRange {
        /// The offending endpoint.
        vertex: VertexId,
        /// The graph's vertex count.
        num_vertices: usize,
    },
    /// `u == v`: self-loops are not representable.
    SelfLoop {
        /// The endpoint.
        vertex: VertexId,
    },
    /// The edit would put `vertex` farther from a landmark it is labelled
    /// with than a label entry can hold (`hcl-index` keeps distances in 24
    /// bits; only graphs of more than 2^24 vertices get there).
    DistanceLimit {
        /// The vertex whose label entry would not fit.
        vertex: VertexId,
        /// Its distance from that landmark after the edit.
        distance: u32,
        /// The largest distance a label entry holds.
        limit: u32,
    },
    /// The labelling under edit has a landmark list its graph does not fit
    /// (only arrays adopted without validation can), so no edit relabels it.
    UnfitLandmarks,
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::VertexOutOfRange {
                vertex,
                num_vertices,
            } => write!(
                f,
                "vertex {vertex} out of range (graph has {num_vertices} vertices; \
                 the vertex set is fixed — growing it requires a rebuild)"
            ),
            DeltaError::SelfLoop { vertex } => {
                write!(f, "self-loop ({vertex}, {vertex}) is not a valid edge")
            }
            DeltaError::DistanceLimit {
                vertex,
                distance,
                limit,
            } => write!(
                f,
                "the edit would put vertex {vertex} {distance} hops from a landmark it is \
                 labelled with, but a label entry holds distances up to {limit}"
            ),
            DeltaError::UnfitLandmarks => write!(f, "the index's landmarks do not fit its graph"),
        }
    }
}

impl std::error::Error for DeltaError {}

/// Rows per [`Overlay`] chunk: row `r` lives in chunk `r / CHUNK_ROWS`.
/// Fixed; a chunk's bitset is 64 words.
pub const CHUNK_ROWS: usize = 4096;

/// Replacement rows for a CSR array (`offsets` + `items`), keyed by row:
/// the overlay half of every base-plus-edits structure in the workspace —
/// adjacency lists in [`PatchedGraph`], packed label entries in
/// `hcl-index`'s `PatchedIndex`. A row is read from here when it was
/// patched and from the base arrays otherwise; [`Overlay::splice`] folds
/// the patches into one fresh copy of the base at memory speed.
///
/// The rows sit in chunks of 4 096 under an `Arc`'d spine of optional
/// `Arc`'d [`Chunk`]s, so a clone — a served generation — is one `Arc`
/// clone, and an edit copies on write: the spine once (`n / 4 096`
/// pointers) and each chunk it lands in once while a clone shares them,
/// in place after that. What an update copies is therefore the spine plus
/// the chunks it touched, whatever the overlay holds. A read of a row
/// loads one chunk pointer, then tests one bit; a patched row adds a
/// popcount.
#[derive(Clone, Debug)]
pub struct Overlay<T> {
    /// Rows of the base these patches apply to.
    num_rows: usize,
    /// Chunk `c` holds the patched rows among `c * CHUNK_ROWS..`; `None`
    /// when it holds none.
    spine: Arc<Vec<Option<Arc<Chunk<T>>>>>,
    /// Patched rows.
    len: usize,
    /// Items in the replacement rows minus items in the base rows they
    /// replace.
    net_items: isize,
    /// Bytes copied on write since [`take_copied_bytes`](Self::take_copied_bytes).
    copied: usize,
}

/// One chunk of an [`Overlay`]: the patched rows among 4 096, behind a
/// rank-indexed bitset. Immutable once shared; an edit to a shared chunk
/// edits a copy.
#[derive(Clone, Debug)]
pub struct Chunk<T> {
    /// One bit per row of the chunk: set when the row is replaced.
    words: [u64; CHUNK_ROWS / 64],
    /// Patched rows in the words before each word.
    ranks: [u16; CHUNK_ROWS / 64],
    /// The replacement rows, in row order.
    rows: Vec<Vec<T>>,
}

impl<T> Chunk<T> {
    fn new() -> Self {
        Self {
            words: [0; CHUNK_ROWS / 64],
            ranks: [0; CHUNK_ROWS / 64],
            rows: Vec::new(),
        }
    }

    /// Bytes a copy of the chunk copies: its bitset and ranks, one row
    /// header per patched row, and the rows' items.
    pub fn bytes(&self) -> usize {
        let items: usize = self.rows.iter().map(Vec::len).sum();
        std::mem::size_of::<Self>()
            + self.rows.len() * std::mem::size_of::<Vec<T>>()
            + items * std::mem::size_of::<T>()
    }

    /// Whether row `r` is patched.
    #[inline]
    fn is_patched(&self, r: usize) -> bool {
        (self.words[r / 64] >> (r % 64)) & 1 == 1
    }

    /// The replacement for row `r` of the chunk, or `None` when the base
    /// row stands.
    #[inline]
    fn get(&self, r: usize) -> Option<&[T]> {
        self.is_patched(r)
            .then(|| self.rows[self.rank(r)].as_slice())
    }

    /// The rank of row `r` among the patched rows: the index of its
    /// replacement, or of the slot one would take.
    #[inline]
    fn rank(&self, r: usize) -> usize {
        let below = self.words[r / 64] & ((1 << (r % 64)) - 1);
        self.ranks[r / 64] as usize + below.count_ones() as usize
    }

    /// The patched rows with their replacements, ascending.
    fn iter(&self) -> impl Iterator<Item = (usize, &[T])> {
        let rows = self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                let bit = (rest != 0).then(|| rest.trailing_zeros() as usize)?;
                rest &= rest - 1;
                Some(w * 64 + bit)
            })
        });
        rows.zip(self.rows.iter().map(Vec::as_slice))
    }
}

impl<T> Overlay<T> {
    /// No patches over a base of `num_rows` rows.
    pub fn new(num_rows: usize) -> Self {
        Self {
            num_rows,
            spine: Arc::new(vec![None; num_rows.div_ceil(CHUNK_ROWS)]),
            len: 0,
            net_items: 0,
            copied: 0,
        }
    }

    /// Rows of the base these patches apply to.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of patched rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no row is patched.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The replacement for `row`, or `None` when the base row stands.
    #[inline]
    pub fn get(&self, row: VertexId) -> Option<&[T]> {
        let row = row as usize;
        let chunk = self.spine.get(row / CHUNK_ROWS)?.as_deref()?;
        chunk.get(row % CHUNK_ROWS)
    }

    /// The chunks, `n / 4 096` rounded up: each one shared with every clone
    /// of the overlay until an edit lands in it.
    pub fn chunks(&self) -> &[Option<Arc<Chunk<T>>>] {
        &self.spine
    }

    /// The item count of a base array of `base_len` items under these
    /// patches.
    pub fn patched_len(&self, base_len: usize) -> usize {
        base_len.saturating_add_signed(self.net_items)
    }

    /// Bytes the edits copied on write since the last call: the spine and
    /// every chunk a clone still shared when an edit landed in it.
    pub fn take_copied_bytes(&mut self) -> usize {
        std::mem::take(&mut self.copied)
    }

    /// Every patched row with its replacement, ascending.
    fn iter(&self) -> impl Iterator<Item = (usize, &[T])> {
        let chunks = self.spine.iter().enumerate();
        chunks
            .filter_map(|(c, chunk)| Some((c * CHUNK_ROWS, chunk.as_deref()?)))
            .flat_map(|(first, chunk)| chunk.iter().map(move |(r, row)| (first + r, row)))
    }
}

impl<T: Clone> Overlay<T> {
    /// Runs `f` on the replacement for `row`, created from `base` (the
    /// base row's items) on first write. Copies the spine and the row's
    /// chunk first if a clone shares them.
    ///
    /// # Panics
    /// Panics if `row` is not a row of the base the patches were made for.
    pub fn edit<R>(&mut self, row: VertexId, base: &[T], f: impl FnOnce(&mut Vec<T>) -> R) -> R {
        let row = row as usize;
        assert!(row < self.num_rows, "row {row} of {} edited", self.num_rows);
        if Arc::get_mut(&mut self.spine).is_none() {
            self.copied += std::mem::size_of_val(self.spine.as_slice());
        }
        let slot = &mut Arc::make_mut(&mut self.spine)[row / CHUNK_ROWS];
        let chunk = slot.get_or_insert_with(|| Arc::new(Chunk::new()));
        if Arc::get_mut(chunk).is_none() {
            self.copied += chunk.bytes();
        }
        let chunk = Arc::make_mut(chunk);
        let r = row % CHUNK_ROWS;
        let rank = chunk.rank(r);
        if !chunk.is_patched(r) {
            chunk.words[r / 64] |= 1 << (r % 64);
            for later in &mut chunk.ranks[r / 64 + 1..] {
                *later += 1;
            }
            chunk.rows.insert(rank, base.to_vec());
            self.len += 1;
        }
        let items = &mut chunk.rows[rank];
        let before = items.len() as isize;
        let out = f(items);
        self.net_items += items.len() as isize - before;
        out
    }
}

impl<T: Copy> Overlay<T> {
    /// The base arrays with every patch applied, as fresh CSR arrays:
    /// each run of unpatched rows between two patched ones is one copy of
    /// its items plus its offsets shifted, each patched row one copy of
    /// its replacement — no per-item work beyond the copies.
    ///
    /// # Panics
    /// Panics if `offsets` does not have one row per row of the base the
    /// patches were made for.
    pub fn splice(&self, offsets: &[u64], items: &[T]) -> (Vec<u64>, Vec<T>) {
        let n = self.num_rows;
        assert_eq!(
            offsets.len(),
            n + 1,
            "base row count differs from the patches'"
        );
        let mut out_offsets = Vec::with_capacity(n + 1);
        let mut out_items = Vec::with_capacity(self.patched_len(items.len()));
        out_offsets.push(0);
        // `next` is the first row not yet written; `n` closes the last run.
        let mut next = 0;
        let patched = self.iter().map(|(row, items)| (row, Some(items)));
        for (row, replacement) in patched.chain([(n, None)]) {
            // The clean run `next..row`: one copy, offsets shifted.
            let (lo, hi) = (offsets[next], offsets[row]);
            let at = out_items.len() as u64;
            out_items.extend_from_slice(&items[lo as usize..hi as usize]);
            out_offsets.extend(offsets[next + 1..=row].iter().map(|&o| o - lo + at));
            if let Some(replacement) = replacement {
                out_items.extend_from_slice(replacement);
                out_offsets.push(out_items.len() as u64);
                next = row + 1;
            }
        }
        (out_offsets, out_items)
    }
}

/// Anything that lends the arrays of a flat CSR graph: an owned [`Graph`],
/// or a store's validated, memory-mapped image. The base a
/// [`PatchedGraph`] edits over.
pub trait CsrArrays: Send + Sync {
    /// The arrays as an unpatched view.
    fn as_view(&self) -> GraphView<'_>;
}

impl CsrArrays for Graph {
    fn as_view(&self) -> GraphView<'_> {
        self.as_view()
    }
}

/// A graph under edits: the flat CSR of the last fold (or the one it was
/// opened over), shared by `Arc` with every generation cloned since, plus
/// the adjacency rows the edits after that fold replaced. A clone is a
/// served generation: two `Arc` clones that share the base and every
/// overlay chunk, which the edits after it copy on write.
///
/// Edits are applied with [`apply`](Self::apply); traversals read the rows
/// through [`as_view`](Self::as_view), a patched [`GraphView`].
/// [`flatten`](Self::flatten) is the fold, [`to_graph`](Self::to_graph)
/// the spliced copy.
#[derive(Clone)]
pub struct PatchedGraph {
    base: Arc<dyn CsrArrays>,
    patches: Overlay<VertexId>,
    /// Bytes the folds copied since [`take_copied_bytes`](Self::take_copied_bytes).
    copied: usize,
}

impl PatchedGraph {
    /// `base` with no edits: shared, not copied.
    pub fn flat(base: Arc<dyn CsrArrays>) -> Self {
        Self {
            patches: Overlay::new(base.as_view().num_vertices()),
            base,
            copied: 0,
        }
    }

    /// The adjacency overlay over the base.
    pub fn patches(&self) -> &Overlay<VertexId> {
        &self.patches
    }

    /// The graph as a view: the base under the patches.
    pub fn as_view(&self) -> GraphView<'_> {
        let base = self.base.as_view();
        if self.patches.is_empty() {
            base
        } else {
            base.with_patches(&self.patches)
        }
    }

    /// Number of vertices (fixed: always the base graph's count).
    pub fn num_vertices(&self) -> usize {
        self.patches.num_rows()
    }

    /// Number of undirected edges after all applied deltas.
    pub fn num_edges(&self) -> usize {
        self.as_view().num_edges()
    }

    /// Number of vertices whose adjacency differs from the base.
    pub fn num_patched(&self) -> usize {
        self.patches.len()
    }

    /// The sorted neighbour list of `v`: the overlay copy if `v` was
    /// touched by an edit, the base CSR slice otherwise.
    ///
    /// # Panics
    /// Panics if `v` is out of range (same contract as [`GraphView`]).
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

    /// Applies one edit. `Ok(true)` when the graph changed, `Ok(false)`
    /// for a no-op (inserting an existing edge, deleting a missing one) —
    /// callers use the distinction to skip label repair and to keep
    /// journals free of dead entries. Fails only where
    /// [`EdgeDelta::validate`] does.
    pub fn apply(&mut self, delta: EdgeDelta) -> Result<bool, DeltaError> {
        delta.validate(self.num_vertices())?;
        let present = self.has_edge(delta.u, delta.v);
        let effective = match delta.op {
            DeltaOp::Insert => !present,
            DeltaOp::Delete => present,
        };
        if !effective {
            return Ok(false);
        }
        let base = self.base.as_view();
        for (a, b) in [(delta.u, delta.v), (delta.v, delta.u)] {
            let base = base.neighbors(a);
            self.patches
                .edit(a, base, |adj| match (delta.op, adj.binary_search(&b)) {
                    (DeltaOp::Insert, Err(pos)) => adj.insert(pos, b),
                    (DeltaOp::Delete, Ok(pos)) => {
                        adj.remove(pos);
                    }
                    // `present` was checked on the merged adjacency, and
                    // both directions stay in lockstep, so these arms
                    // cannot occur.
                    _ => {}
                });
        }
        Ok(true)
    }

    /// The graph as an owned, canonical CSR [`Graph`], spliced: the base
    /// CSR's runs of unpatched vertices and the patched vertices' overlay
    /// lists, copied in vertex order. No sort and no validation pass:
    /// overlay lists are sorted, deduplicated, symmetric and self-loop
    /// free by construction, so the bytes are exactly what `GraphBuilder`
    /// would make of the same edge set. The edits stay pending.
    pub fn to_graph(&self) -> Graph {
        self.as_view().to_owned_graph()
    }

    /// The fold: the edits spliced in ([`to_graph`](Self::to_graph)) and
    /// adopted as the new base, nothing left pending. With no edits it
    /// keeps the same base and copies nothing.
    pub fn flatten(&mut self) {
        if !self.patches.is_empty() {
            let graph = self.to_graph();
            let copied = self.take_copied_bytes()
                + std::mem::size_of_val(graph.csr_offsets())
                + std::mem::size_of_val(graph.csr_neighbors());
            *self = Self {
                copied,
                ..Self::flat(Arc::new(graph))
            };
        }
    }

    /// Bytes copied since the last call: the overlay's spine and chunks,
    /// each copied on the first write while a clone shared it, plus the
    /// arrays of every fold.
    pub fn take_copied_bytes(&mut self) -> usize {
        self.patches.take_copied_bytes() + std::mem::take(&mut self.copied)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs;
    use crate::graph::GraphBuilder;
    use crate::testkit;

    #[test]
    fn overlay_starts_identical_to_base() {
        let g = testkit::grid(4, 4);
        let d = PatchedGraph::flat(Arc::new(g.clone()));
        assert_eq!(d.num_vertices(), 16);
        assert_eq!(d.num_edges(), g.num_edges());
        assert_eq!(d.num_patched(), 0);
        for v in 0..16 {
            assert_eq!(d.neighbors(v), g.neighbors(v));
        }
    }

    #[test]
    fn insert_and_delete_patch_both_endpoints() {
        let g = testkit::path(5); // 0-1-2-3-4
        let mut d = PatchedGraph::flat(Arc::new(g.clone()));
        assert!(d.apply(EdgeDelta::insert(0, 4)).unwrap());
        assert!(d.has_edge(0, 4));
        assert!(d.has_edge(4, 0));
        assert_eq!(d.num_edges(), g.num_edges() + 1);
        assert_eq!(d.num_patched(), 2);
        // Overlay lists stay sorted.
        assert_eq!(d.neighbors(0), &[1, 4]);
        assert_eq!(d.neighbors(4), &[0, 3]);

        assert!(d.apply(EdgeDelta::delete(1, 2)).unwrap());
        assert!(!d.has_edge(1, 2));
        assert!(!d.has_edge(2, 1));
        assert_eq!(d.num_edges(), g.num_edges());
        // The base graph is untouched.
        assert!(g.has_edge(1, 2));
        assert!(!g.has_edge(0, 4));
    }

    #[test]
    fn ineffective_deltas_are_reported_not_applied() {
        let g = testkit::path(3);
        let mut d = PatchedGraph::flat(Arc::new(g.clone()));
        assert!(!d.apply(EdgeDelta::insert(0, 1)).unwrap()); // already present
        assert!(!d.apply(EdgeDelta::delete(0, 2)).unwrap()); // not present
        assert_eq!(d.num_patched(), 0);
        assert_eq!(d.num_edges(), g.num_edges());
    }

    #[test]
    fn invalid_deltas_are_rejected() {
        let g = testkit::path(3);
        let mut d = PatchedGraph::flat(Arc::new(g.clone()));
        assert_eq!(
            d.apply(EdgeDelta::insert(0, 7)).unwrap_err(),
            DeltaError::VertexOutOfRange {
                vertex: 7,
                num_vertices: 3
            }
        );
        assert_eq!(
            d.apply(EdgeDelta::insert(1, 1)).unwrap_err(),
            DeltaError::SelfLoop { vertex: 1 }
        );
    }

    /// `to_graph`'s arrays are `GraphBuilder`'s over the overlay's edge set.
    fn assert_splices_like_the_builder(d: &PatchedGraph, what: &str) {
        let mut b = GraphBuilder::new();
        b.reserve_vertices(d.num_vertices());
        for u in 0..d.num_vertices() as VertexId {
            for &v in d.neighbors(u) {
                b.add_edge(u, v);
            }
        }
        let (want, got) = (b.build(), d.to_graph());
        assert_eq!(got.csr_offsets(), want.csr_offsets(), "{what}: offsets");
        assert_eq!(
            got.csr_neighbors(),
            want.csr_neighbors(),
            "{what}: neighbours"
        );
        assert_eq!(got.num_edges(), d.num_edges(), "{what}: edge count");
    }

    #[test]
    fn materialised_graph_matches_overlay() {
        let shapes = [
            ("er", testkit::erdos_renyi(30, 0.1, 5)),
            ("path", testkit::path(12)),
            ("star", testkit::star(9)),
        ];
        for (name, g) in shapes {
            let n = g.num_vertices() as u64;
            let mut d = PatchedGraph::flat(Arc::new(g.clone()));
            let mut rng = testkit::SplitMix64::new(42 ^ n);
            for step in 0..60 {
                // Half the edits touch a run boundary: vertex 0 or n - 1.
                let u = match step % 4 {
                    0 => 0,
                    1 => n - 1,
                    _ => rng.next_below(n),
                } as VertexId;
                let v = rng.next_below(n) as VertexId;
                if u == v {
                    continue;
                }
                let delta = if d.has_edge(u, v) {
                    EdgeDelta::delete(u, v)
                } else {
                    EdgeDelta::insert(u, v)
                };
                d.apply(delta).unwrap();
                assert_splices_like_the_builder(&d, &format!("{name} step {step} ({delta})"));
                // The patch marks ride along with a clone.
                if step % 8 == 7 {
                    d = d.clone();
                    assert_splices_like_the_builder(&d, &format!("{name} step {step} cloned"));
                }
            }
            assert!(d.num_patched() > 0, "{name}");
        }

        // Deletes that empty adjacency lists, at both ends and inside.
        let g = testkit::path(5); // 0-1-2-3-4
        let mut d = PatchedGraph::flat(Arc::new(g.clone()));
        for (u, v) in [(0, 1), (3, 4), (1, 2)] {
            d.apply(EdgeDelta::delete(u, v)).unwrap();
        }
        for v in [0, 1, 4] {
            assert!(d.neighbors(v).is_empty(), "vertex {v}");
        }
        assert_splices_like_the_builder(&d, "emptied lists");

        // Every vertex patched back to its base list splices to the base.
        for (u, v) in [(0, 1), (3, 4), (1, 2)] {
            d.apply(EdgeDelta::insert(u, v)).unwrap();
        }
        assert_eq!(d.num_patched(), 5);
        assert_splices_like_the_builder(&d, "patched back");
        assert_eq!(d.to_graph(), g);
        assert_eq!(PatchedGraph::flat(Arc::new(g.clone())).to_graph(), g);
    }

    #[test]
    fn csr_patches_splice_rows_in_order() {
        // Rows [a], [], [b c], [d] with rows 0, 1 and 3 replaced.
        let (offsets, items) = ([0u64, 1, 1, 3, 4], [10u64, 20, 21, 30]);
        let mut patches = Overlay::new(4);
        assert_eq!(
            patches.splice(&offsets, &items),
            (offsets.to_vec(), items.to_vec())
        );
        patches.edit(3, &[30], Vec::clear);
        patches.edit(0, &[10], |row| row.push(11));
        patches.edit(1, &[], |row| row.extend([15, 16]));
        assert_eq!(patches.len(), 3);
        assert_eq!(patches.patched_len(items.len()), 6);
        assert_eq!(patches.get(0), Some(&[10, 11][..]));
        assert_eq!(patches.get(2), None);
        assert_eq!(
            patches.splice(&offsets, &items),
            (vec![0, 2, 4, 6, 6], vec![10, 11, 15, 16, 20, 21])
        );
    }

    #[test]
    fn frozen_patches_read_and_splice_like_the_patches() {
        // 130 rows, so the patched rows straddle three bitset words.
        let n = 130;
        let offsets: Vec<u64> = (0..=n as u64).map(|r| 2 * r).collect();
        let items: Vec<u64> = (0..2 * n as u64).collect();
        let mut patches = Overlay::new(n);
        assert!(patches.clone().is_empty());
        for row in [0u32, 5, 63, 64, 65, 127, 129] {
            let base = &items[2 * row as usize..2 * row as usize + 2];
            patches.edit(row, base, |replacement| {
                replacement.clear();
                replacement.extend((0..u64::from(row % 4)).map(|i| 1000 * u64::from(row) + i));
            });
        }
        let frozen = patches.clone();
        assert_eq!((frozen.num_rows(), frozen.len()), (n, 7));
        for row in 0..n as VertexId {
            assert_eq!(frozen.get(row), patches.get(row), "row {row}");
        }
        assert_eq!(frozen.get(n as VertexId), None);
        let spliced = patches.splice(&offsets, &items);
        assert_eq!(frozen.splice(&offsets, &items), spliced);
        assert_eq!(frozen.patched_len(items.len()), spliced.1.len());
    }

    /// A clone shares every chunk; an edit after it copies the spine once
    /// and each chunk it lands in once, and leaves the clone as it was.
    #[test]
    fn edits_after_a_clone_copy_only_the_spine_and_the_chunks_they_touch() {
        // Four chunks, the last one partial; one item per base row.
        let n = 3 * CHUNK_ROWS + 12;
        let offsets: Vec<u64> = (0..=n as u64).collect();
        let items: Vec<u32> = (0..n as u32).collect();
        let row = |r: usize| (r as VertexId, &items[r..r + 1]);
        let mut live = Overlay::new(n);
        let (r, base) = row(1);
        live.edit(r, base, |items| items.push(7));
        let (r, base) = row(CHUNK_ROWS + 5);
        live.edit(r, base, Vec::clear);
        assert_eq!(live.take_copied_bytes(), 0, "nothing was shared");

        let served = live.clone();
        let spliced = served.splice(&offsets, &items);
        let copied_chunk = served.chunks()[0].as_ref().map_or(0, |c| c.bytes());
        for r in [2, 3, 2, 3 * CHUNK_ROWS + 1] {
            let (r, base) = row(r);
            live.edit(r, base, |items| items.push(9));
        }
        let spine = std::mem::size_of::<Option<Arc<Chunk<u32>>>>() * 4;
        assert_eq!(live.take_copied_bytes(), spine + copied_chunk);
        let shared: Vec<bool> = (0..4)
            .map(|c| match (&live.chunks()[c], &served.chunks()[c]) {
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                (a, b) => a.is_none() && b.is_none(),
            })
            .collect();
        assert_eq!(shared, [false, true, true, false]);
        assert_eq!((served.len(), live.len()), (2, 5));
        assert_eq!(served.splice(&offsets, &items), spliced, "the clone moved");
        assert_eq!(live.get(2), Some(&[2, 9, 9][..]));
        assert_eq!(served.get(2), None);

        // Later edits land in place: the chunks are the live overlay's own.
        let (r, base) = row(4);
        live.edit(r, base, Vec::clear);
        assert_eq!(live.take_copied_bytes(), 0);
    }

    /// A frozen overlay served as a patched `GraphView` reads exactly like
    /// `to_graph`'s spliced CSR, and splices to it.
    fn assert_frozen_view_matches(d: &PatchedGraph, base: &Arc<Graph>, what: &str) {
        let spliced = d.to_graph();
        let frozen = d.clone();
        let view = frozen.as_view();
        assert_eq!(view.is_patched(), d.num_patched() > 0, "{what}");
        assert_eq!(view.patched_rows(), d.num_patched(), "{what}");
        assert_eq!(view.num_vertices(), spliced.num_vertices(), "{what}");
        assert_eq!(view.num_edges(), spliced.num_edges(), "{what}: edges");
        let n = spliced.num_vertices() as VertexId;
        for u in 0..n {
            assert_eq!(view.neighbors(u), spliced.neighbors(u), "{what}: row {u}");
            assert_eq!(view.degree(u), spliced.degree(u), "{what}: degree {u}");
            for v in 0..n {
                assert_eq!(view.has_edge(u, v), spliced.has_edge(u, v), "{what}");
            }
        }
        assert_eq!(view.to_owned_graph(), spliced, "{what}: splice");
        assert_eq!(
            view.top_k_by_degree(4),
            spliced.top_k_by_degree(4),
            "{what}"
        );
        let base_ptr = view.unpatched().csr_neighbors().as_ptr();
        assert_eq!(
            base_ptr,
            base.csr_neighbors().as_ptr(),
            "{what}: base shared"
        );
    }

    #[test]
    fn frozen_graphs_read_like_the_spliced_graph() {
        // An overlay over a patched base: one insert frozen into a served
        // generation, then another made on top of that generation's view.
        let g = Arc::new(testkit::barabasi_albert(200, 3, 7));
        let mut first = PatchedGraph::flat(g.clone());
        first.apply(EdgeDelta::insert(0, 199)).unwrap();
        let frozen = first.clone();
        let mut d = PatchedGraph::flat(Arc::new(frozen.to_graph()));
        d.apply(EdgeDelta::insert(1, 198)).unwrap();
        assert_splices_like_the_builder(&d, "over a patched base");
        let spliced = d.to_graph();
        assert!(spliced.has_edge(0, 199) && spliced.has_edge(1, 198));

        for (name, g) in testkit::families() {
            let base = Arc::new(g);
            let n = base.num_vertices() as u64;
            let mut d = PatchedGraph::flat(base.clone());
            assert_frozen_view_matches(&d, &base, &format!("{name} unedited"));
            if n < 2 {
                continue;
            }
            let mut rng = testkit::SplitMix64::new(0xF0 ^ n);
            for step in 0..12 {
                let (u, v) = (rng.next_below(n) as VertexId, rng.next_below(n) as VertexId);
                if u == v {
                    continue;
                }
                let delta = if d.has_edge(u, v) {
                    EdgeDelta::delete(u, v)
                } else {
                    EdgeDelta::insert(u, v)
                };
                d.apply(delta).unwrap();
                assert_frozen_view_matches(&d, &base, &format!("{name} step {step} ({delta})"));
            }
            // Empty every row of one vertex and of its neighbours' lists.
            let hub = base.top_k_by_degree(1)[0];
            for w in d.neighbors(hub).to_vec() {
                d.apply(EdgeDelta::delete(hub, w)).unwrap();
            }
            assert!(d.neighbors(hub).is_empty(), "{name}");
            assert_frozen_view_matches(&d, &base, &format!("{name} emptied {hub}"));
        }
    }

    #[test]
    fn every_row_source_reads_the_overlay_alike() {
        use crate::graph::{FlatRows, Rows};
        for (name, g) in testkit::families() {
            let n = g.num_vertices() as u64;
            let mut d = PatchedGraph::flat(Arc::new(g.clone()));
            let mut rng = testkit::SplitMix64::new(0x70 ^ n);
            for _ in 0..(2 * n) {
                let (u, v) = (rng.next_below(n) as VertexId, rng.next_below(n) as VertexId);
                if u != v {
                    let edit = if d.has_edge(u, v) {
                        EdgeDelta::delete(u, v)
                    } else {
                        EdgeDelta::insert(u, v)
                    };
                    d.apply(edit).unwrap();
                }
            }
            let spliced = d.to_graph();
            let view = spliced.as_view();
            let flat = FlatRows::new(spliced.csr_offsets(), spliced.csr_neighbors());
            let rows = d.as_view().num_rows();
            assert_eq!(rows, d.num_vertices(), "{name}");
            assert_eq!((&spliced).num_rows(), rows, "{name}");
            assert_eq!(view.num_rows(), rows, "{name}");
            assert_eq!(flat.num_rows(), rows, "{name}");
            for v in 0..rows as VertexId {
                let row = d.as_view().row(v);
                assert_eq!((&spliced).row(v), row, "{name}: row {v}");
                assert_eq!(view.row(v), row, "{name}: row {v}");
                assert_eq!(flat.row(v), row, "{name}: row {v}");
                let from = bfs::distances_from(d.as_view(), v);
                assert_eq!(bfs::distances_from(&spliced, v), from, "{name}: from {v}");
                assert_eq!(bfs::distances_from(view, v), from, "{name}: from {v}");
                assert_eq!(bfs::distances_from(flat, v), from, "{name}: from {v}");
            }
        }
    }

    #[test]
    fn bfs_oracles_run_over_the_overlay() {
        let g = testkit::path(6); // 0-1-2-3-4-5
        let mut d = PatchedGraph::flat(Arc::new(g.clone()));
        d.apply(EdgeDelta::insert(0, 5)).unwrap(); // close the cycle
        assert_eq!(bfs::distance(d.as_view(), 0, 5), Some(1));
        assert_eq!(bfs::distance(d.as_view(), 0, 3), Some(3));
        d.apply(EdgeDelta::delete(2, 3)).unwrap();
        // 0-1-2 and 3-4-5 joined only through the new 0-5 edge.
        assert_eq!(bfs::distance(d.as_view(), 2, 3), Some(5));
        // Base graph still answers the old distances.
        assert_eq!(bfs::distance(&g, 2, 3), Some(1));
        assert_eq!(bfs::distance(&g, 0, 5), Some(5));
    }
}
