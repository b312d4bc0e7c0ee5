//! Mutable edge-delta overlay on the immutable CSR graph.
//!
//! The CSR layout ([`Graph`]/[`GraphView`]) is deliberately frozen: its
//! contiguous arrays are what the store memory-maps and what every
//! traversal iterates. Dynamic graphs are layered *on top* of it instead
//! of mutating it: a [`DeltaGraph`] keeps the base view untouched and
//! materialises a private, fully merged adjacency list only for the
//! vertices an edit actually touched. `neighbors` therefore still returns
//! a plain sorted `&[VertexId]` slice — patched vertices serve their
//! overlay copy, everyone else serves the base CSR — so traversal code
//! needs no per-edge branching and no iterator abstraction.
//!
//! The patched lists live in a [`CsrPatches`], the row-keyed overlay
//! `hcl-index` also keeps its edited labels in. Folding one back into a
//! flat CSR ([`DeltaGraph::to_graph`]) is a splice — the base's clean runs
//! and the patched rows copied in row order — so it costs two memory-speed
//! copies, not a sort.
//!
//! Serving an edited graph needs no splice at all: [`CsrPatches::freeze`]
//! copies just the patched rows into a [`FrozenPatches`] — one array of
//! rows behind a rank-indexed bitset, immutable and shareable across
//! threads — and a [`FrozenGraph`] serves the shared base `Arc` under it
//! as a patched [`GraphView`]. Freezing costs `O(rows patched + n / 64)`,
//! whatever the size of the base.
//!
//! [`DynGraphView`] is the enum-dispatched view unifying both worlds: the
//! BFS oracles in [`crate::bfs`] accept `impl Into<DynGraphView>` and run
//! unchanged over a frozen CSR or a base+delta overlay. The vertex set is
//! fixed: deltas add and remove *edges* between existing vertices (the
//! serving path's containers pin `n` at build time); growing the vertex
//! set remains a rebuild.

use crate::bitset::DenseBitSet;
use crate::graph::{Graph, GraphView, VertexId};
use std::collections::HashMap;
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
        }
    }
}

impl std::error::Error for DeltaError {}

/// Replacement rows for a CSR array (`offsets` + `items`), keyed by row:
/// the overlay half of every base-plus-edits structure in the workspace —
/// adjacency lists in [`DeltaGraph`], packed label entries in `hcl-index`'s
/// `DynamicIndex`. A row is read from here when it was patched and from
/// the base arrays otherwise; [`CsrPatches::freeze`] copies the patched
/// rows into their shareable, immutable form, and [`CsrPatches::splice`]
/// folds the patches into one fresh copy of the base at memory speed.
#[derive(Debug, Default)]
pub struct CsrPatches<T> {
    rows: HashMap<VertexId, Vec<T>>,
    /// The key set of `rows`, one bit per row: a read of an unpatched row
    /// tests a bit instead of hashing.
    is_patched: DenseBitSet,
}

impl<T: Copy> CsrPatches<T> {
    /// No patches over a base of `num_rows` rows.
    pub fn new(num_rows: usize) -> Self {
        let mut is_patched = DenseBitSet::new();
        is_patched.reset(num_rows);
        Self {
            rows: HashMap::new(),
            is_patched,
        }
    }

    /// Rows of the base these patches apply to.
    pub(crate) fn num_rows(&self) -> usize {
        self.is_patched.len()
    }

    /// Number of patched rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no row is patched.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The replacement for `row`, or `None` when the base row stands.
    #[inline]
    pub fn get(&self, row: VertexId) -> Option<&[T]> {
        if self.is_patched.contains(row as usize) {
            self.rows.get(&row).map(Vec::as_slice)
        } else {
            None
        }
    }

    /// The replacement for `row`, created from `base` (the base row's
    /// items) on first write.
    ///
    /// # Panics
    /// Panics if `row` is not a row of the base the patches were made for.
    pub fn get_or_insert_with(
        &mut self,
        row: VertexId,
        base: impl FnOnce() -> Vec<T>,
    ) -> &mut Vec<T> {
        self.is_patched.insert(row as usize);
        self.rows.entry(row).or_insert_with(base)
    }

    /// Every patched row with its replacement, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, &[T])> {
        self.rows
            .iter()
            .map(|(&row, items)| (row, items.as_slice()))
    }

    /// The patched rows, frozen: one copy of each replacement row, in row
    /// order, behind a rank-indexed bitset — `O(rows patched + n / 64)`.
    /// `base_offsets` are the offsets of the base the patches apply to;
    /// the patches themselves are left as they are.
    ///
    /// # Panics
    /// Panics if `base_offsets` does not have one row per row of the base
    /// the patches were made for.
    pub fn freeze(&self, base_offsets: &[u64]) -> FrozenPatches<T> {
        let n = self.num_rows();
        assert_eq!(
            base_offsets.len(),
            n + 1,
            "base row count differs from the patches'"
        );
        let mut words = vec![0u64; n.div_ceil(64)];
        let mut rows = Vec::with_capacity(self.len());
        let mut offsets = Vec::with_capacity(self.len() + 1);
        let mut items = Vec::new();
        let (mut added, mut removed) = (0, 0);
        offsets.push(0);
        for row in self.is_patched.iter() {
            let patched = &self.rows[&(row as VertexId)];
            words[row / 64] |= 1 << (row % 64);
            rows.push(row as VertexId);
            items.extend_from_slice(patched);
            offsets.push(items.len() as u64);
            added += patched.len();
            removed += (base_offsets[row + 1] - base_offsets[row]) as usize;
        }
        let mut before = Vec::with_capacity(words.len());
        let mut rank = 0u32;
        for word in &words {
            before.push(rank);
            rank += word.count_ones();
        }
        FrozenPatches {
            num_rows: n,
            words,
            before,
            rows,
            offsets,
            items,
            added,
            removed,
        }
    }

    /// The base arrays with every patch applied, as fresh CSR arrays; see
    /// [`FrozenPatches::splice`].
    ///
    /// # Panics
    /// Panics if `offsets` does not have one row per row of the base the
    /// patches were made for.
    pub fn splice(&self, offsets: &[u64], items: &[T]) -> (Vec<u64>, Vec<T>) {
        self.freeze(offsets).splice(offsets, items)
    }
}

/// Replacement rows for a CSR array, frozen ([`CsrPatches::freeze`]):
/// the overlay half of a served generation. Immutable, so one copy is
/// shared by every reader of that generation.
///
/// The rows sit back to back in row order, and a per-word prefix count
/// over the patched-row bitset ranks a row among them, so a read of an
/// unpatched row tests one bit and a read of a patched row adds a
/// popcount — no hashing.
#[derive(Clone, Debug)]
pub struct FrozenPatches<T> {
    /// Rows of the base these patches apply to.
    num_rows: usize,
    /// One bit per base row: set when the row is replaced.
    words: Vec<u64>,
    /// Patched rows in the words before each word.
    before: Vec<u32>,
    /// The patched rows, ascending.
    rows: Vec<VertexId>,
    /// `offsets[i]..offsets[i + 1]` indexes `items` for `rows[i]`.
    offsets: Vec<u64>,
    items: Vec<T>,
    /// Items in the replacement rows, and in the base rows they replace.
    added: usize,
    removed: usize,
}

impl<T: Copy> FrozenPatches<T> {
    /// Rows of the base these patches apply to.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of patched rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no row is patched.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The replacement for `row`, or `None` when the base row stands.
    #[inline]
    pub fn get(&self, row: VertexId) -> Option<&[T]> {
        let (w, bit) = (row as usize / 64, row % 64);
        let word = *self.words.get(w)?;
        if (word >> bit) & 1 == 0 {
            return None;
        }
        let rank = self.before[w] as usize + (word & ((1 << bit) - 1)).count_ones() as usize;
        Some(&self.items[self.offsets[rank] as usize..self.offsets[rank + 1] as usize])
    }

    /// The item count of a base array of `base_len` items under these
    /// patches.
    pub fn patched_len(&self, base_len: usize) -> usize {
        base_len - self.removed + self.added
    }

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
        let patched = self.rows.iter().map(|&row| row as usize).enumerate();
        for (rank, row) in patched.chain([(self.len(), n)]) {
            // The clean run `next..row`: one copy, offsets shifted.
            let (lo, hi) = (offsets[next], offsets[row]);
            let at = out_items.len() as u64;
            out_items.extend_from_slice(&items[lo as usize..hi as usize]);
            out_offsets.extend(offsets[next + 1..=row].iter().map(|&o| o - lo + at));
            if row < n {
                let (lo, hi) = (self.offsets[rank], self.offsets[rank + 1]);
                out_items.extend_from_slice(&self.items[lo as usize..hi as usize]);
                out_offsets.push(out_items.len() as u64);
                next = row + 1;
            }
        }
        (out_offsets, out_items)
    }
}

/// A graph as a served generation holds it: the CSR of the last fold,
/// shared by `Arc` with every generation since, plus the frozen adjacency
/// patches made after it (none when the generation is flat).
#[derive(Debug)]
pub struct FrozenGraph {
    base: Arc<Graph>,
    patches: Option<FrozenPatches<VertexId>>,
}

impl FrozenGraph {
    /// `base` with no patches.
    pub fn flat(base: Arc<Graph>) -> Self {
        Self {
            base,
            patches: None,
        }
    }

    /// The shared base CSR.
    pub fn base(&self) -> &Arc<Graph> {
        &self.base
    }

    /// The graph as a view: the base under the patches.
    pub fn as_view(&self) -> GraphView<'_> {
        let base = self.base.as_view();
        match &self.patches {
            Some(patches) => base.with_patches(patches),
            None => base,
        }
    }
}

/// A mutable edge-delta overlay over an immutable base [`GraphView`].
///
/// Edits are applied with [`DeltaGraph::apply`]; adjacency reads come
/// back as plain sorted slices (overlay copies for patched vertices, the
/// base CSR for everyone else), so the overlay plugs into every traversal
/// through [`DynGraphView`] without changing its inner loop. Materialise
/// with [`DeltaGraph::to_graph`] once a batch of edits settles.
pub struct DeltaGraph<'a> {
    base: GraphView<'a>,
    /// Fully merged, sorted adjacency for vertices whose neighbourhood
    /// differs from the base.
    patched: CsrPatches<VertexId>,
    /// Undirected edge count after all applied deltas.
    num_edges: usize,
}

impl<'a> DeltaGraph<'a> {
    /// An overlay with no edits yet.
    pub fn new(base: GraphView<'a>) -> Self {
        Self::reattach(base, DeltaPatches::default())
    }

    /// Number of vertices (fixed: always the base graph's count).
    pub fn num_vertices(&self) -> usize {
        self.base.num_vertices()
    }

    /// Number of undirected edges after all applied deltas.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Number of vertices whose adjacency differs from the base.
    pub fn num_patched(&self) -> usize {
        self.patched.len()
    }

    /// The sorted neighbour list of `v`: the overlay copy if `v` was
    /// touched by an edit, the base CSR slice otherwise.
    ///
    /// # Panics
    /// Panics if `v` is out of range (same contract as [`GraphView`]).
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        match self.patched.get(v) {
            Some(adj) => adj,
            None => self.base.neighbors(v),
        }
    }

    /// Whether `u` and `v` are adjacent (`O(log degree(u))`).
    ///
    /// # Panics
    /// Panics if `u` is out of range.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Applies one edit. `Ok(true)` when the graph changed, `Ok(false)`
    /// for a no-op (inserting an existing edge, deleting a missing one) —
    /// callers use the distinction to skip label repair and to keep
    /// journals free of dead entries.
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
        for (a, b) in [(delta.u, delta.v), (delta.v, delta.u)] {
            let base = self.base;
            let adj = self
                .patched
                .get_or_insert_with(a, || base.neighbors(a).to_vec());
            match (delta.op, adj.binary_search(&b)) {
                (DeltaOp::Insert, Err(pos)) => adj.insert(pos, b),
                (DeltaOp::Delete, Ok(pos)) => {
                    adj.remove(pos);
                }
                // `present` was checked on the merged adjacency, and both
                // directions stay in lockstep, so these arms cannot occur.
                _ => {}
            }
        }
        match delta.op {
            DeltaOp::Insert => self.num_edges = self.num_edges.saturating_add(1),
            DeltaOp::Delete => self.num_edges = self.num_edges.saturating_sub(1),
        }
        Ok(true)
    }

    /// Detaches the edits from the base borrow, so a caller that *owns*
    /// the base graph can keep them across calls without a
    /// self-referential struct; [`DeltaGraph::reattach`] is the inverse.
    pub fn detach(self) -> DeltaPatches {
        DeltaPatches {
            net_edges: self.num_edges as isize - self.base.num_edges() as isize,
            patched: self.patched,
        }
    }

    /// Resumes an overlay from patches [`detach`](DeltaGraph::detach)ed
    /// off an overlay of the same `base`. Default (empty) patches
    /// reattach to any base as an overlay with no edits.
    pub fn reattach(base: GraphView<'a>, patches: DeltaPatches) -> Self {
        let mut patched = patches.patched;
        if patched.num_rows() != base.num_vertices() {
            // Default patches are unsized; detached ones are already sized
            // for the base they came off.
            patched = CsrPatches::new(base.num_vertices());
        }
        Self {
            base,
            patched,
            num_edges: base.num_edges().saturating_add_signed(patches.net_edges),
        }
    }

    /// Materialises the overlay into an owned, canonical CSR [`Graph`] by
    /// splicing: the base CSR's runs of unpatched vertices and the patched
    /// vertices' overlay lists, copied in vertex order. No sort and no
    /// validation pass: overlay lists are sorted, deduplicated, symmetric
    /// and self-loop free by construction, so the bytes are exactly what
    /// `GraphBuilder` would make of the same edge set. A patched base (a
    /// served generation's view) is first spliced flat itself, so its own
    /// replacement rows are kept.
    pub fn to_graph(&self) -> Graph {
        let flat = self.base.is_patched().then(|| self.base.to_owned_graph());
        let base = flat.as_ref().map_or(self.base, Graph::as_view);
        let (offsets, neighbors) = self
            .patched
            .splice(base.csr_offsets(), base.csr_neighbors());
        Graph::from_csr_trusted(offsets, neighbors)
    }

    /// A borrowed enum view of this overlay for the traversal APIs.
    pub fn as_dyn_view(&self) -> DynGraphView<'_> {
        DynGraphView::Delta(self)
    }
}

/// The owned half of a [`DeltaGraph`] — its edits without the base borrow
/// (see [`DeltaGraph::detach`]). Opaque: only meaningful reattached to the
/// base it was detached from.
#[derive(Default)]
pub struct DeltaPatches {
    patched: CsrPatches<VertexId>,
    /// Undirected edges added minus edges removed.
    net_edges: isize,
}

impl DeltaPatches {
    /// Whether no vertex's adjacency differs from the base (nothing to
    /// materialise).
    pub fn is_empty(&self) -> bool {
        self.patched.is_empty()
    }

    /// Number of vertices whose adjacency differs from the base.
    pub fn num_patched(&self) -> usize {
        self.patched.len()
    }

    /// The edits frozen over `base`, the graph they were detached from:
    /// `base` shared, the patched rows copied ([`CsrPatches::freeze`]).
    ///
    /// # Panics
    /// Panics if the patches were made for a graph of another vertex count.
    pub fn freeze(&self, base: &Arc<Graph>) -> FrozenGraph {
        FrozenGraph {
            base: Arc::clone(base),
            patches: (!self.is_empty()).then(|| self.patched.freeze(base.csr_offsets())),
        }
    }
}

/// The enum-dispatched graph view: a frozen CSR or a base+delta overlay.
///
/// `Copy`, like [`GraphView`]. Every BFS oracle in [`crate::bfs`] takes
/// `impl Into<DynGraphView>`, so owned graphs, mmap'd views, and delta
/// overlays all run through one traversal implementation; the only cost
/// is one predictable match per adjacency fetch.
#[derive(Clone, Copy)]
pub enum DynGraphView<'a> {
    /// A frozen CSR graph.
    Csr(GraphView<'a>),
    /// A base CSR plus an edit overlay.
    Delta(&'a DeltaGraph<'a>),
}

impl<'a> DynGraphView<'a> {
    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        match self {
            DynGraphView::Csr(g) => g.num_vertices(),
            DynGraphView::Delta(d) => d.num_vertices(),
        }
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        match self {
            DynGraphView::Csr(g) => g.num_edges(),
            DynGraphView::Delta(d) => d.num_edges(),
        }
    }

    /// The sorted neighbour list of `v`.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: VertexId) -> &'a [VertexId] {
        match self {
            DynGraphView::Csr(g) => g.neighbors(v),
            DynGraphView::Delta(d) => d.neighbors(v),
        }
    }

    /// Whether `u` and `v` are adjacent.
    ///
    /// # Panics
    /// Panics if `u` is out of range.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }
}

impl<'a> From<GraphView<'a>> for DynGraphView<'a> {
    fn from(g: GraphView<'a>) -> Self {
        DynGraphView::Csr(g)
    }
}

impl<'a> From<&'a Graph> for DynGraphView<'a> {
    fn from(g: &'a Graph) -> Self {
        DynGraphView::Csr(g.as_view())
    }
}

impl<'a> From<&'a DeltaGraph<'a>> for DynGraphView<'a> {
    fn from(d: &'a DeltaGraph<'a>) -> Self {
        DynGraphView::Delta(d)
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
        let d = DeltaGraph::new(g.as_view());
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
        let mut d = DeltaGraph::new(g.as_view());
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
        let mut d = DeltaGraph::new(g.as_view());
        assert!(!d.apply(EdgeDelta::insert(0, 1)).unwrap()); // already present
        assert!(!d.apply(EdgeDelta::delete(0, 2)).unwrap()); // not present
        assert_eq!(d.num_patched(), 0);
        assert_eq!(d.num_edges(), g.num_edges());
    }

    #[test]
    fn invalid_deltas_are_rejected() {
        let g = testkit::path(3);
        let mut d = DeltaGraph::new(g.as_view());
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
    fn assert_splices_like_the_builder(d: &DeltaGraph<'_>, what: &str) {
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
            let mut d = DeltaGraph::new(g.as_view());
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
                // The patch marks ride along with the patches.
                if step % 8 == 7 {
                    d = DeltaGraph::reattach(g.as_view(), d.detach());
                    assert_splices_like_the_builder(&d, &format!("{name} step {step} reattached"));
                }
            }
            assert!(d.num_patched() > 0, "{name}");
        }

        // Deletes that empty adjacency lists, at both ends and inside.
        let g = testkit::path(5); // 0-1-2-3-4
        let mut d = DeltaGraph::new(g.as_view());
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
        assert_eq!(DeltaGraph::new(g.as_view()).to_graph(), g);
    }

    #[test]
    fn csr_patches_splice_rows_in_order() {
        // Rows [a], [], [b c], [d] with rows 0, 1 and 3 replaced.
        let (offsets, items) = ([0u64, 1, 1, 3, 4], [10u64, 20, 21, 30]);
        let mut patches = CsrPatches::new(4);
        assert_eq!(
            patches.splice(&offsets, &items),
            (offsets.to_vec(), items.to_vec())
        );
        patches.get_or_insert_with(3, || vec![30]).clear();
        patches.get_or_insert_with(0, || vec![10]).push(11);
        patches.get_or_insert_with(1, Vec::new).extend([15, 16]);
        assert_eq!(patches.len(), 3);
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
        let mut patches = CsrPatches::new(n);
        assert!(patches.freeze(&offsets).is_empty());
        for row in [0u32, 5, 63, 64, 65, 127, 129] {
            let replacement = patches.get_or_insert_with(row, Vec::new);
            replacement.extend((0..u64::from(row % 4)).map(|i| 1000 * u64::from(row) + i));
        }
        let frozen = patches.freeze(&offsets);
        assert_eq!((frozen.num_rows(), frozen.len()), (n, 7));
        for row in 0..n as VertexId {
            assert_eq!(frozen.get(row), patches.get(row), "row {row}");
        }
        assert_eq!(frozen.get(n as VertexId), None);
        let spliced = patches.splice(&offsets, &items);
        assert_eq!(frozen.splice(&offsets, &items), spliced);
        assert_eq!(frozen.patched_len(items.len()), spliced.1.len());
    }

    /// A frozen overlay served as a patched `GraphView` reads exactly like
    /// `to_graph`'s spliced CSR, and splices to it.
    fn assert_frozen_view_matches(d: &DeltaGraph<'_>, base: &Arc<Graph>, what: &str) {
        let spliced = d.to_graph();
        let frozen = FrozenGraph {
            base: Arc::clone(base),
            patches: (d.num_patched() > 0).then(|| d.patched.freeze(base.csr_offsets())),
        };
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
        let mut first = DeltaGraph::new(g.as_view());
        first.apply(EdgeDelta::insert(0, 199)).unwrap();
        let frozen = first.detach().freeze(&g);
        let mut d = DeltaGraph::new(frozen.as_view());
        d.apply(EdgeDelta::insert(1, 198)).unwrap();
        assert_splices_like_the_builder(&d, "over a patched base");
        let spliced = d.to_graph();
        assert!(spliced.has_edge(0, 199) && spliced.has_edge(1, 198));

        for (name, g) in testkit::families() {
            let base = Arc::new(g);
            let n = base.num_vertices() as u64;
            let mut d = DeltaGraph::new(base.as_view());
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
    fn detached_patches_reattach_to_the_same_overlay() {
        let g = testkit::path(6);
        let mut d = DeltaGraph::new(g.as_view());
        d.apply(EdgeDelta::insert(0, 5)).unwrap();
        d.apply(EdgeDelta::delete(2, 3)).unwrap();
        d.apply(EdgeDelta::insert(1, 4)).unwrap();
        let patches = d.detach();
        assert!(!patches.is_empty());
        let mut d = DeltaGraph::reattach(g.as_view(), patches);
        assert_eq!(d.num_edges(), g.num_edges() + 1);
        assert!(d.has_edge(0, 5) && d.has_edge(4, 1) && !d.has_edge(2, 3));
        // Edits keep accumulating across the round trip.
        d.apply(EdgeDelta::delete(0, 5)).unwrap();
        let materialised = d.to_graph();
        assert_eq!(materialised.num_edges(), g.num_edges());
        assert_eq!(materialised.neighbors(0), &[1]);

        // Default patches are an overlay with no edits, on any base.
        assert!(DeltaPatches::default().is_empty());
        let fresh = DeltaGraph::reattach(g.as_view(), DeltaPatches::default());
        assert_eq!(fresh.num_edges(), g.num_edges());
        assert_eq!(fresh.num_patched(), 0);
    }

    #[test]
    fn bfs_oracles_run_over_the_overlay() {
        let g = testkit::path(6); // 0-1-2-3-4-5
        let mut d = DeltaGraph::new(g.as_view());
        d.apply(EdgeDelta::insert(0, 5)).unwrap(); // close the cycle
        assert_eq!(bfs::distance(&d, 0, 5), Some(1));
        assert_eq!(bfs::distance(&d, 0, 3), Some(3));
        d.apply(EdgeDelta::delete(2, 3)).unwrap();
        // 0-1-2 and 3-4-5 joined only through the new 0-5 edge.
        assert_eq!(bfs::distance(&d, 2, 3), Some(5));
        // Base graph still answers the old distances.
        assert_eq!(bfs::distance(&g, 2, 3), Some(1));
        assert_eq!(bfs::distance(&g, 0, 5), Some(5));
    }
}
