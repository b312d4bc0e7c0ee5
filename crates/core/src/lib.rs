//! Core graph storage and traversal primitives for the highway-cover
//! labelling system.
//!
//! This crate provides the three foundations every other layer builds on:
//!
//! * [`graph::Graph`] — an immutable, cache-friendly CSR (compressed sparse
//!   row) adjacency structure for unweighted undirected graphs, built from
//!   arbitrary edge lists via [`graph::GraphBuilder`], plus
//!   [`graph::GraphView`], a borrowed zero-copy view over the same layout
//!   used when serving memory-mapped index files. Raw CSR arrays can be
//!   validated and adopted wholesale via [`graph::Graph::from_csr`].
//! * [`bfs`] — plain breadth-first-search distance oracles. These are the
//!   ground truth that the hub-labelling index in `hcl-index` is
//!   property-tested against. They run over views, so mapped graphs verify
//!   identically to owned ones.
//! * [`rng`] — the seeded SplitMix64 generator. Its output stream is
//!   **frozen**: the testkit graphs and the benchmark harness's seeded
//!   inputs depend on it.
//! * [`testkit`] — deterministic, seeded synthetic graph generators (paths,
//!   cycles, stars, grids, Erdős–Rényi, Barabási–Albert) plus the shared
//!   eleven-family property-test sweep, so every crate in the workspace
//!   can write reproducible property tests.
//! * [`delta`] — the dynamic-graph layer: [`delta::EdgeDelta`] edge edits
//!   and [`delta::PatchedGraph`], the one graph type that takes them: a
//!   flat CSR base shared by `Arc` under a [`delta::Overlay`], the
//!   copy-on-write rows it (and `hcl-index`'s editable labels) keep their
//!   edits in — chunks of 4 096 rows under an `Arc`'d spine, so a served
//!   generation is a clone, and an update copies only the spine and the
//!   chunks it touches. Traversals read it through its patched
//!   [`graph::GraphView`], the same [`graph::Rows`] source as every CSR.
#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod bfs;
pub mod delta;
pub mod graph;
pub mod rng;
pub mod testkit;

pub use bfs::{BfsProbe, NoProbe};
pub use delta::{CsrArrays, DeltaError, DeltaOp, EdgeDelta, Overlay, PatchedGraph};
pub use graph::{CsrError, FlatRows, Graph, GraphBuilder, GraphView, Rows, VertexId, INFINITY};

/// [`PatchedGraph`], kept only because the frozen harness names it
/// (ROADMAP 1(c)).
pub type DeltaGraph<'a> = PatchedGraph;
