//! Highway-cover 2-hop hub labelling for exact shortest-path distance
//! queries on complex networks.
//!
//! This crate implements the labelling the source paper
//! (conf_edbt_Farhan021, IncHL+) maintains — the *highway cover labelling*
//! of Farhan et al. (EDBT 2019): pick the `k` highest-degree vertices as
//! *landmarks*, give vertex `v` the entry `(r, d(r, v))` for exactly
//! those landmarks `r` with no other landmark on any shortest
//! `r`–`v` path, keep a small `k × k` *highway* of landmark-to-landmark
//! distances, and answer queries as
//!
//! ```text
//! d(u, v) = min( label/highway upper bound,
//!                distance over paths avoiding all landmarks )
//! ```
//!
//! where the second term is computed by a bidirectional BFS that never
//! expands through a landmark and is cut off by the first term. Both halves
//! are cheap — labels are tiny because high-degree landmarks cover most
//! shortest paths in complex networks, and the fallback BFS explores only
//! the sparse landmark-free residue of the graph.
//!
//! The labelling is defined without any order among the landmarks, so it
//! is a function of the graph and the landmark set alone, and minimal.
//! Construction evaluates the definition for 64 landmarks at a time in one
//! bit-parallel multi-source BFS sweep, writing entries straight into the
//! hub-sorted CSR; groups of 64 share nothing and are optionally sharded
//! over scoped worker threads ([`BuildOptions`] / [`BuildContext`]), so
//! the built index is byte-identical at every thread count — see the
//! `build` module docs. A caller with its own landmark list labels the
//! graph for it with [`HighwayCoverIndex::build_in`].
//!
//! Storage comes in two backings sharing one query engine:
//!
//! * [`HighwayCoverIndex`] — owned `Vec`s, produced by a build;
//! * [`IndexView`] — five borrowed slices over the identical flat layout
//!   (each label entry is one `u32`, the landmark rank over a 24-bit
//!   distance — see [`pack_label_entry`], and [`MAX_LANDMARKS`] /
//!   [`MAX_LABEL_DISTANCE`] for the limits that sets), which is what
//!   `hcl-store` serves straight out of a memory-mapped file. Untrusted
//!   slices are admitted through
//!   [`IndexView::from_parts`], which validates every invariant the engine
//!   indexes by. An edited labelling ([`PatchedIndex`], whose clone is a
//!   live-updated generation) adds to its view a copy-on-write overlay of
//!   replacement labels and a patched highway, which share with the
//!   generation before every chunk and the highway unless its update
//!   wrote to them.
//!
//! Every query result is exact; the test suite property-checks the engine
//! against the plain BFS oracle from `hcl-core` over multiple graph
//! families, seeds, and landmark counts.
//!
//! Observability is a compile-time opt-in: the query path is generic over
//! the [`Probe`] trait (no-op by default, so un-instrumented queries pay
//! nothing) and [`QueryStats`] is the standard collector; builds report
//! deterministic sweep counters and per-phase wall times through
//! [`BuildStats`] / [`HighwayCoverIndex::build_with_stats`].
#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod build;
mod probe;
mod query;
pub mod repair;
mod select;
mod view;

pub use build::{
    BuildContext, BuildOptions, BuildStats, HighwayCoverIndex, IndexConfig, IndexStats,
};
pub use probe::{AnswerSource, MergeKind, Probe, QueryStats};
pub use query::QueryContext;
pub use repair::{LabelArrays, PatchedIndex, RepairOutcome};
pub use select::SelectionStrategy;
pub use view::{
    pack_label_entry, unpack_label_entry, IndexDataError, IndexView, MAX_LABEL_DISTANCE,
    MAX_LANDMARKS,
};
