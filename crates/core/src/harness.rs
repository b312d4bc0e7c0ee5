//! Names only the benchmark harness (`bench/`) still uses, kept as thin
//! wrappers so it compiles unedited. Nothing in the workspace may name
//! them outside this file (`cargo xtask lint`, rule `harness-fence`);
//! ROADMAP 1(c) deletes the file whole.

use crate::{GraphView, PatchedGraph};
use std::sync::Arc;

/// [`PatchedGraph`] under its old name.
pub type DeltaGraph<'a> = PatchedGraph;

impl PatchedGraph {
    /// Copies `graph` (flat or patched) into a flat base with no edits:
    /// [`flat`](Self::flat) over an owned copy.
    pub fn new(graph: GraphView<'_>) -> Self {
        Self::flat(Arc::new(graph.to_owned_graph()))
    }

    /// [`as_view`](Self::as_view) under its old name.
    #[doc(hidden)]
    pub fn as_dyn_view(&self) -> GraphView<'_> {
        self.as_view()
    }
}
