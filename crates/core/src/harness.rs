//! Names only the benchmark harness (`bench/`) still uses, kept as thin
//! wrappers so it compiles unedited. Nothing in the workspace may name
//! them outside this file (`cargo xtask lint`, rule `harness-fence`);
//! ROADMAP 1(c) deletes the file whole.

use crate::{GraphView, PatchedGraph};

/// [`PatchedGraph`] under its old name.
pub type DeltaGraph<'a> = PatchedGraph;

impl PatchedGraph {
    /// [`as_view`](Self::as_view) under its old name.
    #[doc(hidden)]
    pub fn as_dyn_view(&self) -> GraphView<'_> {
        self.as_view()
    }
}
