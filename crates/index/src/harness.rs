//! Names only the benchmark harness (`bench/`) still uses, kept as thin
//! wrappers over [`HighwayCoverIndex::build`] so it compiles unedited.
//! Nothing in the workspace may name them outside this file (`cargo xtask
//! lint`, rule `harness-fence`); ROADMAP 1(c) deletes the file whole.

use crate::{BuildContext, BuildStats, HighwayCoverIndex, IndexView, PatchedIndex};
use hcl_core::Graph;
use std::sync::Arc;
use std::time::Instant;

/// The landmark choice a build makes. There is one: degree rank.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SelectionStrategy {
    /// Descending degree, ties broken by ascending id.
    #[default]
    DegreeRank,
}

/// The harness's build options: the top `num_landmarks` by degree,
/// labelled with `threads` workers (`0`: [`BuildContext::threads_from_env`],
/// else one). `batch_size` and `selection` are ignored.
#[derive(Clone, Copy, Debug)]
pub struct BuildOptions {
    /// Landmarks to select, clamped to the vertex count.
    pub num_landmarks: usize,
    /// Worker threads; `0` is auto.
    pub threads: usize,
    /// Ignored.
    pub batch_size: usize,
    /// Ignored.
    pub selection: Option<SelectionStrategy>,
}

impl BuildOptions {
    /// The worker count these options build with.
    pub fn resolved_threads(&self) -> usize {
        if self.threads > 0 {
            return self.threads;
        }
        BuildContext::threads_from_env().unwrap_or(1)
    }

    /// Landmarks per sweep group: 64, whatever `batch_size` says.
    pub fn resolved_batch_size(&self) -> usize {
        crate::build::WIDTH
    }

    /// [`SelectionStrategy::DegreeRank`], whatever `selection` says.
    pub fn resolved_selection(&self) -> SelectionStrategy {
        SelectionStrategy::DegreeRank
    }
}

impl HighwayCoverIndex {
    /// [`build_with_stats`](Self::build_with_stats) without the stats.
    pub fn build_with(graph: &Graph, options: &BuildOptions) -> Self {
        Self::build_with_stats(graph, options, None).0
    }

    /// Selects the top `options.num_landmarks` by degree, timed into
    /// [`BuildStats::selection_us`] and reported as a `select:` line, then
    /// runs [`build`](Self::build) with `options.resolved_threads()` fresh
    /// contexts.
    ///
    /// # Panics
    /// Panics with the [`BuildError`](crate::BuildError) message where
    /// `build` returns one.
    pub fn build_with_stats(
        graph: &Graph,
        options: &BuildOptions,
        mut progress: Option<&mut dyn FnMut(String)>,
    ) -> (Self, BuildStats) {
        let t = Instant::now();
        let landmarks = graph.top_k_by_degree(options.num_landmarks);
        let selection_us = t.elapsed().as_micros() as u64;
        if let Some(sink) = progress.as_mut() {
            sink(format!(
                "select: {} landmark(s) by degree in {selection_us} µs",
                landmarks.len()
            ));
        }
        let mut contexts: Vec<BuildContext> = (0..options.resolved_threads())
            .map(|_| BuildContext::new())
            .collect();
        let (index, mut stats) = Self::build(graph, &landmarks, &mut contexts, progress)
            .unwrap_or_else(|e| panic!("{e}"));
        stats.selection_us = selection_us;
        (index, stats)
    }
}

impl PatchedIndex {
    /// Copies a frozen index (owned or mapped) into editable form:
    /// [`flat`](Self::flat) over an owned copy.
    pub fn from_view(view: IndexView<'_>) -> Self {
        Self::flat(Arc::new(view.to_owned_index()))
    }
}

/// What `hcl_index::repair` re-exports.
pub mod in_repair {
    /// [`PatchedIndex`](crate::PatchedIndex) under its old name.
    pub type DynamicIndex = crate::PatchedIndex;
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcl_core::testkit;

    fn options(num_landmarks: usize, threads: usize, batch_size: usize) -> BuildOptions {
        BuildOptions {
            num_landmarks,
            threads,
            batch_size,
            selection: None,
        }
    }

    #[test]
    fn build_options_resolve_explicit_values() {
        let explicit = options(16, 3, 5);
        assert_eq!(explicit.resolved_threads(), 3);
        // The batch size is ignored: the sweep width is what is recorded.
        assert_eq!(explicit.resolved_batch_size(), 64);
        assert_eq!(options(16, 0, 0).resolved_batch_size(), 64);
        assert_eq!(explicit.resolved_selection(), SelectionStrategy::DegreeRank);
    }

    #[test]
    fn degree_rank_matches_the_historical_ranking() {
        for (n, m, seed) in [(40, 2, 1), (64, 3, 9)] {
            let g = testkit::barabasi_albert(n, m, seed);
            for k in [0, 1, 5, n, n + 10] {
                let mut lines = Vec::new();
                let mut sink = |l: String| lines.push(l);
                let (idx, _) =
                    HighwayCoverIndex::build_with_stats(&g, &options(k, 0, 0), Some(&mut sink));
                assert_eq!(
                    idx.as_view().landmarks(),
                    &g.rank_by_degree()[..k.min(n)],
                    "k={k}"
                );
                let select = format!("select: {} landmark(s) by degree in ", k.min(n));
                assert!(lines[0].starts_with(&select), "k={k}: {lines:?}");
            }
        }
    }
}
