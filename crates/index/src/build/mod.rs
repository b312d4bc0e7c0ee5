//! Index construction: the paper's order-independent highway cover
//! labelling, built by a bit-parallel multi-source BFS sweep.
//!
//! # The labelling
//!
//! For a landmark set `R`, vertex `v` holds the entry `(r, δ)` **iff**
//! `δ = d(r, v)` is finite and no *other* landmark lies on *any* shortest
//! `r`–`v` path (Farhan et al., EDBT 2019 — the labelling IncHL+
//! maintains). A landmark's label is therefore exactly its self entry
//! `(r, 0)`, and the highway holds `d(r_i, r_j)` for every pair. The
//! definition mentions no order among landmarks, so the labelling is a
//! function of the graph and the landmark *set* alone, it is minimal —
//! drop any entry and the landmark distance it carries can no longer be
//! read off the label — and its per-landmark searches are independent of
//! one another.
//!
//! # The sweep
//!
//! Whether `v` keeps an `r` entry is local in BFS order from `r`: it does
//! iff `v` is not a landmark and no shortest-path predecessor of `v` is
//! *covered* (is another landmark, or has a covered predecessor itself).
//! [`sweep`] evaluates that for 64 landmarks at once, one bit of a machine
//! word each, in one level-synchronous full BFS that also reads the
//! highway rows off directly — no closure pass — and lays the entries out
//! as the hub-sorted CSR by count, prefix-sum, fill; its module docs have
//! the details. Groups of 64 share no state, so
//! [`BuildOptions::threads`] shards *groups* over `std::thread::scope`
//! workers — at most one per 64 landmarks can ever have work — and the
//! output is **byte-identical at every thread count** by construction,
//! which `tests/parallel_build.rs` asserts across all testkit families.

mod sweep;

use crate::select::SelectionStrategy;
use crate::view::{IndexView, MAX_LANDMARKS};
use hcl_core::bfs::BfsScratch;
use hcl_core::{Graph, Rows, VertexId};
use std::time::Instant;

use sweep::label;
pub(crate) use sweep::TooFar;

/// Sentinel rank for vertices that are not landmarks.
pub(crate) const NOT_A_LANDMARK: u32 = u32::MAX;

/// Construction parameters for [`HighwayCoverIndex`].
#[derive(Clone, Copy, Debug)]
pub struct IndexConfig {
    /// Number of landmarks (highest-degree vertices), at most
    /// [`MAX_LANDMARKS`](crate::MAX_LANDMARKS). Clamped to the vertex
    /// count at build time. More landmarks shrink the fallback search at the
    /// cost of larger labels and a longer build.
    pub num_landmarks: usize,
}

impl Default for IndexConfig {
    fn default() -> Self {
        Self { num_landmarks: 16 }
    }
}

/// Full construction options: landmark count and worker threads.
///
/// [`IndexConfig`] stays the simple "how many landmarks" surface;
/// `BuildOptions` adds worker-thread control for
/// [`HighwayCoverIndex::build_with`]. Only the landmark count shapes the
/// output: the built index is byte-identical at every thread count (see
/// the module docs).
#[derive(Clone, Copy, Debug)]
pub struct BuildOptions {
    /// Number of landmarks, at most [`MAX_LANDMARKS`](crate::MAX_LANDMARKS);
    /// clamped to the vertex count at build time.
    pub num_landmarks: usize,
    /// Worker threads. `0` means auto: the `HCL_BUILD_THREADS` environment
    /// variable if set to a positive integer, otherwise `1` (the calling
    /// thread). Workers take whole sweep groups, so at most one per 64
    /// landmarks is ever started. The thread count never changes the
    /// output.
    pub threads: usize,
    /// Ignored. The batched builder this field configured is gone; it
    /// stays only so struct literals written against it keep compiling.
    pub batch_size: usize,
    /// Ignored: landmarks are always the top `num_landmarks` by degree.
    /// The field stays only so struct literals written against it keep
    /// compiling.
    pub selection: Option<SelectionStrategy>,
}

impl BuildOptions {
    /// The worker-thread count this configuration resolves to (see
    /// [`BuildOptions::threads`]).
    pub fn resolved_threads(&self) -> usize {
        if self.threads > 0 {
            return self.threads;
        }
        Self::threads_from_env(1)
    }

    /// Thread count requested via the `HCL_BUILD_THREADS` environment
    /// variable, or `fallback` when unset/invalid/zero.
    ///
    /// The single authority on the env var's semantics: the library's auto
    /// mode falls back to `1` (never surprise a host process with
    /// parallelism), while the CLI passes all available cores.
    pub fn threads_from_env(fallback: usize) -> usize {
        std::env::var("HCL_BUILD_THREADS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&t| t > 0)
            .unwrap_or(fallback)
    }

    /// Landmarks per sweep group — 64, whatever
    /// [`BuildOptions::batch_size`] says. This is the value containers
    /// record in the header's batch word.
    pub fn resolved_batch_size(&self) -> usize {
        sweep::WIDTH
    }

    /// [`SelectionStrategy::DegreeRank`], whatever
    /// [`BuildOptions::selection`] says.
    pub fn resolved_selection(&self) -> SelectionStrategy {
        SelectionStrategy::DegreeRank
    }
}

impl Default for BuildOptions {
    fn default() -> Self {
        Self {
            num_landmarks: IndexConfig::default().num_landmarks,
            threads: 0,
            batch_size: 0,
            selection: None,
        }
    }
}

impl From<IndexConfig> for BuildOptions {
    fn from(config: IndexConfig) -> Self {
        Self {
            num_landmarks: config.num_landmarks,
            ..Self::default()
        }
    }
}

/// Reusable scratch space for one build worker, mirroring
/// [`QueryContext`](crate::QueryContext) on the query side.
///
/// Holds the per-vertex words of the labelling sweep and the
/// [`BfsScratch`] the insert repair's find phase searches with. One
/// context serves any number of builds and repairs; create one per worker
/// thread. Callers that rebuild indexes repeatedly can hold a pool and
/// pass it to [`HighwayCoverIndex::build_in`].
#[derive(Default)]
pub struct BuildContext {
    pub(crate) scratch: BfsScratch,
    pub(crate) sweep: sweep::SweepScratch,
}

impl BuildContext {
    /// Creates an empty context; buffers grow lazily to the graph size.
    pub fn new() -> Self {
        Self::default()
    }

    /// The vertices the repair's BFS scratch has room for: 0 until the
    /// first repair sizes it to the graph, then kept for as long as the
    /// context is, so only the first repair pays the allocation.
    pub fn scratch_capacity(&self) -> usize {
        self.scratch.dist.capacity()
    }
}

/// `a + b` in distance arithmetic: saturating addition.
///
/// Because [`INFINITY`](hcl_core::INFINITY) is `u32::MAX`, saturation
/// doubles as absorption — anything plus unreachable stays unreachable, and
/// a sum that would wrap clamps to the sentinel instead of turning into a
/// small bogus "distance". Used wherever a label distance meets a highway
/// cell, where operands can sit near the sentinel when fed a hostile
/// (well-formed but semantically tampered) index file.
#[inline]
pub(crate) fn sat_add(a: u32, b: u32) -> u32 {
    a.saturating_add(b)
}

/// Per-build instrumentation: phase wall times and sweep counters,
/// produced by [`HighwayCoverIndex::build_with_stats`].
///
/// The counters (`bfs_visits`, `label_insertions`, `dominated`,
/// `landmark_labels`) are **thread-count-invariant**: they are pure
/// functions of the graph and the landmark set, exactly like the built
/// index itself — which is why they are safe to persist in the container
/// (`hcl-store` section kind 10) without breaking the build's
/// byte-identity guarantee. The wall times are, of course, per-run.
///
/// The time fields keep the names the batched builder gave them; what
/// they measure now is stated on each.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BuildStats {
    /// Wall time of landmark selection, in microseconds.
    pub selection_us: u64,
    /// Wall time of each sweep group (64 landmarks), in microseconds, in
    /// rank order. Groups overlap in time when built with several threads.
    pub batch_us: Vec<u64>,
    /// Always 0: sweep groups share no state, so nothing is merged.
    pub merge_us: u64,
    /// Wall time of laying the entries out as the hub-sorted CSR, in
    /// microseconds. (The highway needs no closure.)
    pub closure_us: u64,
    /// Whole-build wall time, in microseconds.
    pub total_us: u64,
    /// `(landmark, vertex)` pairs reached, roots included — the vertices
    /// the per-landmark BFSs would have dequeued between them.
    pub bfs_visits: u64,
    /// Label entries written (including each landmark's self entry).
    pub label_insertions: u64,
    /// Reached pairs that earned no entry because the vertex is another
    /// landmark or a shortest path to it passes through one:
    /// `bfs_visits − label_insertions`.
    pub dominated: u64,
    /// Label entries owned by each landmark, in rank order.
    pub landmark_labels: Vec<u64>,
}

impl BuildStats {
    /// Fraction of reached `(landmark, vertex)` pairs that another
    /// landmark covers, in `0..=1` (`0` when nothing was reached).
    pub fn domination_cut_rate(&self) -> f64 {
        if self.bfs_visits == 0 {
            0.0
        } else {
            self.dominated as f64 / self.bfs_visits as f64
        }
    }
}

/// Size and shape statistics of a built index, for logging and tuning.
#[derive(Clone, Copy, Debug)]
pub struct IndexStats {
    /// Number of landmarks actually used (≤ configured).
    pub num_landmarks: usize,
    /// Total `(hub, dist)` entries across all vertex labels.
    pub total_label_entries: usize,
    /// Mean label entries per vertex.
    pub avg_label_size: f64,
    /// Largest single vertex label.
    pub max_label_size: usize,
    /// Approximate flat footprint of the index arrays in bytes.
    pub bytes: usize,
}

/// A built highway-cover 2-hop labelling over one [`Graph`] — the owned,
/// `Vec`-backed storage of the index.
///
/// The index borrows nothing: it is a standalone snapshot that answers
/// queries together with the graph it was built from (the fallback BFS
/// needs adjacency). Label arrays are stored CSR-style in flat vectors with
/// fixed-width elements, so the layout matches `hcl-store`'s on-disk format
/// and a file can be served back as a borrowed
/// [`IndexView`](crate::IndexView) without copying. All read paths delegate
/// through [`HighwayCoverIndex::as_view`].
pub struct HighwayCoverIndex {
    /// Landmark rank → vertex id, in ranking order (rank 0 = highest degree).
    pub(crate) landmarks: Vec<VertexId>,
    /// Vertex id → landmark rank, or [`NOT_A_LANDMARK`]; length is the
    /// vertex count of the build graph.
    pub(crate) landmark_rank: Vec<u32>,
    /// CSR offsets into `label_entries`; length `n + 1`.
    pub(crate) label_offsets: Vec<u64>,
    /// Packed label entries ([`pack_label_entry`](crate::pack_label_entry)),
    /// hub-ascending within each vertex.
    pub(crate) label_entries: Vec<u32>,
    /// Row-major `k × k` exact landmark-to-landmark distances,
    /// [`INFINITY`](hcl_core::INFINITY) when disconnected.
    pub(crate) highway: Vec<u32>,
}

impl HighwayCoverIndex {
    /// Builds the index for `graph` with the given configuration: takes
    /// the `num_landmarks` highest-degree vertices as landmarks, then
    /// labels the graph for them (see the module docs for the labelling
    /// and the sweep that computes it).
    ///
    /// Thread count defaults to auto (`HCL_BUILD_THREADS` or the calling
    /// thread); use [`HighwayCoverIndex::build_with`] for explicit control.
    ///
    /// # Panics
    /// Panics, naming the limit, when asked for more than
    /// [`MAX_LANDMARKS`](crate::MAX_LANDMARKS) landmarks on a graph that
    /// has more vertices than that, or when a label entry would hold a
    /// distance above [`MAX_LABEL_DISTANCE`](crate::MAX_LABEL_DISTANCE)
    /// (possible only on graphs of more than 2^24 vertices); the same
    /// holds for every build entry point.
    pub fn build(graph: &Graph, config: IndexConfig) -> Self {
        Self::build_with(graph, &BuildOptions::from(config))
    }

    /// Builds the index with explicit thread control.
    ///
    /// The result is **byte-identical at every thread count**;
    /// `threads = 1` runs fully in the calling thread with one
    /// [`BuildContext`].
    pub fn build_with(graph: &Graph, options: &BuildOptions) -> Self {
        let landmarks = graph.top_k_by_degree(options.num_landmarks);
        Self::build_in(graph, &landmarks, &mut worker_contexts(options))
    }

    /// [`HighwayCoverIndex::build_with`] plus instrumentation: returns the
    /// index together with [`BuildStats`] (phase wall times, sweep
    /// counters, per-landmark label contributions), and streams one
    /// human-readable line per build event to `progress` when given (the
    /// CLI's `build --progress` prints them to stderr).
    ///
    /// Instrumentation never changes the output: the index is byte-
    /// identical to a [`build_with`](Self::build_with) run, and the stats
    /// counters are thread-count-invariant (see [`BuildStats`]).
    pub fn build_with_stats(
        graph: &Graph,
        options: &BuildOptions,
        mut progress: Option<&mut dyn FnMut(String)>,
    ) -> (Self, BuildStats) {
        let t = Instant::now();
        let landmarks = graph.top_k_by_degree(options.num_landmarks);
        let mut stats = BuildStats {
            selection_us: t.elapsed().as_micros() as u64,
            ..BuildStats::default()
        };
        if let Some(sink) = progress.as_mut() {
            sink(format!(
                "select: {} landmark(s) by degree in {} µs",
                landmarks.len(),
                stats.selection_us
            ));
        }
        let index = Self::build_observed(
            graph,
            &landmarks,
            &mut worker_contexts(options),
            &mut stats,
            progress,
        )
        .unwrap_or_else(|e| e.fail());
        (index, stats)
    }

    /// Labels `graph` for a caller-supplied landmark list, in rank order
    /// (rank 0 first), reusing caller-owned worker scratch. This is the
    /// one explicit-landmark entry point: a delete's relabel runs it over
    /// the edited graph's patched view, a repair that keeps its
    /// landmarks compares against it, and repeated builds amortise their
    /// allocations through it. `graph` is any [`Rows`] source; an owned
    /// `&Graph` is swept over its bare arrays.
    ///
    /// One worker runs per context, so `contexts.len()` is the thread
    /// count here, capped at the number of sweep groups (extra workers
    /// could never receive work). An empty slice builds in the calling
    /// thread with temporary scratch.
    ///
    /// # Panics
    /// Panics with a message naming the problem if `landmarks` has more
    /// entries than `graph` has vertices or than
    /// [`MAX_LANDMARKS`](crate::MAX_LANDMARKS), names a vertex out of
    /// range, or names one vertex twice, and with one naming the distance
    /// limit if a label entry would not fit its word (see
    /// [`build`](Self::build)).
    pub fn build_in<'g>(
        graph: impl Rows<'g, VertexId> + Send,
        landmarks: &[VertexId],
        contexts: &mut [BuildContext],
    ) -> Self {
        Self::relabel(graph, landmarks, contexts).unwrap_or_else(|e| e.fail())
    }

    /// [`build_in`](Self::build_in), but a label entry that would not fit
    /// its word is an error instead of a panic: the delete's relabel,
    /// which refuses the edit instead.
    pub(crate) fn relabel<'g>(
        graph: impl Rows<'g, VertexId> + Send,
        landmarks: &[VertexId],
        contexts: &mut [BuildContext],
    ) -> Result<Self, TooFar> {
        Self::build_observed(graph, landmarks, contexts, &mut BuildStats::default(), None)
    }

    /// The one real build path: every public entry point funnels here.
    /// `stats` is always populated apart from `selection_us`, which only
    /// [`build_with_stats`](Self::build_with_stats) measures (the
    /// un-instrumented entries hand in a throwaway — the bookkeeping is a
    /// handful of timestamps and counter folds per sweep *group*);
    /// `progress` streams per-phase lines when given. Fails, before the
    /// fill, when some label entry would not fit its word.
    fn build_observed<'g>(
        graph: impl Rows<'g, VertexId> + Send,
        landmarks: &[VertexId],
        contexts: &mut [BuildContext],
        stats: &mut BuildStats,
        mut progress: Option<&mut dyn FnMut(String)>,
    ) -> Result<Self, TooFar> {
        let t_total = Instant::now();
        let landmark_rank = rank_table(landmarks, graph.num_rows());
        let k = landmarks.len();
        // Contexts beyond the group count could never receive work; cap
        // the pool so no idle worker threads get spawned.
        let workers = contexts.len().min(k.div_ceil(sweep::WIDTH));
        let mut emit = |line: String| {
            if let Some(sink) = progress.as_mut() {
                sink(line);
            }
        };

        let swept = label(graph, landmarks, &landmark_rank, &mut contexts[..workers])?;
        for (number, group) in swept.groups.iter().enumerate() {
            stats.batch_us.push(group.us);
            stats.bfs_visits += group.arrivals;
            stats.label_insertions += group.entries;
            emit(format!(
                "sweep {}: landmarks {}..{} of {k} in {} µs (levels {}, {} dense, \
                 {} pulled, activations {}, entries {}, covered arrivals {})",
                number + 1,
                group.start,
                (group.start + sweep::WIDTH).min(k),
                group.us,
                group.levels,
                group.dense_levels,
                group.pulled_levels,
                group.activations,
                group.entries,
                group.arrivals - group.entries
            ));
        }
        stats.dominated = stats.bfs_visits - stats.label_insertions;
        stats.closure_us = swept.fill_us;
        stats.landmark_labels = swept.landmark_labels;
        emit(format!(
            "fill: {} label entries laid out in {} µs",
            stats.label_insertions, stats.closure_us
        ));
        stats.total_us = stats.selection_us + t_total.elapsed().as_micros() as u64;
        emit(format!(
            "build: done in {} µs ({:.1} % of arrivals covered)",
            stats.total_us,
            stats.domination_cut_rate() * 100.0
        ));
        Ok(HighwayCoverIndex {
            landmarks: landmarks.to_vec(),
            landmark_rank,
            label_offsets: swept.label_offsets,
            label_entries: swept.label_entries,
            highway: swept.highway,
        })
    }

    /// A borrowed, `Copy` view of this index. Cheap; this is the type the
    /// whole query engine is implemented on, shared with mmap-backed
    /// storage.
    pub fn as_view(&self) -> IndexView<'_> {
        IndexView::from_parts_unchecked(
            &self.landmarks,
            &self.landmark_rank,
            &self.label_offsets,
            &self.label_entries,
            &self.highway,
        )
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
    pub fn label(&self, v: VertexId) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.as_view().label(v)
    }

    /// Whether vertex `v` is a landmark.
    pub fn is_landmark(&self, v: VertexId) -> bool {
        self.as_view().is_landmark(v)
    }

    /// Size statistics for logging and tuning.
    pub fn stats(&self) -> IndexStats {
        self.as_view().stats()
    }
}

/// One fresh context per worker `options` asks for; the build itself
/// leaves idle the ones beyond its group count.
fn worker_contexts(options: &BuildOptions) -> Vec<BuildContext> {
    (0..options.resolved_threads())
        .map(|_| BuildContext::new())
        .collect()
}

/// The rank table of a landmark list: vertex id → rank, or
/// [`NOT_A_LANDMARK`]; `n` entries.
///
/// # Panics
/// Panics with a message naming the problem if the list has more than `n`
/// entries or more than [`MAX_LANDMARKS`], names a vertex `≥ n`, or names
/// one vertex twice — a bad list must fail the build loudly, not corrupt
/// the rank table.
fn rank_table(landmarks: &[VertexId], n: usize) -> Vec<u32> {
    assert!(
        landmarks.len() <= n,
        "landmark list has {} entries but the graph has only {n} vertices",
        landmarks.len()
    );
    assert!(
        landmarks.len() <= MAX_LANDMARKS,
        "landmark list has {} entries but a label entry holds at most {MAX_LANDMARKS} landmarks",
        landmarks.len()
    );
    let mut landmark_rank = vec![NOT_A_LANDMARK; n];
    for (rank, &v) in landmarks.iter().enumerate() {
        let slot = landmark_rank
            .get_mut(v as usize)
            .unwrap_or_else(|| panic!("landmark list names out-of-range vertex {v} (n = {n})"));
        assert!(
            *slot == NOT_A_LANDMARK,
            "landmark list names vertex {v} twice"
        );
        *slot = rank as u32;
    }
    landmark_rank
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcl_core::testkit;
    use hcl_core::INFINITY;

    #[test]
    fn star_landmark_is_the_centre() {
        let g = testkit::star(10);
        let idx = HighwayCoverIndex::build(&g, IndexConfig { num_landmarks: 1 });
        assert_eq!(idx.num_landmarks(), 1);
        assert!(idx.is_landmark(0));
        // Every leaf is labelled with the centre at distance 1.
        for leaf in 1..10 {
            assert_eq!(idx.label(leaf).collect::<Vec<_>>(), vec![(0, 1)]);
        }
    }

    #[test]
    fn landmark_count_clamps_to_vertex_count() {
        let g = testkit::path(3);
        let idx = HighwayCoverIndex::build(&g, IndexConfig { num_landmarks: 100 });
        assert_eq!(idx.num_landmarks(), 3);
    }

    #[test]
    fn labels_are_hub_sorted() {
        let g = testkit::erdos_renyi(60, 0.08, 3);
        let idx = HighwayCoverIndex::build(&g, IndexConfig { num_landmarks: 8 });
        for v in 0..60 {
            let hubs: Vec<u32> = idx.label(v).map(|(h, _)| h).collect();
            let mut sorted = hubs.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(hubs, sorted, "label of {v} not sorted/deduped");
        }
    }

    #[test]
    fn stats_report_plausible_sizes() {
        let g = testkit::grid(8, 8);
        let idx = HighwayCoverIndex::build(&g, IndexConfig::default());
        let s = idx.stats();
        assert_eq!(s.num_landmarks, 16);
        assert!(s.total_label_entries > 0);
        assert!(s.max_label_size <= 16);
        assert!(s.bytes > 0);
    }

    #[test]
    fn sat_add_is_saturating_and_infinity_absorbing() {
        assert_eq!(sat_add(2, 3), 5);
        assert_eq!(sat_add(INFINITY, 0), INFINITY);
        assert_eq!(sat_add(0, INFINITY), INFINITY);
        assert_eq!(sat_add(INFINITY, INFINITY), INFINITY);
        // Near-sentinel operands must clamp, never wrap to a small value.
        assert_eq!(sat_add(INFINITY - 1, 1), INFINITY);
        assert_eq!(sat_add(INFINITY - 1, INFINITY - 1), INFINITY);
        assert_eq!(sat_add(INFINITY - 5, 2), INFINITY - 3);
    }

    #[test]
    fn build_stats_counters_are_thread_invariant_and_consistent() {
        // 130 landmarks → 3 sweep groups, so 4 threads really run workers.
        let g = testkit::barabasi_albert(300, 3, 7);
        let opts = |threads| BuildOptions {
            num_landmarks: 130,
            threads,
            ..BuildOptions::default()
        };
        let mut lines = Vec::new();
        let mut sink = |l: String| lines.push(l);
        let (idx1, s1) = HighwayCoverIndex::build_with_stats(&g, &opts(1), Some(&mut sink));
        let (idx4, s4) = HighwayCoverIndex::build_with_stats(&g, &opts(4), None);

        // The counters are pure functions of (graph, landmark set) —
        // identical across thread counts, like the index itself.
        assert_eq!(s1.bfs_visits, s4.bfs_visits);
        assert_eq!(s1.label_insertions, s4.label_insertions);
        assert_eq!(s1.dominated, s4.dominated);
        assert_eq!(s1.landmark_labels, s4.landmark_labels);
        assert_eq!(idx1.label_entries, idx4.label_entries);

        // Internal consistency: insertions account for every label entry;
        // every search is a full BFS of a connected graph, and each
        // arrival is either an entry or covered.
        assert_eq!(s1.label_insertions, idx1.stats().total_label_entries as u64);
        assert_eq!(s1.landmark_labels.iter().sum::<u64>(), s1.label_insertions);
        assert_eq!(s1.bfs_visits, 130 * 300);
        assert_eq!(s1.bfs_visits, s1.label_insertions + s1.dominated);
        assert!(s1.domination_cut_rate() > 0.0 && s1.domination_cut_rate() < 1.0);
        for (rank, &entries) in s1.landmark_labels.iter().enumerate() {
            let held = (0..300).filter(|&v| idx1.label(v).any(|(h, _)| h as usize == rank));
            assert_eq!(entries, held.count() as u64, "landmark {rank}");
        }

        // One time per group, nothing merged.
        assert_eq!(s1.batch_us.len(), 3);
        assert_eq!(s1.merge_us, 0);

        // The progress sink saw every phase.
        for prefix in [
            "select: ",
            "sweep 1: landmarks 0..64 of 130 ",
            "sweep 3: landmarks 128..130 of 130 ",
            "fill: ",
            "build: done",
        ] {
            assert!(
                lines.iter().any(|l| l.starts_with(prefix)),
                "no `{prefix}` line"
            );
        }
    }

    #[test]
    fn build_options_resolve_explicit_values() {
        let explicit = BuildOptions {
            threads: 3,
            batch_size: 5,
            ..BuildOptions::default()
        };
        assert_eq!(explicit.resolved_threads(), 3);
        // The batch size is ignored: the sweep width is what is recorded.
        assert_eq!(explicit.resolved_batch_size(), 64);
        assert_eq!(BuildOptions::default().resolved_batch_size(), 64);
    }

    #[test]
    fn build_in_rejects_bad_landmark_lists() {
        let g = testkit::path(4);
        for (bad, what, names) in [
            (&[0, 1, 2, 3, 0][..], "too long", "5 entries"),
            (&[0, 9], "out of range", "out-of-range vertex 9"),
            (&[1, 1], "duplicate", "vertex 1 twice"),
        ] {
            let err = std::panic::catch_unwind(|| HighwayCoverIndex::build_in(&g, bad, &mut []))
                .map(|_| ())
                .expect_err(what);
            let msg = err
                .downcast_ref::<String>()
                .expect("panic message is a String");
            assert!(
                msg.starts_with("landmark list ") && msg.contains(names),
                "{what}: {msg}"
            );
        }
    }
}
