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
//! the details. Groups of 64 share no state, so the contexts handed to
//! [`HighwayCoverIndex::build`] shard *groups* over `std::thread::scope`
//! workers — at most one per 64 landmarks can ever have work — and the
//! output is **byte-identical at every thread count** by construction,
//! which `tests/parallel_build.rs` asserts across all testkit families.
//!
//! # The landmarks
//!
//! A build labels the graph for the landmark list it is given. `hcl`
//! passes `graph.top_k_by_degree(k)` — descending degree, ties broken by
//! ascending id — the choice of Farhan et al. (EDBT 2019) and the
//! labelling IncHL+ maintains. High-degree hubs cover the most shortest
//! paths on complex networks, so they give the smallest labels: against
//! greedy sampled-BFS coverage and a seeded random sample, on a power-law
//! and on a grid-with-chords graph, degree rank had the fewest label
//! entries, built fastest and answered as fast or faster
//! (`docs/ARCHITECTURE.md` has the numbers).

mod sweep;

use crate::view::{IndexView, MAX_LABEL_DISTANCE, MAX_LANDMARKS};
use hcl_core::bfs::BfsScratch;
use hcl_core::{Rows, VertexId};
use std::fmt;
use std::time::Instant;

use sweep::label;
pub(crate) use sweep::WIDTH;

/// Sentinel rank for vertices that are not landmarks.
pub(crate) const NOT_A_LANDMARK: u32 = u32::MAX;

/// Why [`HighwayCoverIndex::build`] labelled nothing: the landmark list is
/// not a list of distinct vertices of the graph that a label entry can
/// name, or some label entry's distance does not fit its word.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BuildError {
    /// The list has more entries than the graph has vertices.
    TooManyLandmarks {
        /// Entries in the list.
        landmarks: usize,
        /// The graph's vertex count.
        vertices: usize,
    },
    /// The list has more entries than a label entry's rank can name.
    LandmarkLimit {
        /// Entries in the list.
        landmarks: usize,
        /// [`MAX_LANDMARKS`](crate::MAX_LANDMARKS).
        limit: usize,
    },
    /// The list names a vertex the graph does not have.
    LandmarkOutOfRange {
        /// The vertex named.
        vertex: VertexId,
        /// The graph's vertex count.
        vertices: usize,
    },
    /// The list names one vertex twice.
    DuplicateLandmark {
        /// The vertex named twice.
        vertex: VertexId,
    },
    /// `vertex` is `distance` hops from a landmark it would be labelled
    /// with, more than a label entry holds (possible only on graphs of
    /// more than 2^24 vertices).
    DistanceLimit {
        /// The vertex whose label entry would not fit.
        vertex: VertexId,
        /// Its distance from that landmark.
        distance: u32,
        /// [`MAX_LABEL_DISTANCE`](crate::MAX_LABEL_DISTANCE).
        limit: u32,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            BuildError::TooManyLandmarks {
                landmarks,
                vertices,
            } => write!(
                f,
                "landmark list has {landmarks} entries but the graph has only {vertices} vertices"
            ),
            BuildError::LandmarkLimit { landmarks, limit } => write!(
                f,
                "landmark list has {landmarks} entries but a label entry holds at most \
                 {limit} landmarks"
            ),
            BuildError::LandmarkOutOfRange { vertex, vertices } => write!(
                f,
                "landmark list names out-of-range vertex {vertex} (n = {vertices})"
            ),
            BuildError::DuplicateLandmark { vertex } => {
                write!(f, "landmark list names vertex {vertex} twice")
            }
            BuildError::DistanceLimit {
                vertex,
                distance,
                limit,
            } => write!(
                f,
                "vertex {vertex} is {distance} hops from a landmark it is labelled with, but a \
                 label entry holds distances up to {limit}"
            ),
        }
    }
}

impl std::error::Error for BuildError {}

impl BuildError {
    /// The distance refusal for `vertex` at `distance`.
    pub(crate) fn too_far(vertex: VertexId, distance: u32) -> Self {
        BuildError::DistanceLimit {
            vertex,
            distance,
            limit: MAX_LABEL_DISTANCE,
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
/// pass it to [`HighwayCoverIndex::build`].
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

    /// The worker count the `HCL_BUILD_THREADS` environment variable asks
    /// for, if it is set to a positive integer. The one reader of the
    /// variable: a build given no contexts runs this many workers (else
    /// one, the calling thread), and `hcl` takes it as the `--threads`
    /// default (else every core).
    pub fn threads_from_env() -> Option<usize> {
        std::env::var("HCL_BUILD_THREADS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&t| t > 0)
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
/// returned by [`HighwayCoverIndex::build`].
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
    /// Wall time of landmark selection, in microseconds: 0 from
    /// [`HighwayCoverIndex::build`], which takes its landmarks as given;
    /// a caller that selects them records the time here.
    pub selection_us: u64,
    /// Wall time of each sweep group (64 landmarks), in microseconds, in
    /// rank order. Groups overlap in time when built with several threads.
    pub batch_us: Vec<u64>,
    /// Always 0: sweep groups share no state, so nothing is merged.
    pub merge_us: u64,
    /// Wall time of laying the entries out as the hub-sorted CSR, in
    /// microseconds. (The highway needs no closure.)
    pub closure_us: u64,
    /// Wall time of the labelling, sweeps and fill together, in
    /// microseconds.
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

/// A built highway-cover 2-hop labelling over one
/// [`Graph`](hcl_core::Graph) — the owned,
/// `Vec`-backed storage of the index.
///
/// The index borrows nothing: it is a standalone snapshot that answers
/// queries together with the graph it was built from (the fallback BFS
/// needs adjacency). Label arrays are stored CSR-style in flat vectors with
/// fixed-width elements, so the layout matches `hcl-store`'s on-disk format
/// and a file can be served back as a borrowed
/// [`IndexView`](crate::IndexView) without copying. Every read — queries,
/// labels, landmarks — goes through [`HighwayCoverIndex::as_view`].
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
    /// Labels `graph` for a landmark list, in rank order (rank 0 first),
    /// with one worker per context: the one way to build an index. `hcl
    /// build` passes the graph's `top_k_by_degree`; a delete's relabel
    /// runs it over the edited graph's patched view, and a repair that
    /// keeps its landmarks compares against it. `graph` is any [`Rows`]
    /// source; an owned `&Graph` is swept over its bare arrays. See the
    /// module docs for the labelling and the sweep that computes it.
    ///
    /// Workers take whole sweep groups of 64 landmarks, so contexts beyond
    /// the group count stay idle, and the result is **byte-identical at
    /// every context count**. An empty `contexts` slice is auto mode:
    /// [`BuildContext::threads_from_env`] fresh contexts, else the calling
    /// thread. Callers that build repeatedly amortise their allocations by
    /// passing the same contexts again.
    ///
    /// Returns the index with its [`BuildStats`] (phase wall times, sweep
    /// counters, per-landmark label contributions), and streams one
    /// human-readable line per build event to `progress` when given (the
    /// CLI's `build --progress` prints them to stderr). Instrumentation
    /// never changes the output.
    ///
    /// # Errors
    /// A [`BuildError`] naming the problem, before any sweep, if
    /// `landmarks` has more entries than `graph` has vertices or than
    /// [`MAX_LANDMARKS`](crate::MAX_LANDMARKS), names a vertex out of
    /// range, or names one vertex twice; and, before the fill, if a label
    /// entry would hold a distance above
    /// [`MAX_LABEL_DISTANCE`](crate::MAX_LABEL_DISTANCE) (possible only on
    /// graphs of more than 2^24 vertices).
    pub fn build<'g>(
        graph: impl Rows<'g, VertexId> + Send,
        landmarks: &[VertexId],
        contexts: &mut [BuildContext],
        mut progress: Option<&mut dyn FnMut(String)>,
    ) -> Result<(Self, BuildStats), BuildError> {
        let t_total = Instant::now();
        let landmark_rank = rank_table(landmarks, graph.num_rows())?;
        let k = landmarks.len();
        let mut auto = Vec::new();
        let contexts = if contexts.is_empty() {
            auto.resize_with(
                BuildContext::threads_from_env().unwrap_or(1),
                BuildContext::new,
            );
            &mut auto[..]
        } else {
            contexts
        };
        // Contexts beyond the group count could never receive work; cap
        // the pool so no idle worker threads get spawned.
        let workers = contexts.len().min(k.div_ceil(sweep::WIDTH));
        let mut emit = |line: String| {
            if let Some(sink) = progress.as_mut() {
                sink(line);
            }
        };

        let swept = label(graph, landmarks, &landmark_rank, &mut contexts[..workers])?;
        let mut stats = BuildStats::default();
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
        stats.total_us = t_total.elapsed().as_micros() as u64;
        emit(format!(
            "build: done in {} µs ({:.1} % of arrivals covered)",
            stats.total_us,
            stats.domination_cut_rate() * 100.0
        ));
        let index = HighwayCoverIndex {
            landmarks: landmarks.to_vec(),
            landmark_rank,
            label_offsets: swept.label_offsets,
            label_entries: swept.label_entries,
            highway: swept.highway,
        };
        Ok((index, stats))
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

    /// Size statistics for logging and tuning.
    pub fn stats(&self) -> IndexStats {
        self.as_view().stats()
    }
}

/// The rank table of a landmark list: vertex id → rank, or
/// [`NOT_A_LANDMARK`]; `n` entries. Fails, naming the problem, if the
/// list has more than `n` entries or more than [`MAX_LANDMARKS`], names a
/// vertex `≥ n`, or names one vertex twice — a bad list must fail the
/// build, not corrupt the rank table.
fn rank_table(landmarks: &[VertexId], n: usize) -> Result<Vec<u32>, BuildError> {
    if landmarks.len() > n {
        return Err(BuildError::TooManyLandmarks {
            landmarks: landmarks.len(),
            vertices: n,
        });
    }
    if landmarks.len() > MAX_LANDMARKS {
        return Err(BuildError::LandmarkLimit {
            landmarks: landmarks.len(),
            limit: MAX_LANDMARKS,
        });
    }
    let mut landmark_rank = vec![NOT_A_LANDMARK; n];
    for (rank, &vertex) in landmarks.iter().enumerate() {
        let slot =
            landmark_rank
                .get_mut(vertex as usize)
                .ok_or(BuildError::LandmarkOutOfRange {
                    vertex,
                    vertices: n,
                })?;
        if *slot != NOT_A_LANDMARK {
            return Err(BuildError::DuplicateLandmark { vertex });
        }
        *slot = rank as u32;
    }
    Ok(landmark_rank)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcl_core::testkit;
    use hcl_core::{Graph, INFINITY};

    impl HighwayCoverIndex {
        /// The top `k` by degree, labelled with the auto-mode contexts:
        /// what the crate's unit tests build.
        pub(crate) fn build_top_k(graph: &Graph, k: usize) -> Self {
            let landmarks = graph.top_k_by_degree(k);
            Self::build(graph, &landmarks, &mut [], None).unwrap().0
        }
    }

    #[test]
    fn star_landmark_is_the_centre() {
        let g = testkit::star(10);
        let idx = HighwayCoverIndex::build_top_k(&g, 1);
        assert_eq!(idx.as_view().num_landmarks(), 1);
        assert!(idx.as_view().is_landmark(0));
        // Every leaf is labelled with the centre at distance 1.
        for leaf in 1..10 {
            assert_eq!(idx.as_view().label(leaf).collect::<Vec<_>>(), vec![(0, 1)]);
        }
    }

    #[test]
    fn landmark_count_clamps_to_vertex_count() {
        let g = testkit::path(3);
        let idx = HighwayCoverIndex::build_top_k(&g, 100);
        assert_eq!(idx.as_view().num_landmarks(), 3);
    }

    #[test]
    fn labels_are_hub_sorted() {
        let g = testkit::erdos_renyi(60, 0.08, 3);
        let idx = HighwayCoverIndex::build_top_k(&g, 8);
        for v in 0..60 {
            let hubs: Vec<u32> = idx.as_view().label(v).map(|(h, _)| h).collect();
            let mut sorted = hubs.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(hubs, sorted, "label of {v} not sorted/deduped");
        }
    }

    #[test]
    fn stats_report_plausible_sizes() {
        let g = testkit::grid(8, 8);
        let idx = HighwayCoverIndex::build_top_k(&g, 16);
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
        let landmarks = g.top_k_by_degree(130);
        let mut contexts: Vec<BuildContext> = (0..4).map(|_| BuildContext::new()).collect();
        let mut lines = Vec::new();
        let mut sink = |l: String| lines.push(l);
        let (idx1, s1) =
            HighwayCoverIndex::build(&g, &landmarks, &mut contexts[..1], Some(&mut sink)).unwrap();
        let (idx4, s4) = HighwayCoverIndex::build(&g, &landmarks, &mut contexts, None).unwrap();

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
            let held =
                (0..300).filter(|&v| idx1.as_view().label(v).any(|(h, _)| h as usize == rank));
            assert_eq!(entries, held.count() as u64, "landmark {rank}");
        }

        // One time per group, nothing merged, no selection timed.
        assert_eq!(s1.batch_us.len(), 3);
        assert_eq!(s1.merge_us, 0);
        assert_eq!(s1.selection_us, 0);

        // The progress sink saw every phase.
        for prefix in [
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
    fn build_in_rejects_bad_landmark_lists() {
        let g = testkit::path(4);
        let wide = testkit::path(300);
        let over_limit: Vec<VertexId> = (0..257).collect();
        for (graph, bad, want, names) in [
            (
                &g,
                &[0, 1, 2, 3, 0][..],
                BuildError::TooManyLandmarks {
                    landmarks: 5,
                    vertices: 4,
                },
                "5 entries",
            ),
            (
                &wide,
                &over_limit,
                BuildError::LandmarkLimit {
                    landmarks: 257,
                    limit: 256,
                },
                "at most 256 landmarks",
            ),
            (
                &g,
                &[0, 9],
                BuildError::LandmarkOutOfRange {
                    vertex: 9,
                    vertices: 4,
                },
                "out-of-range vertex 9",
            ),
            (
                &g,
                &[1, 1],
                BuildError::DuplicateLandmark { vertex: 1 },
                "vertex 1 twice",
            ),
        ] {
            let got = HighwayCoverIndex::build(graph, bad, &mut [], None).map(|_| ());
            assert_eq!(got, Err(want), "{names}");
            let msg = want.to_string();
            assert!(
                msg.starts_with("landmark list ") && msg.contains(names),
                "{msg}"
            );
        }
    }
}
