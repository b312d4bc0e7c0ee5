//! Query evaluation: label merge upper bound + landmark-avoiding
//! bounded bidirectional BFS.
//!
//! Everything here is implemented on [`IndexView`], the borrowed
//! label-storage abstraction, so the identical machine code serves an owned
//! [`HighwayCoverIndex`] and a memory-mapped `hcl-store` file. The owned
//! type's query methods are thin delegations through
//! [`HighwayCoverIndex::as_view`].
//!
//! A live-updated generation serves base arrays under copy-on-write
//! overlays of replacement adjacency and label rows. Whether a query needs
//! them is decided **once per query**: the merge and the residual BFS are
//! one body generic over where rows come from ([`Rows`]), run with
//! bare-array [`FlatRows`](hcl_core::FlatRows) when neither view is
//! patched — a static generation's machine code is the patch-free loop —
//! and with the patch-aware views (one chunk load and one bit test per row
//! fetch) otherwise.
//!
//! # Hot-path layout
//!
//! Labels are packed 4-byte words — the landmark rank over a 24-bit
//! distance ([`pack_label_entry`](crate::pack_label_entry)) — walked as
//! **one** array stream per endpoint (no parallel hub/dist pointers), so
//! a 64-byte line holds 16 entries. A 24-bit distance is never the
//! `INFINITY` sentinel and two of them sum far below `u64::MAX`, so the
//! merges and the highway pass read label distances unguarded; only a
//! highway cell can be `INFINITY` (two landmarks in different
//! components), so that is the one sentinel test. The common-hub join
//! switches from a linear merge to a **galloping merge** when the two
//! labels are badly skewed (one ≥ 8× the other), making the join
//! `O(small · log large)` instead of `O(small + large)`. A label holds at
//! most one entry per landmark, so no label is longer than `k` and the
//! skew is bounded by `k`: on a BA(200k, 5) container with k = 32, 1 210
//! of 20 000 random queries galloped (6.1 %). The highway
//! cross-product runs behind hoisted lower-bound checks (`d1 + min_dv`,
//! `d1 + d2`) so rows that cannot beat the current best never touch the
//! matrix.
//!
//! The residual BFS runs on *every* non-trivial query — also the ones the
//! labels answer, to prove no shorter landmark-free path exists — and its
//! time is close to linear in the edges it scans, so it does only what its
//! own termination rule can use:
//!
//! * **One byte per scanned edge.** Each vertex has one byte of scratch:
//!   bit 0 "reached forward", bit 1 "reached backward", bit 2 "is a
//!   landmark". A scanned edge reads that byte and nothing else; no
//!   distance is stored, because none is ever read (next bullet).
//! * **Every meet is the floor.** Let `floor = depth_fwd + depth_bwd + 1`
//!   as a level starts. Every landmark-free path of length `< floor` was
//!   detected by an earlier level (one of its edges was scanned from a side
//!   whose far end the other side had already reached), so no meet reads
//!   below `floor`. And a meet joins a vertex at this side's depth to one
//!   the other side reached at most `depth_other` away, so none reads above
//!   it either. The first meet is therefore exactly `floor`, and the
//!   search returns it mid-scan.
//! * **A write-free final level.** If `floor + 1 >= best` as a level
//!   starts, the next level's floor is already `>= best`: the loop cannot
//!   run again whatever this level finds, so nothing it would store is
//!   ever read. That level only looks for meets — one read of the other
//!   side's bit per scanned edge; no store, no queue push, no landmark
//!   test (a meet is valid at a landmark endpoint and impossible at any
//!   other landmark, which no side ever reaches). It is also where most
//!   scanned edges are: frontiers grow geometrically, so the last level
//!   outweighs the ones before it.
//!
//! # Observability
//!
//! Every phase is generic over a [`Probe`]: the public `query_with` entry
//! monomorphises with [`NoProbe`] (all hooks are empty inline defaults, so
//! the compiler erases them), while [`IndexView::query_probed`] accepts a
//! caller-supplied collector such as [`crate::QueryStats`] that records
//! which mechanism answered and how much work each phase did.

use crate::build::HighwayCoverIndex;
use crate::probe::Probe;
use crate::view::{entry_dist, entry_hub, hub_key, IndexView};
use hcl_core::{Graph, GraphView, NoProbe, Rows, VertexId, INFINITY};

const INF64: u64 = u64::MAX;

/// When one label is at least this many times longer than the other, the
/// common-hub join gallops through the long label instead of scanning it.
const GALLOP_RATIO: usize = 8;

/// [`QueryContext::reached`] bits: reached by the forward search (from
/// `u`), by the backward search (from `v`), and a landmark.
const FWD: u8 = 1;
const BWD: u8 = 2;
const LANDMARK: u8 = 4;

/// Reusable scratch space for queries.
///
/// A query needs one byte of per-vertex state and two queues; allocating
/// them per call would dominate the cost of cheap queries. Create one
/// context per thread (or per serving task) and pass it to
/// [`IndexView::query_with`]. The bytes are reset from the queues between
/// queries, so reuse is `O(visited)`, not `O(n)`. One context can be shared
/// across different indexes and backings; the bytes grow to the largest
/// graph seen, and their landmark bits are rewritten whenever the context
/// notices it is serving a different landmark set (an `O(k)` comparison
/// per query, an `O(k)` rewrite only on an actual switch).
#[derive(Default)]
pub struct QueryContext {
    /// Per-vertex [`FWD`] / [`BWD`] / [`LANDMARK`] bits. Between queries
    /// only the landmark bits are set, exactly for the landmark list in
    /// `landmark_key`.
    reached: Vec<u8>,
    /// Each side's reached vertices in BFS order, forward then backward;
    /// a side's frontier is the suffix from its current level's start.
    /// Empty between queries.
    queues: [Vec<VertexId>; 2],
    /// The landmark list the landmark bits describe.
    landmark_key: Vec<VertexId>,
}

impl QueryContext {
    /// Creates an empty context; buffers grow lazily to the graph size.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the scratch is in its between-queries state: no reached
    /// bit set, the landmark bits exactly `landmark_key`, queues empty.
    #[cfg(test)]
    fn is_clean(&self) -> bool {
        let mut want = vec![0u8; self.reached.len()];
        for &v in &self.landmark_key {
            want[v as usize] = LANDMARK;
        }
        self.reached == want && self.queues.iter().all(Vec::is_empty)
    }

    /// Sizes `reached` for `view` and makes its landmark bits describe
    /// exactly `view`'s landmark set.
    ///
    /// The cache key is the landmark list *by value*, so the check stays
    /// sound when a context hops between indexes, backings, or reallocated
    /// owned indexes — there is no pointer identity to go stale. The
    /// vertex count is no part of it: the bytes only grow, and a list's
    /// bits are the same over any count.
    fn prepare(&mut self, view: &IndexView<'_>) {
        let n = view.num_vertices();
        if self.reached.len() < n {
            self.reached.resize(n, 0);
        }
        if self.landmark_key == view.landmarks {
            return;
        }
        for &v in &self.landmark_key {
            self.reached[v as usize] &= !LANDMARK;
        }
        for &v in view.landmarks {
            self.reached[v as usize] |= LANDMARK;
        }
        self.landmark_key.clear();
        self.landmark_key.extend_from_slice(view.landmarks);
    }
}

impl HighwayCoverIndex {
    /// Exact distance between `u` and `v`, or `None` if disconnected.
    ///
    /// Convenience wrapper that allocates a **fresh [`QueryContext`] on
    /// every call** — the per-vertex reached bytes and the two search
    /// queues, which the first query then has to grow to the graph size.
    /// On a µs-scale query that allocation and warm-up is comparable to
    /// the query itself, so anything issuing
    /// more than a handful of queries (batch runs, serving loops,
    /// benchmarks) should hold one context per thread and call
    /// [`query_with`](Self::query_with) instead; the CLI's random-query,
    /// stdin, and worker-pool paths all do.
    ///
    /// # Panics
    /// Panics if `u` or `v` is out of range, or if `graph` has a different
    /// vertex count than the graph the index was built from. Passing a
    /// *different* graph with the same vertex count is not detected and
    /// yields meaningless answers — always query with the build graph.
    pub fn query(&self, graph: &Graph, u: VertexId, v: VertexId) -> Option<u32> {
        let mut ctx = QueryContext::new();
        self.as_view().query_with(graph, &mut ctx, u, v)
    }

    /// Exact distance between `u` and `v` reusing caller-owned scratch.
    /// See [`IndexView::query_with`] (to which this delegates) for the
    /// algorithm and panics.
    pub fn query_with(
        &self,
        graph: &Graph,
        ctx: &mut QueryContext,
        u: VertexId,
        v: VertexId,
    ) -> Option<u32> {
        self.as_view().query_with(graph, ctx, u, v)
    }

    /// [`query_with`](Self::query_with) with observation hooks. See
    /// [`IndexView::query_probed`].
    pub fn query_probed<P: Probe>(
        &self,
        graph: &Graph,
        ctx: &mut QueryContext,
        u: VertexId,
        v: VertexId,
        probe: &mut P,
    ) -> Option<u32> {
        self.as_view().query_probed(graph, ctx, u, v, probe)
    }
}

impl<'a> IndexView<'a> {
    /// Exact distance between `u` and `v`, or `None` if disconnected,
    /// reusing caller-owned scratch.
    ///
    /// Evaluation is the paper's two-phase scheme:
    ///
    /// 1. An upper bound from the labelling: the classic sorted 2-hop merge
    ///    over common hubs (galloping when the labels are skewed),
    ///    tightened by routing between *different* hubs across the highway
    ///    matrix. If any shortest `u`–`v` path touches a landmark, this
    ///    bound is already exact.
    /// 2. A bidirectional BFS that never expands through a landmark,
    ///    covering the only remaining case (a shortest path avoiding all
    ///    landmarks). The bound from phase 1 cuts the search off early.
    ///
    /// # Panics
    /// Panics if `u` or `v` is out of range, or if `graph` has a different
    /// vertex count than the graph the index was built from. Passing a
    /// *different* graph with the same vertex count is not detected and
    /// yields meaningless answers — always query with the build graph.
    pub fn query_with<'g>(
        &self,
        graph: impl Into<GraphView<'g>>,
        ctx: &mut QueryContext,
        u: VertexId,
        v: VertexId,
    ) -> Option<u32> {
        self.query_probed(graph, ctx, u, v, &mut NoProbe)
    }

    /// [`query_with`](Self::query_with) with observation hooks: `probe`
    /// sees each phase (merge, highway pass, residual BFS) as it runs.
    /// Pass `&mut` [`crate::QueryStats`] to collect a per-query work
    /// breakdown; monomorphised with [`NoProbe`] this is the plain query
    /// path. The answer is identical for every probe — probes observe,
    /// they never steer.
    ///
    /// # Panics
    /// Same contract as [`query_with`](Self::query_with).
    pub fn query_probed<'g, P: Probe>(
        &self,
        graph: impl Into<GraphView<'g>>,
        ctx: &mut QueryContext,
        u: VertexId,
        v: VertexId,
        probe: &mut P,
    ) -> Option<u32> {
        let graph = graph.into();
        let n = self.num_vertices();
        assert_eq!(
            graph.num_vertices(),
            n,
            "index was built for a different graph"
        );
        assert!((u as usize) < n && (v as usize) < n, "vertex out of range");
        probe.query_start();
        if u == v {
            probe.query_done(true, INF64, 0);
            return Some(0);
        }

        // Decided once per query: a static generation runs the bare-array
        // body, a patched one the patch-aware body.
        let (bound, best) = if graph.is_patched() || self.is_patched() {
            self.answer(*self, graph, ctx, u, v, probe)
        } else {
            self.answer(self.flat_label_rows(), graph.flat_rows(), ctx, u, v, probe)
        };
        probe.query_done(false, bound, best);
        if best == INF64 {
            None
        } else {
            Some(best as u32)
        }
    }

    /// Both phases of a non-trivial query, reading label rows from
    /// `labels` and adjacency rows from `adjacency`: `(label bound,
    /// answer)`, `u64::MAX` for none. Never inlined, so the flat and the
    /// patched body are each a function of their own, compiled apart.
    #[inline(never)]
    fn answer<'g, P: Probe>(
        &self,
        labels: impl Rows<'a, u32>,
        adjacency: impl Rows<'g, VertexId>,
        ctx: &mut QueryContext,
        u: VertexId,
        v: VertexId,
        probe: &mut P,
    ) -> (u64, u64) {
        let bound = self.label_upper_bound(labels.row(u), labels.row(v), probe);
        let best = self.residual_bfs(adjacency, ctx, u, v, bound, probe);
        (bound, best)
    }

    /// Upper bound on `d(u, v)` from the endpoints' labels `lu` / `lv` and
    /// the highway.
    ///
    /// Exact whenever some shortest `u`–`v` path passes through a landmark;
    /// `u64::MAX` when the labels certify nothing. Forced inline: with two
    /// [`answer`](Self::answer) bodies calling it the compiler outlines it,
    /// and the flat body a static generation runs measured a few percent
    /// slower with the call.
    #[inline(always)]
    fn label_upper_bound<P: Probe>(&self, lu: &[u32], lv: &[u32], probe: &mut P) -> u64 {
        // All sums below run in u64 so `u32`-sized operands cannot wrap.
        // Label distances are 24-bit, never the sentinel; a highway cell
        // at INFINITY certifies nothing and is skipped, since treating it
        // as a number would let a hostile (well-formed but tampered) index
        // manufacture near-overflow "distances".

        // Fast path: merge over common hubs (the classic 2-hop join).
        let mut best = common_hub_bound(lu, lv, probe);

        if lu.is_empty() || lv.is_empty() {
            return best;
        }

        // General case: route between distinct hubs over the highway,
        // hoisted behind lower-bound checks. The cheapest conceivable
        // highway route costs at least d1 + d2 (the matrix is
        // non-negative), so precomputing v's minimum label distance lets
        // whole rows — and often the whole cross-product — exit before a
        // single matrix load.
        let min_dv = lv.iter().map(|&e| entry_dist(e)).min().map_or(0, u64::from);
        let k = self.landmarks.len();
        for &eu in lu {
            let (h1, d1) = (entry_hub(eu) as usize, entry_dist(eu) as u64);
            if d1 + min_dv >= best {
                continue;
            }
            let row = &self.highway[h1 * k..(h1 + 1) * k];
            for &ev in lv {
                let h2 = entry_hub(ev) as usize;
                if h2 == h1 {
                    continue; // same hub was handled by the merge above
                }
                let base = d1 + entry_dist(ev) as u64;
                if base >= best {
                    continue;
                }
                let hw = row[h2];
                if hw == INFINITY {
                    continue;
                }
                let cand = base + hw as u64;
                if cand < best {
                    best = cand;
                    probe.highway_improved(best);
                }
            }
        }
        best
    }

    /// Shortest `u`–`v` distance over paths whose *interior* avoids every
    /// landmark, clipped to `bound`; returns `min(bound, that distance)`.
    ///
    /// Level-synchronous bidirectional BFS, always expanding the smaller
    /// frontier. Landmark vertices are never enqueued (endpoints are seeded
    /// directly, so a landmark endpoint still works); membership is the
    /// landmark bit of the vertex's reached byte. Meets are detected on
    /// edge scans before the landmark check, so a direct edge into the
    /// other frontier is never missed. The search does only the work its
    /// termination rule needs — its first meet is the answer, found
    /// mid-scan, and its final level writes nothing (module docs, "Hot-path
    /// layout"). The context is back in its between-queries state on
    /// return, whichever way the search ends.
    fn residual_bfs<'g, P: Probe>(
        &self,
        graph: impl Rows<'g, VertexId>,
        ctx: &mut QueryContext,
        u: VertexId,
        v: VertexId,
        bound: u64,
        probe: &mut P,
    ) -> u64 {
        let n = self.num_vertices();
        ctx.prepare(self);
        let reached = &mut ctx.reached[..n];
        let queues = &mut ctx.queues;
        reached[u as usize] |= FWD;
        reached[v as usize] |= BWD;
        queues[0].push(u);
        queues[1].push(v);

        let mut best = bound;
        let mut depth = [0u64; 2];
        let mut level_start = [0usize; 2];
        'search: loop {
            let width = [0, 1].map(|s| queues[s].len() - level_start[s]);
            if width[0] == 0 || width[1] == 0 {
                break;
            }
            // Every landmark-free path shorter than `floor` has already
            // been detected, and no meet can read above it.
            let floor = depth[0] + depth[1] + 1;
            if floor >= best {
                break;
            }
            let side = usize::from(width[0] > width[1]);
            let (mine, other) = if side == 0 { (FWD, BWD) } else { (BWD, FWD) };
            probe.bfs_level(width[side]);
            // Final level: the next floor is already `>= best`, so the loop
            // cannot run again whatever is found here — nothing this level
            // would store is ever read. Only look for meets.
            let last = floor + 1 >= best;
            let queue = &mut queues[side];
            let level_end = queue.len();
            for i in level_start[side]..level_end {
                let adj = graph.row(queue[i]);
                probe.bfs_node_expanded();
                probe.bfs_edges_scanned(adj.len());
                for &w in adj {
                    let bits = reached[w as usize];
                    if bits & other != 0 {
                        best = floor;
                        break 'search;
                    }
                    if !last && bits & (mine | LANDMARK) == 0 {
                        reached[w as usize] = bits | mine;
                        queue.push(w);
                    }
                }
            }
            if last {
                break;
            }
            depth[side] += 1;
            level_start[side] = level_end;
        }

        for queue in queues {
            for &x in queue.iter() {
                reached[x as usize] &= LANDMARK;
            }
            queue.clear();
        }
        best
    }
}

/// Minimum `dist(u, h) + dist(v, h)` over hubs `h` common to both labels;
/// `u64::MAX` when the labels share no usable hub.
///
/// Chooses between a linear two-pointer merge and a galloping merge by the
/// size ratio: on skewed pairs (leaf label vs. hub label) galloping turns
/// the join from `O(small + large)` into `O(small · log large)`.
fn common_hub_bound<P: Probe>(lu: &[u32], lv: &[u32], probe: &mut P) -> u64 {
    let (small, large) = if lu.len() <= lv.len() {
        (lu, lv)
    } else {
        (lv, lu)
    };
    if small.is_empty() {
        probe.merge_done(false, 0, INF64);
        return INF64;
    }
    if large.len() / small.len() >= GALLOP_RATIO {
        galloping_merge_bound(small, large, probe)
    } else {
        linear_merge_bound(small, large, probe)
    }
}

fn linear_merge_bound<P: Probe>(a: &[u32], b: &[u32], probe: &mut P) -> u64 {
    let mut best = INF64;
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (ha, hb) = (entry_hub(a[i]), entry_hub(b[j]));
        match ha.cmp(&hb) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                best = best.min(entry_dist(a[i]) as u64 + entry_dist(b[j]) as u64);
                i += 1;
                j += 1;
            }
        }
    }
    // Scanned = entry positions consumed on both sides — derived from the
    // two cursors the merge maintains anyway, so a no-op probe costs
    // nothing here.
    probe.merge_done(false, i + j, best);
    best
}

/// Merge for skewed sizes: for each entry of `small`, gallop (exponential
/// then binary search) through the remaining suffix of `large`. Entries
/// are hub-sorted, and hubs occupy the high bits, so hub comparisons are
/// plain `u32` comparisons on rank keys ([`hub_key`]).
fn galloping_merge_bound<P: Probe>(small: &[u32], large: &[u32], probe: &mut P) -> u64 {
    let mut best = INF64;
    let mut from = 0usize;
    // `used` counts small-side entries processed; together with `from`
    // (positions passed in `large`) it is the merge's scanned-entries
    // figure. Dead with a no-op probe, so the optimiser drops it.
    let mut used = 0usize;
    for &es in small {
        used += 1;
        let target = hub_key(es);
        // Exponential probe: find a window [from + step/2, from + step]
        // whose upper end is at or past the target hub.
        let mut step = 1usize;
        while from + step < large.len() && hub_key(large[from + step]) < target {
            step *= 2;
        }
        let lo = from + step / 2;
        let hi = (from + step + 1).min(large.len());
        // Binary search the window for the first entry at or past target.
        let idx = lo + large[lo..hi].partition_point(|&e| hub_key(e) < target);
        if idx >= large.len() {
            break; // every remaining hub of `large` is smaller — done
        }
        let el = large[idx];
        if hub_key(el) == target {
            best = best.min(entry_dist(es) as u64 + entry_dist(el) as u64);
            from = idx + 1;
        } else {
            from = idx;
        }
        if from >= large.len() {
            break;
        }
    }
    probe.merge_done(true, used + from, best);
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::{pack_label_entry, MAX_LABEL_DISTANCE};

    fn entries(pairs: &[(u32, u32)]) -> Vec<u32> {
        pairs.iter().map(|&(h, d)| pack_label_entry(h, d)).collect()
    }

    /// Reference implementation: brute-force minimum over common hubs.
    fn brute(a: &[u32], b: &[u32]) -> u64 {
        let mut best = INF64;
        for &ea in a {
            for &eb in b {
                if entry_hub(ea) == entry_hub(eb) {
                    best = best.min(entry_dist(ea) as u64 + entry_dist(eb) as u64);
                }
            }
        }
        best
    }

    #[test]
    fn merges_agree_with_brute_force_on_generated_labels() {
        let mut rng = hcl_core::testkit::SplitMix64::new(0xFACE);
        for trial in 0..200 {
            // Random strictly-ascending hub sets of very different sizes,
            // so both the linear and galloping paths are exercised.
            let mut make = |len: usize, hub_space: u64| {
                let mut hubs: Vec<u32> =
                    (0..len).map(|_| rng.next_below(hub_space) as u32).collect();
                hubs.sort_unstable();
                hubs.dedup();
                entries(
                    &hubs
                        .into_iter()
                        .map(|h| {
                            let d = rng.next_below(50) as u32;
                            // Sprinkle the largest distance in, too.
                            (h, if d == 49 { MAX_LABEL_DISTANCE } else { d })
                        })
                        .collect::<Vec<_>>(),
                )
            };
            let a = make(trial % 7, 40);
            let b = make(3 + (trial % 61), 40);
            let expected = brute(&a, &b);
            let p = &mut NoProbe;
            assert_eq!(common_hub_bound(&a, &b, p), expected, "trial {trial}");
            assert_eq!(
                common_hub_bound(&b, &a, p),
                expected,
                "trial {trial} swapped"
            );
            assert_eq!(
                linear_merge_bound(&a, &b, p),
                expected,
                "trial {trial} linear"
            );
            if !a.is_empty() {
                assert_eq!(
                    galloping_merge_bound(&a, &b, p),
                    expected,
                    "trial {trial} gallop"
                );
            }
        }
    }

    #[test]
    fn gallop_handles_boundary_shapes() {
        let p = &mut NoProbe;
        let empty: &[u32] = &[];
        let one = entries(&[(5, 2)]);
        let many = entries(&[(0, 1), (2, 9), (5, 3), (9, 0), (31, 7)]);
        assert_eq!(common_hub_bound(empty, &many, p), INF64);
        assert_eq!(common_hub_bound(&one, empty, p), INF64);
        assert_eq!(galloping_merge_bound(&one, &many, p), 5);
        // Target hub past the end of `large`.
        let high = entries(&[(40, 1)]);
        assert_eq!(galloping_merge_bound(&high, &many, p), INF64);
        // Target hub before the start of `large`.
        let low = entries(&[(0, 4)]);
        let tail = entries(&[(7, 1), (8, 2)]);
        assert_eq!(galloping_merge_bound(&low, &tail, p), INF64);
    }

    /// `g` without the edges that would put a landmark other than `keep`
    /// in a path's interior: the graph the residual BFS searches for the
    /// endpoint pair `keep`.
    fn without_landmark_interiors(g: &Graph, landmarks: &[VertexId], keep: &[VertexId]) -> Graph {
        let open = |x: VertexId| !landmarks.contains(&x) || keep.contains(&x);
        let mut b = hcl_core::GraphBuilder::new();
        b.reserve_vertices(g.num_vertices());
        for a in 0..g.num_vertices() as VertexId {
            for &c in g.neighbors(a) {
                if a < c && open(a) && open(c) {
                    b.add_edge(a, c);
                }
            }
        }
        b.build()
    }

    #[test]
    fn residual_bfs_returns_the_clipped_landmark_free_distance_and_a_clean_context() {
        use crate::{HighwayCoverIndex, IndexConfig};
        let mut graphs = hcl_core::testkit::families();
        graphs.push((
            "ba(150,2)".into(),
            hcl_core::testkit::barabasi_albert(150, 2, 11),
        ));
        // Deeper than a byte: the pure bidirectional case at k = 0.
        graphs.push(("path(260)".into(), hcl_core::testkit::path(260)));
        // One context across every graph size and landmark set.
        let mut ctx = QueryContext::new();
        let mut adjacent_landmark_pairs = 0;
        for (name, g) in &graphs {
            let n = g.num_vertices();
            let ks: &[usize] = if n > 200 { &[0] } else { &[0, 1, 4] };
            for &k in ks {
                let index = HighwayCoverIndex::build(g, IndexConfig { num_landmarks: k });
                let iv = index.as_view();
                let landmarks = iv.landmarks();
                for u in 0..n as VertexId {
                    let from_u = hcl_core::bfs::distances_from(
                        &without_landmark_interiors(g, landmarks, &[u]),
                        u,
                    );
                    for v in (0..n as VertexId).filter(|&v| v != u) {
                        let d = if landmarks.contains(&v) {
                            adjacent_landmark_pairs +=
                                usize::from(landmarks.contains(&u) && g.has_edge(u, v));
                            let open = without_landmark_interiors(g, landmarks, &[u, v]);
                            hcl_core::bfs::distance(&open, u, v).map_or(INF64, u64::from)
                        } else if from_u[v as usize] == INFINITY {
                            INF64
                        } else {
                            from_u[v as usize] as u64
                        };
                        for bound in [0, 1, d.saturating_sub(1), d, d.saturating_add(1), INF64] {
                            let got =
                                iv.residual_bfs(g.as_view(), &mut ctx, u, v, bound, &mut NoProbe);
                            assert_eq!(got, bound.min(d), "{name} k={k} ({u},{v}) bound={bound}");
                            assert!(ctx.is_clean(), "{name} k={k} ({u},{v}) bound={bound}");
                        }
                    }
                }
            }
        }
        assert!(adjacent_landmark_pairs > 0);
    }

    /// One context alternating query by query between indexes over the
    /// same vertex count but different landmark lists — k = 1, k = 4, and
    /// the k = 4 list reversed — keeps exactly the served index's landmark
    /// bits and answers every ordered pair, landmark endpoints included,
    /// like the BFS oracle.
    #[test]
    fn a_context_switching_landmark_lists_keeps_exact_landmark_bits() {
        use crate::HighwayCoverIndex;
        let g = hcl_core::testkit::barabasi_albert(60, 2, 5);
        let top = g.top_k_by_degree(4);
        let reversed: Vec<VertexId> = top.iter().rev().copied().collect();
        let indexes = [&top[..1], &top[..], &reversed[..]]
            .map(|landmarks| HighwayCoverIndex::build_in(&g, landmarks, &mut []));
        let mut ctx = QueryContext::new();
        let mut adjacent_landmark_pairs = 0;
        let n = g.num_vertices() as VertexId;
        for u in 0..n {
            let oracle = hcl_core::bfs::distances_from(&g, u);
            for v in 0..n {
                let want = Some(oracle[v as usize]).filter(|&d| d != INFINITY);
                adjacent_landmark_pairs +=
                    usize::from(top.contains(&u) && top.contains(&v) && g.has_edge(u, v));
                for (i, index) in indexes.iter().enumerate() {
                    let got = index.query_with(&g, &mut ctx, u, v);
                    assert_eq!(got, want, "index {i}: ({u}, {v})");
                    assert!(
                        ctx.is_clean(),
                        "index {i}: ({u}, {v}) left the context dirty"
                    );
                }
            }
        }
        assert!(adjacent_landmark_pairs > 0);
    }

    /// Checks one patched generation — `graph` / `dynamic` frozen — pair by
    /// pair against its splice and the BFS oracle, leaving `ctx` clean.
    /// Returns what the generation's overlays exercised: `[an emptied
    /// adjacency row, a patched landmark row, a pair with patched labels at
    /// both endpoints, a patched highway]`.
    fn assert_patched_generation_is_exact(
        base: &std::sync::Arc<Graph>,
        graph: &mut hcl_core::PatchedGraph,
        dynamic: &crate::PatchedIndex,
        ctx: &mut QueryContext,
        what: &str,
    ) -> [bool; 4] {
        // Publish the edits the way the update engine does: the overlays
        // cloned beside the shared bases.
        let frozen_graph = graph.clone();
        let frozen_index = dynamic.clone();
        let (gv, iv) = (frozen_graph.as_view(), frozen_index.as_view());
        let (flat_graph, flat_index) = (gv.to_owned_graph(), iv.to_owned_index());
        assert_eq!(flat_graph, graph.to_graph(), "{what}: graph splice");
        let spliced = dynamic.to_index();
        let fv = flat_index.as_view();
        assert_eq!(
            fv.label_offsets(),
            spliced.as_view().label_offsets(),
            "{what}"
        );
        assert_eq!(
            fv.label_entries(),
            spliced.as_view().label_entries(),
            "{what}"
        );
        assert_eq!(iv.highway(), spliced.as_view().highway(), "{what}: highway");

        let n = gv.num_vertices() as VertexId;
        let patched_label = |v: VertexId| iv.unpatched().packed_label(v) != iv.packed_label(v);
        let mut seen = [false; 4];
        for u in 0..n {
            seen[0] |= gv.degree(u) == 0 && base.degree(u) > 0;
            seen[1] |= iv.is_landmark(u) && gv.neighbors(u) != base.neighbors(u);
            let oracle = hcl_core::bfs::distances_from(&flat_graph, u);
            for v in 0..n {
                let want = Some(oracle[v as usize]).filter(|&d| d != INFINITY);
                let patched = iv.query_with(gv, ctx, u, v);
                assert!(ctx.is_clean(), "{what}: ({u}, {v}) left the context dirty");
                let flat = fv.query_with(&flat_graph, ctx, u, v);
                assert_eq!(patched, flat, "{what}: ({u}, {v}) patched vs spliced");
                assert_eq!(patched, want, "{what}: ({u}, {v}) vs the oracle");
                seen[2] |= u != v && patched_label(u) && patched_label(v);
            }
        }
        seen[3] |= iv.highway() != frozen_index.base().as_view().highway();
        seen
    }

    /// Batches of edits for one family: three pairs of inserts (every
    /// other one at a landmark), deletes that empty `emptied`'s adjacency
    /// one by one, then three more pairs of inserts.
    fn patching_script(
        base: &Graph,
        landmarks: &[VertexId],
        emptied: VertexId,
        seed: u64,
    ) -> Vec<Vec<hcl_core::EdgeDelta>> {
        use hcl_core::{EdgeDelta, PatchedGraph};
        let n = base.num_vertices() as u64;
        let mut rng = hcl_core::testkit::SplitMix64::new(seed);
        let mut graph = PatchedGraph::new(base.as_view());
        let mut inserts = |graph: &mut PatchedGraph| {
            let mut batch = Vec::new();
            while batch.len() < 2 {
                let u = if batch.is_empty() && !landmarks.is_empty() {
                    landmarks[rng.next_below(landmarks.len() as u64) as usize]
                } else {
                    rng.next_below(n) as VertexId
                };
                let v = rng.next_below(n) as VertexId;
                if u == v || u == emptied || v == emptied || graph.has_edge(u, v) {
                    continue;
                }
                graph.apply(EdgeDelta::insert(u, v)).unwrap();
                batch.push(EdgeDelta::insert(u, v));
            }
            batch
        };
        let mut script: Vec<_> = (0..3).map(|_| inserts(&mut graph)).collect();
        for &w in base.neighbors(emptied) {
            script.push(vec![EdgeDelta::delete(emptied, w)]);
        }
        script.extend((0..3).map(|_| inserts(&mut graph)));
        script
    }

    /// A live-updated generation — base arrays under frozen adjacency and
    /// label overlays and a patched highway — answers every pair exactly
    /// like its splice and the BFS oracle, over every testkit family and a
    /// script that patches landmark rows, empties adjacency rows and
    /// repairs labels at both ends of many pairs.
    #[test]
    fn patched_generations_answer_like_their_splice_and_the_oracle() {
        use crate::{BuildContext, HighwayCoverIndex, IndexConfig, PatchedIndex};
        let mut ctx = QueryContext::new();
        let mut cx = BuildContext::new();
        let mut covered = [false; 4];
        for (name, g) in hcl_core::testkit::families() {
            let n = g.num_vertices();
            if n < 3 {
                continue;
            }
            let base = std::sync::Arc::new(g);
            let index = HighwayCoverIndex::build(&base, IndexConfig { num_landmarks: 4 });
            let landmarks = index.as_view().landmarks().to_vec();
            // The row to empty: the busiest vertex that is not a landmark.
            let emptied = (0..n as VertexId)
                .filter(|v| !landmarks.contains(v))
                .max_by_key(|&v| base.degree(v))
                .unwrap();
            let mut dynamic = PatchedIndex::from_view(index.as_view());
            let mut graph = hcl_core::PatchedGraph::new(base.as_view());
            let script = patching_script(&base, &landmarks, emptied, 0x9A7C ^ n as u64);
            for (step, batch) in script.iter().enumerate() {
                for &delta in batch {
                    dynamic
                        .apply_and_repair(&mut graph, delta, &mut cx)
                        .unwrap();
                }
                let what = format!("{name}: step {step} ({batch:?})");
                let seen = assert_patched_generation_is_exact(
                    &base, &mut graph, &dynamic, &mut ctx, &what,
                );
                for (covered, seen) in covered.iter_mut().zip(seen) {
                    *covered |= seen;
                }
            }
        }
        assert_eq!(
            covered, [true; 4],
            "[emptied row, landmark row, both labels, highway]"
        );
    }

    #[test]
    fn probed_queries_match_plain_queries_and_classify() {
        use crate::probe::{AnswerSource, QueryStats};
        use crate::{HighwayCoverIndex, IndexConfig};
        for (name, g) in hcl_core::testkit::families() {
            for k in [0usize, 1, 4] {
                let index = HighwayCoverIndex::build(&g, IndexConfig { num_landmarks: k });
                let iv = index.as_view();
                let mut ctx = QueryContext::new();
                let mut stats = QueryStats::new();
                let n = g.num_vertices();
                let mut rng = hcl_core::testkit::SplitMix64::new(0xBEEF ^ k as u64);
                for _ in 0..(n * 2).min(200) {
                    let u = rng.next_below(n as u64) as VertexId;
                    let v = rng.next_below(n as u64) as VertexId;
                    let plain = iv.query_with(&g, &mut ctx, u, v);
                    let probed = iv.query_probed(&g, &mut ctx, u, v, &mut stats);
                    assert_eq!(plain, probed, "{name} k={k} ({u},{v})");
                    match stats.source {
                        AnswerSource::Trivial => assert_eq!(u, v),
                        AnswerSource::Disconnected => assert_eq!(plain, None),
                        AnswerSource::LabelHit | AnswerSource::HighwayBound => {
                            assert_eq!(plain.map(u64::from), Some(stats.label_bound));
                        }
                        AnswerSource::ResidualBfs => {
                            assert!(plain.is_some_and(|d| u64::from(d) < stats.label_bound));
                            assert!(stats.bfs_nodes_expanded > 0);
                        }
                    }
                }
            }
        }
    }
}
