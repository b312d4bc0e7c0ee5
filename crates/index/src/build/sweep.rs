//! The bit-parallel multi-source sweep that computes the labelling, and
//! the count → prefix-sum → fill that lays it out as the hub-sorted CSR.
//!
//! One [`sweep_group`] call runs the searches of up to [`WIDTH`] landmarks
//! as a single level-synchronous traversal (the MS-BFS idea: one machine
//! word per vertex, one bit per source). Bit `b` of a vertex's words
//! belongs to the landmark of rank `start + b`:
//!
//! * `seen` — the searches that have reached the vertex, advanced only
//!   *between* levels;
//! * `frontier` — the searches that reached it at the level being expanded
//!   (after a pulled level it may keep older bits; see below);
//! * `next` — the searches reaching it at the level being assembled;
//! * `cov` — of the searches that have reached it, those for which some
//!   shortest path from the root passes through another landmark (the
//!   vertex itself included).
//!
//! Expanding an active vertex `x` with `f = frontier[x]` and
//! `c = cov[x] & f`, every neighbour `w` receives `new = f & !seen[w]`
//! into `next[w]` and `c & new` into `cov[w]`. Because `seen` does not move
//! during a level, *every* parent of `w` at the previous depth contributes
//! its covered bits, so after the level `cov[w]` says whether *any*
//! shortest path is covered — the paper's predicate, decided locally.
//! Closing the level, a landmark `w` records `depth` in the highway row of
//! every arriving search and marks them all covered (its own search, at
//! depth 0, excepted); then, landmark or not, the arriving bits outside
//! `cov[w]` are the label entries `(rank, depth)` of `w`.
//!
//! Covered bits keep propagating. Dropping them would let a vertex behind
//! a landmark be reached later by a longer landmark-free detour and be
//! labelled with a distance that is not the shortest; carrying them makes
//! every search a full BFS, which is also why the highway rows come out
//! exact with no closure pass.
//!
//! A level is expanded in one of two directions (Beamer, Asanović &
//! Patterson's direction-optimising BFS). A *push* does the above from
//! each active `x`. A *pull* visits, in vertex order, every `w` that some
//! search of the group has not reached, ORs the `frontier` bits and the
//! `frontier & cov` bits of its neighbours, and stops reading the row once
//! every bit `w` lacks has arrived covered; the lacking bits some neighbour
//! had become `next[w]`, the covered ones join `cov[w]`. A push reads the
//! frontier's rows; a pull reads the rows of the vertices some search has
//! not reached (`unsaturated` entries, kept as vertices fill up) plus one
//! cell per vertex, at about half the cost per entry. So a level is pulled
//! when `(unsaturated + n) / 2` is less than the frontier's row lengths:
//! a BA graph's wide middle levels, and never a path's. A pull leaves the
//! frontier in place: each of its bits is already in every neighbour's
//! `seen`, so no later level can take it again.
//!
//! Each level is closed and expanded in ascending vertex order, so the
//! cells, the adjacency rows and the fill's writes (it replays `emits`)
//! move forward through memory. A pull delivers its level in that order.
//! A pushed level with at least one vertex per word of the `arrived`
//! bitmap is marked in it and read back off it; a narrower one is sorted,
//! so a long path never pays `O(n / 64)` per level. Neither the order nor
//! the direction can reach the output: `next` and `cov` gather the same
//! unions either way, an entry's slot is a popcount rank, and a highway
//! cell is addressed by (bit, rank).

use super::{BuildContext, NOT_A_LANDMARK};
use crate::view::{pack_label_entry, try_pack_label_entry, MAX_LABEL_DISTANCE};
use hcl_core::{Rows, VertexId, INFINITY};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::ScopedJoinHandle;
use std::time::Instant;

/// Landmarks per sweep group: one bit of a `u64` each.
pub(crate) const WIDTH: usize = 64;

/// The four per-vertex words of one sweep (see the module docs), kept
/// together so an edge relaxation touches one cache line of scratch.
#[derive(Clone, Copy, Default)]
struct Cell {
    seen: u64,
    frontier: u64,
    next: u64,
    cov: u64,
}

/// Reusable sweep buffers: `O(n)` words, reset per group.
#[derive(Default)]
pub(crate) struct SweepScratch {
    cells: Vec<Cell>,
    /// Vertices with a non-zero `frontier`.
    active: Vec<VertexId>,
    /// Vertices with a non-zero `next`.
    arriving: Vec<VertexId>,
    /// One bit per vertex to put a dense level in order; zero otherwise.
    arrived: Vec<u64>,
}

/// The label entries one vertex gained at one level: `(start + b, depth)`
/// for every set bit `b`.
struct Emit {
    vertex: VertexId,
    depth: u32,
    bits: u64,
}

/// What the sweep of one landmark group produced.
pub(crate) struct GroupSweep {
    /// Rank of the group's first landmark (bit 0).
    pub(crate) start: usize,
    /// Per vertex, the group's searches that own a label entry there.
    labelled: Vec<u64>,
    /// Those entries, in level order.
    emits: Vec<Emit>,
    /// Exact highway rows of the group's landmarks, `len × k` row-major.
    highway_rows: Vec<u32>,
    /// BFS levels swept (the largest eccentricity in the group, plus one).
    pub(crate) levels: u32,
    /// Of those, the levels put in order from the `arrived` bitmap.
    pub(crate) dense_levels: u32,
    /// Of those, the levels expanded by pulling instead of pushing.
    pub(crate) pulled_levels: u32,
    /// `(vertex, level)` expansions — the adjacency lists read.
    pub(crate) activations: u64,
    /// `(landmark, vertex)` pairs reached, roots included.
    pub(crate) arrivals: u64,
    /// Label entries emitted, self entries included.
    pub(crate) entries: u64,
    /// Wall time of the sweep, in microseconds.
    pub(crate) us: u64,
}

/// The set bits of `mask`, ascending.
fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let bit = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            bit
        })
    })
}

/// Sweeps the group of landmarks starting at rank `start`.
fn sweep_group<'g>(
    graph: impl Rows<'g, VertexId>,
    landmarks: &[VertexId],
    landmark_rank: &[u32],
    start: usize,
    scratch: &mut SweepScratch,
) -> GroupSweep {
    let t = Instant::now();
    let (n, k) = (graph.num_rows(), landmarks.len());
    let group = &landmarks[start..(start + WIDTH).min(k)];
    let SweepScratch {
        cells,
        active,
        arriving,
        arrived,
    } = scratch;
    cells.clear();
    cells.resize(n, Cell::default());
    active.clear();
    arriving.clear();
    arrived.clear();
    arrived.resize(n.div_ceil(64), 0);
    let mut out = GroupSweep {
        start,
        labelled: Vec::new(),
        emits: Vec::new(),
        highway_rows: vec![INFINITY; group.len() * k],
        levels: 0,
        dense_levels: 0,
        pulled_levels: 0,
        activations: 0,
        arrivals: 0,
        entries: 0,
        us: 0,
    };

    for (bit, &root) in group.iter().enumerate() {
        cells[root as usize].next = 1 << bit;
        arriving.push(root);
    }
    let full = u64::MAX >> (WIDTH - group.len());
    // Adjacency entries of the vertices some search has not reached yet.
    let (mut unsaturated, mut max_degree) = (0, 0);
    for v in 0..n as VertexId {
        let degree = graph.row(v).len();
        unsaturated += degree;
        max_degree = max_degree.max(degree);
    }
    let mut pulled = false;
    let mut depth = 0u32;
    while !arriving.is_empty() {
        // Put level `depth` in vertex order, then close it: the bits in
        // `next` have arrived.
        if pulled {
            // A pull delivers its level in vertex order.
        } else if arriving.len() >= arrived.len() {
            for &w in arriving.iter() {
                arrived[w as usize / 64] |= 1 << (w % 64);
            }
            arriving.clear();
            for (at, word) in arrived.iter_mut().enumerate() {
                arriving.extend(bits(std::mem::take(word)).map(|b| (at * 64 + b) as VertexId));
            }
            out.dense_levels += 1;
        } else {
            arriving.sort_unstable();
        }
        for &w in arriving.iter() {
            let cell = &mut cells[w as usize];
            let new = std::mem::take(&mut cell.next);
            cell.seen |= new;
            if cell.seen == full {
                unsaturated -= graph.row(w).len();
            }
            cell.frontier = new;
            out.arrivals += u64::from(new.count_ones());
            let rank = landmark_rank[w as usize];
            if rank != NOT_A_LANDMARK {
                for bit in bits(new) {
                    out.highway_rows[bit * k + rank as usize] = depth;
                }
                let own = match (rank as usize).checked_sub(start) {
                    Some(bit) if bit < group.len() => 1u64 << bit,
                    _ => 0,
                };
                cell.cov |= new & !own;
            }
            let fresh = new & !cell.cov;
            if fresh != 0 {
                out.entries += u64::from(fresh.count_ones());
                out.emits.push(Emit {
                    vertex: w,
                    depth,
                    bits: fresh,
                });
            }
        }
        std::mem::swap(active, arriving);
        arriving.clear();
        out.activations += active.len() as u64;
        depth += 1;
        // Expand it into level `depth` from the side that reads less. A
        // level whose rows cannot add up to the pull's cost skips the sum.
        let pull_work = (unsaturated + n) / 2;
        pulled = active.len().saturating_mul(max_degree) > pull_work
            && pull_work < active.iter().map(|&x| graph.row(x).len()).sum();
        if pulled {
            out.pulled_levels += 1;
            for w in 0..n {
                let unseen = full & !cells[w].seen;
                if unseen == 0 {
                    continue;
                }
                let (mut f, mut c) = (0, 0);
                for &x in graph.row(w as VertexId) {
                    let cx = &cells[x as usize];
                    f |= cx.frontier;
                    c |= cx.frontier & cx.cov;
                    if c & unseen == unseen {
                        break;
                    }
                }
                let new = f & unseen;
                if new != 0 {
                    let cell = &mut cells[w];
                    cell.next = new;
                    cell.cov |= c & new;
                    arriving.push(w as VertexId);
                }
            }
        } else {
            for &x in active.iter() {
                let cell = &mut cells[x as usize];
                let f = std::mem::take(&mut cell.frontier);
                let c = cell.cov & f;
                for &w in graph.row(x) {
                    let cell = &mut cells[w as usize];
                    let new = f & !cell.seen;
                    if new != 0 {
                        if cell.next == 0 {
                            arriving.push(w);
                        }
                        cell.next |= new;
                        cell.cov |= c & new;
                    }
                }
            }
        }
    }
    out.levels = depth;
    // A search owns an entry exactly where it arrived uncovered; `cov` is
    // only ever written for arriving bits, so this is the union of `emits`.
    out.labelled = cells.iter().map(|c| c.seen & !c.cov).collect();
    out.us = t.elapsed().as_micros() as u64;
    out
}

/// A label entry its word cannot hold: `vertex` is `distance` hops from a
/// landmark it would be labelled with, past [`MAX_LABEL_DISTANCE`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct TooFar {
    pub(crate) vertex: VertexId,
    pub(crate) distance: u32,
}

impl TooFar {
    /// The build's failure: a panic naming the limit.
    pub(crate) fn fail(self) -> ! {
        panic!(
            "vertex {} is {} hops from a landmark it is labelled with, but a label entry \
             holds distances up to {MAX_LABEL_DISTANCE}",
            self.vertex, self.distance
        )
    }
}

/// A complete labelling for a fixed landmark set: the hub-sorted label
/// CSR, the exact highway, and the per-group reports it was assembled from.
pub(crate) struct Labelling {
    pub(crate) label_offsets: Vec<u64>,
    pub(crate) label_entries: Vec<u32>,
    pub(crate) highway: Vec<u32>,
    /// Label entries owned by each landmark, in rank order.
    pub(crate) landmark_labels: Vec<u64>,
    pub(crate) groups: Vec<GroupSweep>,
    /// Wall time of the CSR fill, in microseconds.
    pub(crate) fill_us: u64,
}

/// Labels `graph` for `landmarks` (rank order; `landmark_rank` is its
/// inverse): one sweep per group of [`WIDTH`], the groups sharded over one
/// worker per context, then the CSR fill. Fails before the fill if some
/// entry's distance does not fit its word.
///
/// Groups share nothing, and the fill visits them in rank order, so the
/// result does not depend on how many contexts there are or on how the
/// workers were scheduled.
pub(super) fn label<'g>(
    graph: impl Rows<'g, VertexId> + Send,
    landmarks: &[VertexId],
    landmark_rank: &[u32],
    contexts: &mut [BuildContext],
) -> Result<Labelling, TooFar> {
    let k = landmarks.len();
    let starts = (0..k).step_by(WIDTH);
    let groups: Vec<GroupSweep> = if contexts.len() > 1 {
        let cursor = AtomicUsize::new(0);
        let mut groups: Vec<GroupSweep> = std::thread::scope(|s| {
            let handles: Vec<_> = contexts
                .iter_mut()
                .map(|cx| {
                    let cursor = &cursor;
                    s.spawn(move || {
                        let mut out = Vec::new();
                        loop {
                            // Relaxed: the cursor only hands out group
                            // numbers; results travel through `join`.
                            let start = cursor.fetch_add(1, Ordering::Relaxed) * WIDTH;
                            if start >= k {
                                break out;
                            }
                            let scratch = &mut cx.sweep;
                            out.push(sweep_group(graph, landmarks, landmark_rank, start, scratch));
                        }
                    })
                })
                .collect();
            join_workers(handles).into_iter().flatten().collect()
        });
        groups.sort_unstable_by_key(|g| g.start);
        groups
    } else {
        let mut spare = SweepScratch::default();
        let scratch = contexts.first_mut().map_or(&mut spare, |cx| &mut cx.sweep);
        starts
            .map(|start| sweep_group(graph, landmarks, landmark_rank, start, scratch))
            .collect()
    };

    // A group emits in level order, so its last emit is its deepest entry:
    // if that fits its word, every entry does.
    for group in &groups {
        if let Some(emit) = group.emits.last() {
            let rank = (group.start + emit.bits.trailing_zeros() as usize) as u32;
            if try_pack_label_entry(rank, emit.depth).is_none() {
                return Err(TooFar {
                    vertex: emit.vertex,
                    distance: emit.depth,
                });
            }
        }
    }

    let t = Instant::now();
    let n = graph.num_rows();
    let mut label_offsets = Vec::with_capacity(n + 1);
    let mut total = 0u64;
    label_offsets.push(total);
    for v in 0..n {
        total += groups
            .iter()
            .map(|g| u64::from(g.labelled[v].count_ones()))
            .sum::<u64>();
        label_offsets.push(total);
    }
    let mut label_entries = vec![0u32; total as usize];
    let mut landmark_labels = vec![0u64; k];
    let mut highway = Vec::with_capacity(k * k);
    // Where each vertex's entries for the current group begin.
    let mut cursor = label_offsets[..n].to_vec();
    for group in &groups {
        for emit in &group.emits {
            let v = emit.vertex as usize;
            for bit in bits(emit.bits) {
                let below = group.labelled[v] & ((1u64 << bit) - 1);
                let slot = cursor[v] + u64::from(below.count_ones());
                let rank = group.start + bit;
                label_entries[slot as usize] = pack_label_entry(rank as u32, emit.depth);
                landmark_labels[rank] += 1;
            }
        }
        for (at, mask) in cursor.iter_mut().zip(&group.labelled) {
            *at += u64::from(mask.count_ones());
        }
        highway.extend_from_slice(&group.highway_rows);
    }
    Ok(Labelling {
        label_offsets,
        label_entries,
        highway,
        landmark_labels,
        groups,
        fill_us: t.elapsed().as_micros() as u64,
    })
}

/// Joins every handle, collecting the results; if any worker panicked,
/// re-raises **after all workers are joined** as one coherent build panic.
///
/// String-ish payloads (the overwhelmingly common case: `panic!`,
/// assertion failures, slice-index messages) are wrapped with build
/// context; anything else is re-raised verbatim via `resume_unwind` so
/// custom payloads still reach the caller. When several workers panic, the
/// first (by spawn order) wins — one build failure, one report.
fn join_workers<T>(handles: Vec<ScopedJoinHandle<'_, T>>) -> Vec<T> {
    let mut out = Vec::with_capacity(handles.len());
    let mut panicked: Option<Box<dyn std::any::Any + Send>> = None;
    for handle in handles {
        match handle.join() {
            Ok(value) => out.push(value),
            Err(payload) => {
                panicked.get_or_insert(payload);
            }
        }
    }
    if let Some(payload) = panicked {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned());
        match msg {
            Some(msg) => panic!("index build worker panicked: {msg}"),
            None => std::panic::resume_unwind(payload),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::{join_workers, label, GroupSweep, WIDTH};
    use crate::build::rank_table;
    use hcl_core::{bfs, testkit, Graph, PatchedGraph};

    /// Asserts that `group` expanded each vertex once per distinct distance
    /// from its roots — neither the order a level is put in nor the
    /// direction it is expanded in adds a vertex to it — and emitted in
    /// level order, each level in vertex order.
    fn assert_expands_each_distance_once(
        tag: &str,
        g: &Graph,
        landmarks: &[u32],
        group: &GroupSweep,
    ) {
        let roots = &landmarks[group.start..(group.start + WIDTH).min(landmarks.len())];
        let from: Vec<_> = roots.iter().map(|&r| bfs::distances_from(g, r)).collect();
        let expansions = (0..g.num_vertices()).map(|v| {
            let mut depths: Vec<u32> = from.iter().map(|d| d[v]).collect();
            depths.sort_unstable();
            depths.dedup();
            depths.len() as u64
        });
        assert_eq!(group.activations, expansions.sum::<u64>(), "{tag}");
        for pair in group.emits.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            assert!(
                a.depth < b.depth || (a.depth == b.depth && a.vertex < b.vertex),
                "{tag}: emit ({}, {}) before ({}, {})",
                a.vertex,
                a.depth,
                b.vertex,
                b.depth
            );
        }
    }

    #[test]
    fn a_broom_sweep_orders_levels_both_ways_and_emits_in_vertex_order() {
        // ⌈2500 / 64⌉ = 40: the head's wide pushed levels reach that many
        // vertices and are read off the bitmap; 16 roots and the handle's
        // one-vertex levels are sorted.
        let g = testkit::broom(1_000, 3, 1_500, 23);
        for k in [16, 65] {
            let landmarks = g.top_k_by_degree(k);
            let rank = rank_table(&landmarks, g.num_vertices());
            let swept = label(&g, &landmarks, &rank, &mut []).unwrap();
            for group in &swept.groups {
                let (dense, levels) = (group.dense_levels, group.levels);
                assert!(
                    0 < dense && dense < levels,
                    "k={k}: {dense} of {levels} dense"
                );
                assert_expands_each_distance_once(&format!("k={k}"), &g, &landmarks, group);
            }
        }
    }

    #[test]
    fn a_level_is_pulled_only_where_pulling_reads_less() {
        // A BA graph's middle levels own more adjacency than the vertices
        // still short of a search; a path's and a long grid's levels never
        // do. (On a square grid a full group's 64 frontiers can cover most
        // of it, and there pulling does read less.)
        for (name, g, pulls) in [
            ("ba", testkit::barabasi_albert(2_000, 5, 3), true),
            ("path", testkit::path(2_000), false),
            ("grid", testkit::grid(4, 500), false),
        ] {
            for k in [16, 65] {
                let landmarks = g.top_k_by_degree(k);
                let rank = rank_table(&landmarks, g.num_vertices());
                let swept = label(&g, &landmarks, &rank, &mut []).unwrap();
                for group in &swept.groups {
                    let tag = format!("{name} k={k} group {}", group.start);
                    let pulled = group.pulled_levels;
                    assert_eq!(pulled > 0, pulls, "{tag}: {pulled} pulled");
                    assert_expands_each_distance_once(&tag, &g, &landmarks, group);
                }
            }
        }
    }

    #[test]
    fn an_unedited_overlay_sweeps_like_its_bare_arrays() {
        // Same arrays, and the same push / pull and bitmap / sort choices
        // level by level: a delete's relabel over the overlay is a build.
        for g in [
            testkit::barabasi_albert(2_000, 5, 3),
            testkit::broom(1_000, 3, 1_500, 23),
            testkit::grid(4, 500),
        ] {
            let overlay = PatchedGraph::new(g.as_view());
            for k in [16, 65] {
                let landmarks = g.top_k_by_degree(k);
                let rank = rank_table(&landmarks, g.num_vertices());
                let bare = label(&g, &landmarks, &rank, &mut []).unwrap();
                let over = label(overlay.as_view(), &landmarks, &rank, &mut []).unwrap();
                assert_eq!(over.label_offsets, bare.label_offsets, "k={k}");
                assert_eq!(over.label_entries, bare.label_entries, "k={k}");
                assert_eq!(over.highway, bare.highway, "k={k}");
                assert_eq!(over.landmark_labels, bare.landmark_labels, "k={k}");
                let counters = |s: &GroupSweep| {
                    let levels = (s.levels, s.dense_levels, s.pulled_levels);
                    (s.start, levels, s.activations, s.arrivals, s.entries)
                };
                let over: Vec<_> = over.groups.iter().map(counters).collect();
                let bare: Vec<_> = bare.groups.iter().map(counters).collect();
                assert_eq!(over, bare, "k={k}");
            }
        }
    }

    #[test]
    fn worker_panics_reraise_as_one_coherent_build_panic() {
        // Quiet the panic banner for this *deliberate* panic only: a
        // filtering hook that delegates everything else to the previous
        // hook. Installed once and left in place — swapping the hook back
        // mid-run would race with concurrently failing tests in this
        // binary and could swallow their diagnostics.
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let msg = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
            if !msg.is_some_and(|m| m.contains("worker poisoned on purpose")) {
                previous(info);
            }
        }));
        let result = std::panic::catch_unwind(|| {
            std::thread::scope(|s| {
                let handles = (0..3)
                    .map(|i| {
                        s.spawn(move || {
                            if i == 1 {
                                panic!("worker poisoned on purpose");
                            }
                            i
                        })
                    })
                    .collect();
                join_workers(handles)
            })
        });

        let Err(payload) = result else {
            panic!("a panicked worker must fail the join");
        };
        let msg = payload
            .downcast_ref::<String>()
            .expect("re-raised build panic carries a String payload");
        assert_eq!(
            msg, "index build worker panicked: worker poisoned on purpose",
            "one build panic carrying the worker's payload"
        );
    }
}
