//! Exhaustive small-scope sweep of the repair: every labelled graph on
//! n ≤ 4 vertices, every landmark list of every size in every order (rank
//! changes the labelling), and every single-edge insert and delete, plus
//! the ordered edit pairs insert/insert and insert/delete. Each case is
//! compared with [`HighwayCoverIndex::build`] over the same landmarks on
//! the edited graph:
//!
//! * the same highway;
//! * all-pairs answers equal to BFS;
//! * repaired ⊇ fresh: every fresh entry present at the same distance;
//! * a delete that relabelled — every single delete — byte-equal to the
//!   fresh build.
//!
//! The insert surplus (entries a fresh build would not hold) is pinned
//! exactly, cases and entries. It is the known gap of ROADMAP item 11
//! (repair byte-identical to a fresh build): the find admits only
//! `D < d_old`, and the repair prunes in one rank-ordered pass. The pins
//! make the gap visible; closing it drives them to 0. n = 5 with up to
//! three landmarks is `#[ignore]`d and runs in release only (CI's
//! optimised test step).

use hcl_core::{bfs, DeltaOp, EdgeDelta, Graph, GraphBuilder, PatchedGraph, VertexId, INFINITY};
use hcl_index::PatchedIndex;
use hcl_index::{BuildContext, HighwayCoverIndex, QueryContext};
use std::sync::Arc;

/// The vertex pairs `u < v` of `0..n`, in lexicographic order.
fn pairs(n: usize) -> Vec<(VertexId, VertexId)> {
    let n = n as VertexId;
    (0..n)
        .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
        .collect()
}

/// Every simple graph on the labelled vertices `0..n`: one per subset of
/// the vertex pairs.
fn graphs(n: usize) -> impl Iterator<Item = Graph> {
    let pairs = pairs(n);
    (0u32..1 << pairs.len()).map(move |mask| {
        let mut b = GraphBuilder::new();
        b.reserve_vertices(n);
        for (i, &(u, v)) in pairs.iter().enumerate() {
            if (mask >> i) & 1 == 1 {
                b.add_edge(u, v);
            }
        }
        b.build()
    })
}

/// Every list of at most `max_k` distinct vertices of `0..n`, in every
/// order, the empty list included.
fn landmark_lists(n: usize, max_k: usize) -> Vec<Vec<VertexId>> {
    let mut out = vec![Vec::new()];
    let mut frontier = vec![Vec::new()];
    for _ in 0..max_k.min(n) {
        let mut next = Vec::new();
        for list in &frontier {
            for v in 0..n as VertexId {
                if !list.contains(&v) {
                    let mut longer: Vec<VertexId> = list.clone();
                    longer.push(v);
                    next.push(longer);
                }
            }
        }
        out.extend(next.iter().cloned());
        frontier = next;
    }
    out
}

/// The edit that flips pair `(u, v)` of `graph`: delete it if present,
/// insert it otherwise.
fn flip(graph: &PatchedGraph, (u, v): (VertexId, VertexId)) -> EdgeDelta {
    if graph.has_edge(u, v) {
        EdgeDelta::delete(u, v)
    } else {
        EdgeDelta::insert(u, v)
    }
}

/// What a sweep checked, and the insert surplus it found.
#[derive(Debug, Default, PartialEq, Eq)]
struct Tally {
    /// Cases run (one built index, its edits, one fresh build).
    cases: usize,
    /// Cases ending on a delete that relabelled, or on a single delete
    /// (which leaves a fresh build's labels as they are when it does not
    /// relabel): each equals the fresh build byte for byte.
    deletes: usize,
    /// Cases ending on an insert.
    inserts: usize,
    /// Of those, cases whose repaired labels hold entries a fresh build
    /// does not.
    surplus_cases: usize,
    /// Those entries, over all such cases.
    surplus_entries: usize,
}

impl std::ops::AddAssign for Tally {
    fn add_assign(&mut self, part: Tally) {
        self.cases += part.cases;
        self.deletes += part.deletes;
        self.inserts += part.inserts;
        self.surplus_cases += part.surplus_cases;
        self.surplus_entries += part.surplus_entries;
    }
}

/// Shared per-sweep scratch.
struct Sweep {
    cx: BuildContext,
    qcx: QueryContext,
    tally: Tally,
}

impl Sweep {
    fn new() -> Self {
        Self {
            cx: BuildContext::new(),
            qcx: QueryContext::new(),
            tally: Tally::default(),
        }
    }

    /// Builds `graph`'s index over `landmarks`, applies `edits` one by one
    /// through the repair, and checks the result against a fresh build
    /// over the same landmarks on the edited graph.
    fn case(&mut self, graph: &Graph, landmarks: &[VertexId], edits: &[EdgeDelta]) {
        let what = || format!("{graph:?} landmarks {landmarks:?} edits {edits:?}");
        let built =
            HighwayCoverIndex::build(graph, landmarks, std::slice::from_mut(&mut self.cx), None)
                .unwrap()
                .0;
        let mut dynamic = PatchedIndex::flat(Arc::new(built));
        let mut overlay = PatchedGraph::flat(Arc::new(graph.clone()));
        let mut relabelled = false;
        for &edit in edits {
            let outcome = dynamic
                .apply_and_repair(&mut overlay, edit, &mut self.cx)
                .unwrap_or_else(|e| panic!("{}: {e}", what()));
            assert!(outcome.applied, "{}: {edit} was a no-op", what());
            relabelled = outcome.full_relabel;
        }
        let edited = overlay.to_graph();
        let fresh =
            HighwayCoverIndex::build(&edited, landmarks, std::slice::from_mut(&mut self.cx), None)
                .unwrap()
                .0;
        let repaired = dynamic.to_index();
        let (rv, fv) = (repaired.as_view(), fresh.as_view());
        assert_eq!(rv.highway(), fv.highway(), "{}: highway", what());

        let n = edited.num_vertices() as VertexId;
        for a in 0..n {
            let truth = bfs::distances_from(&edited, a);
            for b in 0..n {
                let want = Some(truth[b as usize]).filter(|&d| d != INFINITY);
                let got = rv.query_with(&edited, &mut self.qcx, a, b);
                assert_eq!(got, want, "{}: ({a}, {b})", what());
            }
        }

        let mut surplus = 0;
        for v in 0..n {
            let held: Vec<(u32, u32)> = repaired.as_view().label(v).collect();
            let want: Vec<(u32, u32)> = fresh.as_view().label(v).collect();
            for entry in &want {
                assert!(
                    held.contains(entry),
                    "{}: vertex {v} lacks fresh entry {entry:?} (holds {held:?})",
                    what()
                );
            }
            surplus += held.len() - want.len();
        }

        let tally = &mut self.tally;
        tally.cases += 1;
        match edits.last().map(|e| e.op) {
            Some(DeltaOp::Delete) if relabelled || edits.len() == 1 => {
                assert_eq!(rv.label_offsets(), fv.label_offsets(), "{}", what());
                assert_eq!(rv.label_entries(), fv.label_entries(), "{}", what());
                tally.deletes += 1;
            }
            Some(DeltaOp::Insert) => {
                tally.inserts += 1;
                tally.surplus_cases += usize::from(surplus > 0);
                tally.surplus_entries += surplus;
            }
            _ => {}
        }
    }
}

/// Every single-edge edit on every graph on `n` vertices, over every
/// landmark list of at most `max_k` entries.
fn single_edits(n: usize, max_k: usize) -> Tally {
    let mut sweep = Sweep::new();
    let lists = landmark_lists(n, max_k);
    for graph in graphs(n) {
        for landmarks in &lists {
            for pair in pairs(n) {
                let edit = flip(&PatchedGraph::flat(Arc::new(graph.clone())), pair);
                sweep.case(&graph, landmarks, &[edit]);
            }
        }
    }
    sweep.tally
}

#[test]
fn every_single_edit_on_four_vertices_matches_a_fresh_build() {
    let mut total = Tally::default();
    for n in 2..=4 {
        total += single_edits(n, n);
    }
    // The insert surplus is item 11's known gap, pinned as it stands.
    assert_eq!(
        total,
        Tally {
            cases: 25354,
            deletes: 12677,
            inserts: 12677,
            surplus_cases: 774,
            surplus_entries: 894,
        }
    );
}

/// Every ordered pair of edits starting with an insert — insert/insert
/// and insert/delete — on every graph on `n` vertices, over every
/// landmark list of at most `max_k` entries.
fn edit_pairs(n: usize, max_k: usize) -> Tally {
    let mut sweep = Sweep::new();
    let lists = landmark_lists(n, max_k);
    for graph in graphs(n) {
        let start = PatchedGraph::flat(Arc::new(graph.clone()));
        for first in pairs(n).into_iter().filter(|&(u, v)| !start.has_edge(u, v)) {
            let mut after = PatchedGraph::flat(Arc::new(graph.clone()));
            after.apply(EdgeDelta::insert(first.0, first.1)).unwrap();
            for second in pairs(n) {
                let edits = [EdgeDelta::insert(first.0, first.1), flip(&after, second)];
                for landmarks in &lists {
                    sweep.case(&graph, landmarks, &edits);
                }
            }
        }
    }
    sweep.tally
}

#[test]
fn every_insert_then_edit_pair_on_few_vertices_matches_a_fresh_build() {
    // Every landmark order at n ≤ 3; at n = 4, lists of up to two
    // landmarks (every order), which keeps the sweep near a second in a
    // debug build.
    let mut tally = Tally::default();
    for (n, max_k) in [(2, 2), (3, 3), (4, 2)] {
        tally += edit_pairs(n, max_k);
    }
    assert_eq!(
        tally,
        Tally {
            cases: 20165,
            deletes: 10168,
            inserts: 8352,
            surplus_cases: 1278,
            surplus_entries: 1494,
        }
    );
}

#[test]
#[ignore = "release only: 880 640 cases, run by CI's optimised test step"]
fn every_single_edit_on_five_vertices_with_up_to_three_landmarks_matches_a_fresh_build() {
    assert_eq!(
        single_edits(5, 3),
        Tally {
            cases: 880640,
            deletes: 440320,
            inserts: 440320,
            surplus_cases: 77640,
            surplus_entries: 96360,
        }
    );
}
