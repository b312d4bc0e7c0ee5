//! The distance limit of a label entry, on whole graphs just past it. A
//! label entry keeps its distance in 24 bits, so no graph of at most 2^24
//! vertices can break it; these graphs have 2^24 + 1:
//!
//! * a path from its landmark end fails the build with
//!   `BuildError::DistanceLimit`, naming its far end and the limit;
//! * a path of 2^24 vertices (distances up to exactly the limit) plus an
//!   isolated vertex builds, and an insert that hangs the isolated vertex
//!   off the far end is refused with `DeltaError::DistanceLimit`;
//! * a cycle builds, and a delete that opens it at the landmark is refused
//!   the same way.
//!
//! A refused edit leaves the graph's edges and the labelling as they
//! were. Each graph needs several hundred MB, so the test is `#[ignore]`d
//! and runs in release only (CI's optimised test step).

use hcl_core::{DeltaError, EdgeDelta, Graph, PatchedGraph, VertexId};
use hcl_index::{
    BuildContext, BuildError, HighwayCoverIndex, PatchedIndex, QueryContext, MAX_LABEL_DISTANCE,
};
use std::sync::Arc;

/// Vertices in each graph: one more than a label entry's distances reach.
const N: VertexId = MAX_LABEL_DISTANCE + 2;

/// The path `0 – 1 – … – (len − 1)` on `n` vertices (the rest isolated),
/// closed into a cycle when `closed`.
fn path(len: VertexId, n: VertexId, closed: bool) -> Graph {
    let mut b = hcl_core::GraphBuilder::new();
    b.reserve_vertices(n as usize);
    for v in 1..len {
        b.add_edge(v - 1, v);
    }
    if closed {
        b.add_edge(0, len - 1);
    }
    b.build()
}

/// What `delta` does to `graph` labelled from vertex 0: it must be refused
/// for putting `vertex` at distance 2^24, with nothing changed.
fn assert_refused(graph: Graph, delta: EdgeDelta, vertex: VertexId) {
    let index = HighwayCoverIndex::build(&graph, &[0], &mut [], None)
        .unwrap()
        .0;
    let mut ctx = QueryContext::new();
    let before = index.as_view().query_with(&graph, &mut ctx, 0, vertex);
    let mut patched = PatchedIndex::flat(Arc::new(index));
    let graph = Arc::new(graph);
    let mut edited = PatchedGraph::flat(graph.clone());
    let had_edge = edited.has_edge(delta.u, delta.v);
    let got = patched.apply_and_repair(&mut edited, delta, &mut BuildContext::new());
    assert_eq!(
        got,
        Err(DeltaError::DistanceLimit {
            vertex,
            distance: MAX_LABEL_DISTANCE + 1,
            limit: MAX_LABEL_DISTANCE,
        }),
        "{delta}"
    );
    assert_eq!(edited.has_edge(delta.u, delta.v), had_edge, "{delta}");
    assert_eq!(edited.num_edges(), graph.num_edges(), "{delta}");
    assert_eq!(patched.patched_rows(), 0, "{delta}");
    let view = patched.as_view();
    assert_eq!(view.query_with(&*graph, &mut ctx, 0, vertex), before);
}

#[test]
#[ignore = "release only: graphs of 2^24 + 1 vertices, run by CI's optimised test step"]
fn distances_past_two_to_the_24_fail_the_build_and_are_refused_by_the_repair() {
    // A path from its landmark end: the far end is 2^24 hops out.
    let graph = path(N, N, false);
    let built = HighwayCoverIndex::build(&graph, &[0], &mut [], None).map(|_| ());
    drop(graph);
    assert_eq!(
        built,
        Err(BuildError::DistanceLimit {
            vertex: N - 1,
            distance: N - 1,
            limit: MAX_LABEL_DISTANCE,
        })
    );

    // Exactly at the limit builds; one hop past it is refused.
    assert_refused(
        path(N - 1, N, false),
        EdgeDelta::insert(N - 2, N - 1),
        N - 1,
    );
    // A cycle reaches half as far; opening it at the landmark doubles that.
    assert_refused(path(N, N, true), EdgeDelta::delete(0, N - 1), N - 1);
}
