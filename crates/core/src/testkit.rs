//! Deterministic synthetic graph generators for property tests and benches.
//!
//! Every generator is seeded and pure, so a failing test case can always be
//! reproduced from its seed. Nothing here depends on external crates: the
//! RNG is a small SplitMix64, which is plenty for generating test topologies.

use crate::graph::{Graph, GraphBuilder, VertexId};

/// The canonical eleven-family degenerate-shape sweep shared by the
/// cross-crate property suites (oracle exactness, build determinism,
/// store round-trips, worker-pool byte-identity): empty and single-vertex
/// graphs, the deterministic families, dense and fragmented Erdős–Rényi,
/// power-law BA, a guaranteed-disconnected union, and trailing isolated
/// vertices. One definition, so growing the sweep grows every suite.
pub fn families() -> Vec<(String, Graph)> {
    let mut isolated = GraphBuilder::new();
    isolated.add_edge(0, 1).add_edge(1, 2).reserve_vertices(7);
    vec![
        ("empty".into(), GraphBuilder::new().build()),
        ("single".into(), path(1)),
        ("path(13)".into(), path(13)),
        ("cycle(9)".into(), cycle(9)),
        ("star(17)".into(), star(17)),
        ("grid(4x5)".into(), grid(4, 5)),
        ("er(40,0.08)".into(), erdos_renyi(40, 0.08, 3)),
        // Sparse ER: fragmented, exercises unreachable pairs.
        ("er(40,0.02)".into(), erdos_renyi(40, 0.02, 1)),
        ("ba(60,3)".into(), barabasi_albert(60, 3, 7)),
        ("grid⊎cycle".into(), disjoint_union(&grid(3, 3), &cycle(5))),
        ("path+isolated".into(), isolated.build()),
    ]
}

// The RNG itself lives in [`crate::rng`] — its output stream is frozen
// because the benchmark harness's seeded inputs depend on it too, which
// makes it more than test tooling. Re-exported here because every
// generator below is seeded with it.
pub use crate::rng::SplitMix64;

/// Simple path `0 - 1 - … - (n-1)`.
pub fn path(n: usize) -> Graph {
    let mut b = GraphBuilder::new();
    b.reserve_vertices(n);
    for v in 1..n {
        b.add_edge((v - 1) as VertexId, v as VertexId);
    }
    b.build()
}

/// Cycle over `n` vertices (`n >= 3` to be a proper cycle; smaller values
/// degrade gracefully into a path or a single edge).
pub fn cycle(n: usize) -> Graph {
    let mut b = GraphBuilder::new();
    b.reserve_vertices(n);
    for v in 1..n {
        b.add_edge((v - 1) as VertexId, v as VertexId);
    }
    if n > 2 {
        b.add_edge((n - 1) as VertexId, 0);
    }
    b.build()
}

/// Star with centre `0` and `n - 1` leaves — the extreme case for
/// degree-based landmark selection.
pub fn star(n: usize) -> Graph {
    let mut b = GraphBuilder::new();
    b.reserve_vertices(n);
    for v in 1..n {
        b.add_edge(0, v as VertexId);
    }
    b.build()
}

/// 4-connected `rows × cols` grid; vertex `(r, c)` has id `r * cols + c`.
pub fn grid(rows: usize, cols: usize) -> Graph {
    let mut b = GraphBuilder::new();
    b.reserve_vertices(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            let id = (r * cols + c) as VertexId;
            if c + 1 < cols {
                b.add_edge(id, id + 1);
            }
            if r + 1 < rows {
                b.add_edge(id, id + cols as VertexId);
            }
        }
    }
    b.build()
}

/// Erdős–Rényi `G(n, p)` random graph, deterministic in `seed`.
///
/// Frequently disconnected for small `p`, which is exactly what the
/// unreachability tests want.
pub fn erdos_renyi(n: usize, p: f64, seed: u64) -> Graph {
    let mut rng = SplitMix64::new(seed);
    let mut b = GraphBuilder::new();
    b.reserve_vertices(n);
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.next_f64() < p {
                b.add_edge(u as VertexId, v as VertexId);
            }
        }
    }
    b.build()
}

/// Seeded Barabási–Albert preferential-attachment graph — the power-law,
/// hub-dominated topology the highway-cover scheme actually targets.
///
/// Starts from a star on `min(m + 1, n)` vertices, then attaches each new
/// vertex to `m` *distinct* existing vertices sampled proportionally to
/// degree via the repeated-endpoints multiset trick (every endpoint of every
/// accepted edge is a draw ticket). Connected by construction, deterministic
/// in `seed`; `m` is clamped to at least 1.
pub fn barabasi_albert(n: usize, m: usize, seed: u64) -> Graph {
    let m = m.max(1);
    let mut rng = SplitMix64::new(seed);
    let mut b = GraphBuilder::new();
    b.reserve_vertices(n);
    let core = (m + 1).min(n);
    // Draw-ticket multiset: each accepted edge contributes both endpoints,
    // so a vertex's ticket count equals its degree.
    let mut tickets: Vec<VertexId> = Vec::with_capacity(2 * m * n.max(1));
    for v in 1..core {
        b.add_edge(0, v as VertexId);
        tickets.push(0);
        tickets.push(v as VertexId);
    }
    let mut chosen: Vec<VertexId> = Vec::with_capacity(m);
    for v in core..n {
        chosen.clear();
        // `v >= m + 1` existing vertices and the star core alone offers
        // `m + 1` distinct tickets, so `m` distinct draws always exist.
        while chosen.len() < m {
            let t = tickets[rng.next_below(tickets.len() as u64) as usize];
            if !chosen.contains(&t) {
                chosen.push(t);
            }
        }
        for &t in &chosen {
            b.add_edge(v as VertexId, t);
            tickets.push(v as VertexId);
            tickets.push(t);
        }
    }
    b.build()
}

/// A broom: a seeded [`barabasi_albert`] head on `core` vertices with a
/// path of `tail` more vertices (ids `core..core + tail`, in path order)
/// hanging off the head's last vertex. A search from the head sees a few
/// wide levels, then one vertex per level down the handle.
pub fn broom(core: usize, m: usize, tail: usize, seed: u64) -> Graph {
    let head = barabasi_albert(core, m, seed);
    let mut b = GraphBuilder::new();
    b.reserve_vertices(core + tail);
    for u in 0..core as VertexId {
        for &v in head.neighbors(u) {
            if u < v {
                b.add_edge(u, v);
            }
        }
    }
    for v in core.max(1)..core + tail {
        b.add_edge((v - 1) as VertexId, v as VertexId);
    }
    b.build()
}

/// `min(k, n)` distinct vertices of `0..n` in a seeded random order (a
/// partial Fisher–Yates shuffle) — a landmark list with no relation to
/// degree, for checking that the labelling is right for any landmark set.
pub fn random_vertices(n: usize, k: usize, seed: u64) -> Vec<VertexId> {
    let k = k.min(n);
    let mut rng = SplitMix64::new(seed);
    let mut perm: Vec<VertexId> = (0..n as VertexId).collect();
    for i in 0..k {
        let j = i + rng.next_below((n - i) as u64) as usize;
        perm.swap(i, j);
    }
    perm.truncate(k);
    perm
}

/// Disjoint union of two generated graphs: `b`'s vertex ids are shifted
/// past `a`'s. Guaranteed to contain cross-component (unreachable) pairs
/// whenever both inputs are non-empty.
pub fn disjoint_union(a: &Graph, b: &Graph) -> Graph {
    let shift = a.num_vertices() as VertexId;
    let mut builder = GraphBuilder::new();
    builder.reserve_vertices(a.num_vertices() + b.num_vertices());
    for g in [(a, 0), (b, shift)] {
        let (graph, offset) = g;
        for u in 0..graph.num_vertices() as VertexId {
            for &v in graph.neighbors(u) {
                if u < v {
                    builder.add_edge(u + offset, v + offset);
                }
            }
        }
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs;

    #[test]
    fn generators_have_expected_shape() {
        assert_eq!(path(5).num_edges(), 4);
        assert_eq!(cycle(5).num_edges(), 5);
        assert_eq!(star(5).num_edges(), 4);
        let g = grid(3, 4);
        assert_eq!(g.num_vertices(), 12);
        assert_eq!(g.num_edges(), 3 * 3 + 2 * 4);
        assert_eq!(bfs::distance(&g, 0, 11), Some(3 + 2));
    }

    #[test]
    fn erdos_renyi_is_seed_deterministic() {
        let a = erdos_renyi(40, 0.1, 7);
        let b = erdos_renyi(40, 0.1, 7);
        let c = erdos_renyi(40, 0.1, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn barabasi_albert_is_connected_and_hub_dominated() {
        let g = barabasi_albert(300, 3, 11);
        assert_eq!(g.num_vertices(), 300);
        // Connected by construction: every distance from 0 is finite.
        let dist = bfs::distances_from(&g, 0);
        assert!(dist.iter().all(|&d| d != crate::INFINITY));
        // Power-law skew: the biggest hub dwarfs the mean degree.
        let max_deg = (0..300).map(|v| g.degree(v)).max().unwrap();
        let avg_deg = 2.0 * g.num_edges() as f64 / 300.0;
        assert!(
            max_deg as f64 > 4.0 * avg_deg,
            "expected hub domination, max {max_deg} vs avg {avg_deg:.1}"
        );
        // Deterministic in the seed.
        assert_eq!(g, barabasi_albert(300, 3, 11));
        assert_ne!(g, barabasi_albert(300, 3, 12));
    }

    #[test]
    fn barabasi_albert_degenerate_sizes() {
        assert_eq!(barabasi_albert(0, 3, 1).num_vertices(), 0);
        assert_eq!(barabasi_albert(1, 3, 1).num_vertices(), 1);
        let tiny = barabasi_albert(3, 5, 1); // n smaller than m + 1: pure star
        assert_eq!(tiny.num_edges(), 2);
        assert_eq!(tiny.degree(0), 2);
    }

    #[test]
    fn broom_is_a_head_with_a_handle() {
        let g = broom(50, 3, 20, 5);
        assert_eq!(g.num_vertices(), 70);
        assert_eq!(g.num_edges(), barabasi_albert(50, 3, 5).num_edges() + 20);
        let dist = bfs::distances_from(&g, 49);
        assert_eq!(dist[69], 20);
        assert!(dist.iter().all(|&d| d != crate::INFINITY));
        assert_eq!(broom(0, 3, 4, 1), path(4));
    }

    #[test]
    fn families_cover_the_degenerate_shapes() {
        let fams = families();
        assert_eq!(fams.len(), 11);
        assert!(fams.iter().any(|(_, g)| g.num_vertices() == 0));
        assert!(fams.iter().any(|(_, g)| g.num_vertices() == 1));
        // At least one family with unreachable pairs and one with
        // trailing isolated vertices.
        assert!(fams.iter().any(|(n, g)| n == "grid⊎cycle"
            && bfs::distance(g, 0, g.num_vertices() as u32 - 1).is_none()));
        assert!(fams
            .iter()
            .any(|(n, g)| n == "path+isolated" && g.degree(6) == 0));
    }

    #[test]
    fn disjoint_union_separates_components() {
        let g = disjoint_union(&path(3), &cycle(4));
        assert_eq!(g.num_vertices(), 7);
        assert_eq!(bfs::distance(&g, 0, 2), Some(2));
        assert_eq!(bfs::distance(&g, 2, 3), None);
        assert_eq!(bfs::distance(&g, 3, 5), Some(2));
    }
}
