//! Seeded inputs. Everything the program under test sees — the edge list
//! on disk, the query pairs on stdin and sockets, the insert script — is a
//! pure function of `--seed`; the program itself never sees the seed.

use hcl_core::testkit::{barabasi_albert, SplitMix64};
use hcl_core::{Graph, VertexId};
use std::collections::HashSet;

/// Barabási–Albert attachment count for every workload graph.
pub const BA_M: usize = 5;

/// Length of the insert script. Workloads use a prefix, so raising how
/// many they use later keeps earlier runs' scripts a prefix of the new.
pub const SCRIPT_LEN: usize = 2000;

/// Independent sub-seeds for the separate input streams of one run.
fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut rng = SplitMix64::new(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    rng.next_u64()
}

const STREAM_GRAPH: u64 = 1;
const STREAM_SCRIPT: u64 = 2;
const STREAM_PAIRS: u64 = 16;

/// The workload graph for `seed`.
pub fn graph(seed: u64, vertices: usize) -> Graph {
    barabasi_albert(vertices, BA_M, sub_seed(seed, STREAM_GRAPH))
}

/// The undirected edges of `graph`, each once as `(low, high)`.
pub fn edges(graph: &Graph) -> Vec<(VertexId, VertexId)> {
    let mut out = Vec::with_capacity(graph.num_edges());
    for u in 0..graph.num_vertices() as VertexId {
        out.extend(
            graph
                .neighbors(u)
                .iter()
                .filter(|&&w| w > u)
                .map(|&w| (u, w)),
        );
    }
    out
}

fn push_u32(buf: &mut Vec<u8>, mut x: u32) {
    let mut digits = [0u8; 10];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (x % 10) as u8;
        x /= 10;
        if x == 0 {
            break;
        }
    }
    buf.extend_from_slice(&digits[i..]);
}

/// Appends `u v\n`.
pub fn push_pair_line(buf: &mut Vec<u8>, u: VertexId, v: VertexId) {
    push_u32(buf, u);
    buf.push(b' ');
    push_u32(buf, v);
    buf.push(b'\n');
}

/// `u v` lines: the edge-list file `hcl build` ingests and the pair
/// stream `hcl serve` reads on stdin.
pub fn pair_lines(pairs: &[(VertexId, VertexId)]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(pairs.len() * 14);
    for &(u, v) in pairs {
        push_pair_line(&mut buf, u, v);
    }
    buf
}

/// An endless seeded stream of uniform query pairs. Each connection (and
/// the stdin batch) draws from its own `stream` index, so adding a
/// connection never shifts another's queries.
pub struct PairStream {
    rng: SplitMix64,
    n: u64,
}

impl PairStream {
    pub fn new(seed: u64, vertices: usize, stream: u64) -> Self {
        Self {
            rng: SplitMix64::new(sub_seed(seed, STREAM_PAIRS + stream)),
            n: vertices as u64,
        }
    }
}

impl Iterator for PairStream {
    type Item = (VertexId, VertexId);

    fn next(&mut self) -> Option<Self::Item> {
        let u = self.rng.next_below(self.n) as VertexId;
        let v = self.rng.next_below(self.n) as VertexId;
        Some((u, v))
    }
}

/// A seeded script of `len` distinct edges absent from `graph` (no
/// self-loops), each as `(low, high)`: inserting them in order never
/// fails and never no-ops.
pub fn insert_script(graph: &Graph, seed: u64, len: usize) -> Vec<(VertexId, VertexId)> {
    let n = graph.num_vertices() as u64;
    let mut rng = SplitMix64::new(sub_seed(seed, STREAM_SCRIPT));
    let mut chosen = HashSet::with_capacity(len);
    let mut script = Vec::with_capacity(len);
    while script.len() < len {
        let a = rng.next_below(n) as VertexId;
        let b = rng.next_below(n) as VertexId;
        let (u, v) = (a.min(b), a.max(b));
        if u != v && !graph.has_edge(u, v) && chosen.insert((u, v)) {
            script.push((u, v));
        }
    }
    script
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        let make = |seed| {
            let g = graph(seed, 2000);
            let edge_list = pair_lines(&edges(&g));
            let queries: Vec<_> = PairStream::new(seed, 2000, 0).take(500).collect();
            let script = insert_script(&g, seed, 50);
            (edge_list, pair_lines(&queries), pair_lines(&script))
        };
        assert_eq!(make(7), make(7));
        let (a, b) = (make(7), make(8));
        assert_ne!(a.0, b.0);
        assert_ne!(a.1, b.1);
        assert_ne!(a.2, b.2);
    }

    #[test]
    fn script_edges_are_absent_distinct_and_a_prefix_of_longer_scripts() {
        let g = graph(3, 500);
        let long = insert_script(&g, 3, 200);
        let short = insert_script(&g, 3, 20);
        assert_eq!(&long[..20], &short[..]);
        let unique: HashSet<_> = long.iter().collect();
        assert_eq!(unique.len(), long.len());
        for &(u, v) in &long {
            assert!(u < v && !g.has_edge(u, v));
        }
    }

    #[test]
    fn streams_differ_per_connection_and_lines_are_plain_decimal() {
        let a: Vec<_> = PairStream::new(1, 100, 0).take(8).collect();
        let b: Vec<_> = PairStream::new(1, 100, 1).take(8).collect();
        assert_ne!(a, b);
        assert!(a.iter().all(|&(u, v)| u < 100 && v < 100));
        assert_eq!(
            pair_lines(&[(0, 4294967295), (12, 7)]),
            b"0 4294967295\n12 7\n"
        );
    }
}
