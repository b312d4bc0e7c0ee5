//! The correctness gate: answers against the BFS oracle, on the graph as
//! it stood when each answer was given. All of this runs after the
//! measured windows.

use crate::loadgen::{Read1, Write1, INF};
use hcl_core::bfs::{distance_with, BfsScratch};
use hcl_core::{DeltaGraph, EdgeDelta, Graph, VertexId};

/// An answer to verify, with the range of graph states it may reflect:
/// the base graph plus the first `lo_prefix ..= hi_prefix` acknowledged
/// inserts (in write order).
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub u: VertexId,
    pub v: VertexId,
    pub d: u32,
    /// Inserts certainly applied when the query was sent.
    pub lo_prefix: usize,
    /// Inserts possibly applied by the time the answer arrived.
    pub hi_prefix: usize,
}

/// Up to `want` evenly spaced elements of `items`.
pub fn evenly_spaced<T: Copy>(items: &[T], want: usize) -> Vec<T> {
    if items.len() <= want {
        return items.to_vec();
    }
    (0..want).map(|i| items[i * items.len() / want]).collect()
}

/// Turns reads into samples. Inserts only shrink distances, so a read is
/// right when `d(G + every write sent by the time the answer arrived) ≤
/// answer ≤ d(G + every write acknowledged when the query was sent)`.
/// `writes` must be in the order they were issued (one writer).
pub fn samples_from_reads(reads: &[Read1], writes: &[Write1]) -> Vec<Sample> {
    reads
        .iter()
        .map(|r| Sample {
            u: r.u,
            v: r.v,
            d: r.d,
            lo_prefix: writes
                .iter()
                .take_while(|w| w.acked_ns <= r.sent_ns)
                .count(),
            hi_prefix: writes.iter().take_while(|w| w.sent_ns <= r.recv_ns).count(),
        })
        .collect()
}

fn oracle(graph: &DeltaGraph<'_>, scratch: &mut BfsScratch, s: &Sample) -> u32 {
    distance_with(graph.as_dyn_view(), s.u, s.v, scratch).unwrap_or(INF)
}

/// Counts the samples whose answer is outside the allowed range.
/// `inserts` are the edges behind the samples' prefixes, in write order.
pub fn count_wrong(
    base: &Graph,
    inserts: &[(VertexId, VertexId)],
    samples: &[Sample],
    threads: usize,
) -> u64 {
    let chunk = samples.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|scope| {
        let workers: Vec<_> = samples
            .chunks(chunk)
            .map(|part| scope.spawn(move || count_wrong_serial(base, inserts, part)))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("oracle thread panicked"))
            .sum()
    })
}

fn count_wrong_serial(base: &Graph, inserts: &[(VertexId, VertexId)], samples: &[Sample]) -> u64 {
    // One overlay walked forward through the prefixes: bounds wanted at
    // prefix k are all evaluated before insert k is applied.
    let mut upper: Vec<(usize, usize)> = samples
        .iter()
        .enumerate()
        .map(|(i, s)| (s.lo_prefix, i))
        .collect();
    let mut lower: Vec<(usize, usize)> = samples
        .iter()
        .enumerate()
        .filter(|(_, s)| s.hi_prefix != s.lo_prefix)
        .map(|(i, s)| (s.hi_prefix, i))
        .collect();
    upper.sort_unstable();
    lower.sort_unstable();
    let mut ok = vec![true; samples.len()];
    let mut overlay = DeltaGraph::new(base.as_view());
    let mut scratch = BfsScratch::new();
    let (mut ui, mut li) = (0, 0);
    for applied in 0..=inserts.len() {
        while ui < upper.len() && upper[ui].0 == applied {
            let s = &samples[upper[ui].1];
            let at_most = oracle(&overlay, &mut scratch, s);
            // With no write in flight the range is a point.
            let exact = s.hi_prefix == s.lo_prefix;
            ok[upper[ui].1] &= s.d <= at_most && (!exact || s.d == at_most);
            ui += 1;
        }
        while li < lower.len() && lower[li].0 == applied {
            let s = &samples[lower[li].1];
            ok[lower[li].1] &= s.d >= oracle(&overlay, &mut scratch, s);
            li += 1;
        }
        if let Some(&(u, v)) = inserts.get(applied) {
            let _ = overlay.apply(EdgeDelta::insert(u, v));
        }
    }
    ok.iter().filter(|&&good| !good).count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcl_core::testkit;

    fn read(u: u32, v: u32, d: u32, sent_ns: u64, recv_ns: u64) -> Read1 {
        Read1 {
            sent_ns,
            recv_ns,
            u,
            v,
            d,
        }
    }

    fn write(u: u32, v: u32, sent_ns: u64, acked_ns: u64) -> Write1 {
        Write1 {
            u,
            v,
            due_ns: sent_ns,
            sent_ns,
            acked_ns,
            late_ns: 0,
            ok: true,
        }
    }

    #[test]
    fn reads_racing_a_write_may_see_either_side_of_it() {
        // Path 0-1-2-3-4-5; the write adds the chord 0-5 during 100..200.
        let base = testkit::path(6);
        let writes = [write(0, 5, 100, 200)];
        let inserts = [(0, 5)];
        let verdict = |r: Read1| {
            let samples = samples_from_reads(&[r], &writes);
            count_wrong(&base, &inserts, &samples, 2)
        };
        // Before the write was sent: only the old distance is right.
        assert_eq!(verdict(read(0, 5, 5, 10, 20)), 0);
        assert_eq!(verdict(read(0, 5, 1, 10, 20)), 1);
        // Overlapping the write: old or new, nothing else.
        assert_eq!(verdict(read(0, 5, 5, 120, 150)), 0);
        assert_eq!(verdict(read(0, 5, 1, 120, 150)), 0);
        assert_eq!(verdict(read(0, 5, 0, 120, 150)), 1);
        assert_eq!(verdict(read(0, 5, 6, 120, 150)), 1);
        // Sent after the acknowledgement: only the new distance.
        assert_eq!(verdict(read(0, 5, 1, 210, 220)), 0);
        assert_eq!(verdict(read(0, 5, 5, 210, 220)), 1);
        // Disconnected pairs answer inf.
        let two = testkit::disjoint_union(&testkit::path(2), &testkit::path(2));
        let s = samples_from_reads(&[read(0, 3, INF, 0, 1), read(0, 3, 7, 0, 1)], &[]);
        assert_eq!(count_wrong(&two, &[], &s, 1), 1);
    }

    #[test]
    fn sampling_is_even_and_bounded() {
        let items: Vec<u32> = (0..100).collect();
        assert_eq!(evenly_spaced(&items, 4), vec![0, 25, 50, 75]);
        assert_eq!(evenly_spaced(&items, 1000).len(), 100);
    }
}
