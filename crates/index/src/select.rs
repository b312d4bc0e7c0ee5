//! Landmark selection: the `k` highest-degree vertices.
//!
//! Every build labels the graph for `graph.top_k_by_degree(k)` —
//! descending degree, ties broken by ascending id — the choice of Farhan
//! et al. (EDBT 2019) and the labelling IncHL+ maintains. High-degree hubs
//! cover the most shortest paths on complex networks, so they give the
//! smallest labels: against greedy sampled-BFS coverage and a seeded
//! random sample, on a power-law and on a grid-with-chords graph, degree
//! rank had the fewest label entries, built fastest and answered as fast
//! or faster (`docs/ARCHITECTURE.md` has the numbers). A caller with a
//! landmark list of its own labels the graph for it through
//! [`HighwayCoverIndex::build_in`](crate::HighwayCoverIndex::build_in).

/// The landmark choice a build makes. There is one: degree rank.
///
/// The type outlives the alternatives it used to name only so that
/// [`BuildOptions::selection`](crate::BuildOptions::selection) and
/// `hcl-store`'s `BuildInfo::strategy` keep their shape for code written
/// against them; nothing reads either field.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SelectionStrategy {
    /// Descending degree, ties broken by ascending id.
    #[default]
    DegreeRank,
}

#[cfg(test)]
mod tests {
    use crate::{BuildOptions, HighwayCoverIndex};
    use hcl_core::testkit;

    #[test]
    fn degree_rank_matches_the_historical_ranking() {
        for (n, m, seed) in [(40, 2, 1), (64, 3, 9)] {
            let g = testkit::barabasi_albert(n, m, seed);
            for k in [0, 1, 5, n, n + 10] {
                let options = BuildOptions {
                    num_landmarks: k,
                    ..BuildOptions::default()
                };
                let idx = HighwayCoverIndex::build_with(&g, &options);
                assert_eq!(
                    idx.as_view().landmarks(),
                    &g.rank_by_degree()[..k.min(n)],
                    "k={k}"
                );
            }
        }
    }
}
