//! Algorithm 2: PHCD — parallel HCD construction.

use hcd_decomp::CoreDecomposition;
use hcd_graph::{CsrGraph, VertexId};
use hcd_par::{Executor, ParError};

use crate::forest::{self, Links};
use crate::index::Hcd;
use crate::rank::VertexRanks;

/// PHCD (paper Algorithm 2): builds the HCD bottom-up by adding k-shells
/// in descending `k`, maintaining connectivity and per-component *pivots*
/// in a concurrent union-find.
///
/// Per level `k` the four steps of the paper run as parallel regions over
/// the k-shell, separated by barriers:
///
/// 1. record the pivots of the existing k'-core components (`k' > k`)
///    adjacent to the shell — these are the tree nodes that will need a
///    parent at this level;
/// 2. union every shell vertex with its neighbors of coreness `>= k`;
/// 3. group shell vertices into new tree nodes by their component pivot
///    (the pivot of a freshly formed k-core is always in the k-shell,
///    so it uniquely names the new node);
/// 4. for every pivot recorded in step 1, its node's parent is the node
///    of its component's *current* pivot.
///
/// Work is `O(m·α(n))` union-find operations plus `O(n)` bookkeeping —
/// near-linear. Runs under any [`Executor`] mode;
/// `Executor::sequential()` is the serial PHCD variant the paper
/// compares against LCPS in Table III.
///
/// The steps run in the [`forest`] kernel, over vertex ranks with
/// adjacency as the links; the truss hierarchy shares that kernel.
/// Output is deterministic across modes: node ids are assigned per level
/// in pivot-rank order and vertex lists are sorted at the end.
pub fn phcd(g: &CsrGraph, cores: &CoreDecomposition, exec: &Executor) -> Hcd {
    match try_phcd(g, cores, exec) {
        Ok(hcd) => hcd,
        Err(e) => e.raise(),
    }
}

/// Fallible version of [`phcd`]: returns `Err` if any region panics, is
/// cancelled, or exceeds the executor's deadline. On `Err` no partial
/// index escapes and the executor stays usable (see `hcd_par` failure
/// model).
pub fn try_phcd(g: &CsrGraph, cores: &CoreDecomposition, exec: &Executor) -> Result<Hcd, ParError> {
    let ranks = VertexRanks::try_compute(cores, exec)?;
    try_phcd_with_ranks(g, cores, &ranks, exec)
}

/// PHCD with a precomputed rank order (lets benchmarks separate the
/// Algorithm 1 cost).
pub fn phcd_with_ranks(
    g: &CsrGraph,
    cores: &CoreDecomposition,
    ranks: &VertexRanks,
    exec: &Executor,
) -> Hcd {
    match try_phcd_with_ranks(g, cores, ranks, exec) {
        Ok(hcd) => hcd,
        Err(e) => e.raise(),
    }
}

/// Fallible version of [`phcd_with_ranks`].
///
/// `_cores` is the decomposition `ranks` was computed from; the rank
/// order already carries every coreness the construction reads.
pub fn try_phcd_with_ranks(
    g: &CsrGraph,
    _cores: &CoreDecomposition,
    ranks: &VertexRanks,
    exec: &Executor,
) -> Result<Hcd, ParError> {
    // The union-find runs in *rank space*: element r is the vertex
    // vsort[r], so the pivot (minimum rank) is Definition 4's vertex
    // rank, shells are contiguous, and a single rank comparison replaces
    // the coreness filter (coreness(u) > k  <=>  rank(u) >= the shell's
    // upper bound).
    let vsort = ranks.vsort();
    // Degree prefix in rank order: a window of it drives weight-balanced
    // chunking of the adjacency-scanning steps (hubs would otherwise
    // pile into one chunk).
    let mut deg_prefix = Vec::with_capacity(vsort.len() + 1);
    deg_prefix.push(0u64);
    for (r, &v) in vsort.iter().enumerate() {
        deg_prefix.push(deg_prefix[r] + g.degree(v) as u64);
    }
    let links = Adjacency {
        g,
        vsort,
        rank: ranks.ranks(),
    };
    let (nodes, tid) = forest::try_build_forest(
        vsort,
        ranks.shell_starts(),
        &deg_prefix,
        &links,
        &forest::CORE,
        exec,
    )?;
    Ok(Hcd::from_parts(nodes, tid))
}

/// PHCD's links: a vertex is linked to every neighbor.
struct Adjacency<'a> {
    g: &'a CsrGraph,
    vsort: &'a [VertexId],
    rank: &'a [u32],
}

impl Links for Adjacency<'_> {
    #[inline]
    fn for_each_link(&self, r: u32, _lo: u32, mut f: impl FnMut(u32)) {
        for &u in self.g.neighbors(self.vsort[r as usize]) {
            f(self.rank[u as usize]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::naive_hcd;
    use hcd_decomp::core_decomposition;
    use hcd_graph::GraphBuilder;

    fn check_all_modes(g: &CsrGraph) {
        let cores = core_decomposition(g);
        let truth = naive_hcd(g, &cores).canonicalize();
        for exec in [
            Executor::sequential(),
            Executor::assist(4),
            Executor::simulated(3),
        ] {
            let hcd = phcd(g, &cores, &exec);
            assert_eq!(
                hcd.canonicalize(),
                truth,
                "PHCD mismatch in mode {}",
                exec.mode_name()
            );
        }
    }

    #[test]
    fn figure1_graph_matches_oracle() {
        check_all_modes(&crate::testutil::figure1_graph());
    }

    #[test]
    fn small_structures() {
        // Triangle + tail + isolated.
        let g = GraphBuilder::new()
            .edges([(0, 1), (1, 2), (2, 0), (2, 3)])
            .min_vertices(6)
            .build();
        check_all_modes(&g);
    }

    #[test]
    fn nested_clique_chain() {
        let mut b = GraphBuilder::new();
        for u in 0..7u32 {
            for v in (u + 1)..7 {
                b = b.edge(u, v);
            }
        }
        // Pendant chain off the clique.
        let g = b.edges([(0, 7), (7, 8), (8, 9)]).build();
        check_all_modes(&g);
    }

    #[test]
    fn two_components_with_shared_levels() {
        let g = GraphBuilder::new()
            .edges([(0, 1), (1, 2), (2, 0)]) // triangle A
            .edges([(10, 11), (11, 12), (12, 10)]) // triangle B
            .edges([(0, 3), (10, 13)]) // pendants
            .build();
        check_all_modes(&g);
    }

    #[test]
    fn star_of_triangles() {
        // Low-coreness hub with several 2-core satellites — exercises
        // sibling creation and parent detection at the same level.
        let mut b = GraphBuilder::new();
        for t in 0..5u32 {
            let base = 1 + t * 3;
            b = b
                .edge(base, base + 1)
                .edge(base + 1, base + 2)
                .edge(base + 2, base)
                .edge(0, base);
        }
        check_all_modes(&b.build());
    }

    #[test]
    fn deterministic_across_modes_and_runs() {
        let g = crate::testutil::figure1_graph();
        let cores = core_decomposition(&g);
        let a = phcd(&g, &cores, &Executor::sequential());
        for _ in 0..5 {
            let b = phcd(&g, &cores, &Executor::assist(4));
            // Not just canonically equal: byte-for-byte identical index.
            assert_eq!(a.nodes(), b.nodes());
            assert_eq!(a.tids(), b.tids());
        }
    }

    #[test]
    fn validates_against_full_checker() {
        let g = crate::testutil::figure1_graph();
        let cores = core_decomposition(&g);
        let hcd = phcd(&g, &cores, &Executor::assist(3));
        hcd.validate(&g, &cores).unwrap();
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().build();
        let cores = core_decomposition(&g);
        let hcd = phcd(&g, &cores, &Executor::sequential());
        assert_eq!(hcd.num_nodes(), 0);
    }
}
