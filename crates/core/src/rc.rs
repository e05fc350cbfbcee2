//! RC: local k-core search (paper §III-E).
//!
//! The divide-and-conquer alternative to PHCD needs, as its merge step, a
//! *local k-core search*: from a vertex `v`, collect the maximal connected
//! subgraph of vertices with coreness `>= k`. The paper evaluates this
//! ingredient (column `RC` of Table III) by using it to recompute the
//! parent-child relations of the HCD, and finds it one to two orders of
//! magnitude slower than PHCD — which is why the divide-and-conquer
//! paradigm is rejected.

use hcd_decomp::CoreDecomposition;
use hcd_graph::traversal::bfs_filtered;
use hcd_graph::{CsrGraph, VertexId};
use hcd_par::{Executor, ParError};

use crate::index::{Hcd, NO_NODE};

/// The local k-core search primitive: BFS from `v` over vertices of
/// coreness `>= k`. Returns the visited set (the vertex set of the
/// k-core containing `v`), or empty if `c(v) < k`.
pub fn local_core_search(
    g: &CsrGraph,
    cores: &CoreDecomposition,
    v: VertexId,
    k: u32,
) -> Vec<VertexId> {
    bfs_filtered(g, v, |u| cores.coreness(u) >= k)
}

/// Recomputes (and verifies) every parent-child relation of `hcd` via
/// local k-core searches — the RC workload of Table III.
///
/// For each non-root node `Ti` at level `k` with parent at level `k_p`,
/// a local `k_p`-core search from `Ti`'s first vertex must reach a vertex
/// of coreness exactly `k_p`; the node of the first such vertex is the
/// parent. Returns the number of relations confirmed, or `Err` if a
/// region panics, is cancelled, or exceeds the executor's deadline (see
/// `hcd_par` failure model).
///
/// # Panics
///
/// Panics if a search contradicts the index (which would indicate a
/// corrupted HCD).
pub fn rc_confirm_parents(
    g: &CsrGraph,
    cores: &CoreDecomposition,
    hcd: &Hcd,
    exec: &Executor,
) -> Result<usize, ParError> {
    let parts = exec
        .region("rc.confirm")
        .try_map_chunks(hcd.num_nodes(), |_, range| {
            let mut confirmed = 0usize;
            for i in range {
                let node = hcd.node(i as u32);
                if node.parent == NO_NODE {
                    continue;
                }
                let kp = hcd.node(node.parent).k;
                let start = node.vertices[0];
                let reached = local_core_search(g, cores, start, kp);
                let witness = reached
                    .into_iter()
                    .find(|&u| cores.coreness(u) == kp)
                    .expect("parent level must be reachable");
                assert_eq!(
                    hcd.tid(witness),
                    node.parent,
                    "RC found a different parent for node {i}"
                );
                confirmed += 1;
            }
            Ok(confirmed)
        })?;
    Ok(parts.into_iter().sum())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phcd::try_phcd;
    use crate::testutil::figure1_graph;
    use hcd_decomp::core_decomposition;
    use hcd_graph::GraphBuilder;

    #[test]
    fn local_search_returns_containing_core() {
        let g = figure1_graph();
        let cores = core_decomposition(&g);
        // 3-core containing vertex 0 is S3.1 = {0..8}.
        let mut s = local_core_search(&g, &cores, 0, 3);
        s.sort_unstable();
        assert_eq!(s, (0..9).collect::<Vec<_>>());
        // 4-core containing vertex 0 is S4 = {0..5}.
        let mut s4 = local_core_search(&g, &cores, 0, 4);
        s4.sort_unstable();
        assert_eq!(s4, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn search_from_too_shallow_vertex_is_empty() {
        let g = figure1_graph();
        let cores = core_decomposition(&g);
        assert!(local_core_search(&g, &cores, 15, 3).is_empty());
    }

    #[test]
    fn rc_confirms_all_relations() {
        let g = figure1_graph();
        let cores = core_decomposition(&g);
        let hcd = try_phcd(&g, &cores, &Executor::sequential()).unwrap();
        let confirmed = rc_confirm_parents(&g, &cores, &hcd, &Executor::assist(2)).unwrap();
        assert_eq!(confirmed, hcd.num_nodes() - hcd.roots().len());
    }

    #[test]
    fn rc_on_forest_with_no_edges() {
        let g = GraphBuilder::new().min_vertices(4).build();
        let cores = core_decomposition(&g);
        let hcd = try_phcd(&g, &cores, &Executor::sequential()).unwrap();
        assert_eq!(
            rc_confirm_parents(&g, &cores, &hcd, &Executor::sequential()).unwrap(),
            0
        );
    }
}
