//! LB: the union-find lower bound of Table III.

use hcd_graph::CsrGraph;
use hcd_par::{Executor, ParError, CHECKPOINT_STRIDE};
use hcd_unionfind::{ConcurrentPivotUnionFind, UnionFindPivot};

/// Unions every adjacent vertex pair once — the minimum connection work
/// any union-find-based HCD construction must perform. The paper reports
/// PHCD's runtime relative to this as the "LB" columns of Table III.
///
/// Returns the populated union-find so callers can verify the result (and
/// so the work is not optimized away).
///
/// The adjacency scan polls the executor's cancellation checkpoint at a
/// coarse edge stride, so deadlines and cancel tokens abort it promptly
/// (see `hcd_par` failure model).
pub fn try_lb_union_all(
    g: &CsrGraph,
    exec: &Executor,
) -> Result<ConcurrentPivotUnionFind, ParError> {
    let n = g.num_vertices();
    let uf = ConcurrentPivotUnionFind::new_identity(n);
    exec.region("lb.union").try_for_each_chunk(
        n,
        || (),
        |_, _, range| {
            let mut since = 0usize;
            for v in range {
                let v = v as u32;
                for &u in g.neighbors(v) {
                    if u > v {
                        uf.union(v, u);
                    }
                }
                since += g.degree(v);
                if since >= CHECKPOINT_STRIDE {
                    exec.checkpoint()?;
                    since = 0;
                }
            }
            Ok(())
        },
    )?;
    Ok(uf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcd_graph::traversal::connected_components;
    use hcd_graph::GraphBuilder;
    use hcd_par::{CancelToken, Deadline};
    use std::time::Duration;

    #[test]
    fn lb_components_match_bfs_components() {
        let g = GraphBuilder::new()
            .edges([(0, 1), (1, 2), (3, 4), (5, 6), (6, 7), (7, 5)])
            .min_vertices(10)
            .build();
        let (labels, count) = connected_components(&g);
        for exec in [Executor::sequential(), Executor::assist(4)] {
            let uf = try_lb_union_all(&g, &exec).unwrap();
            assert_eq!(uf.num_components(), count);
            for u in g.vertices() {
                for v in g.vertices() {
                    assert_eq!(uf.same_set(u, v), labels[u as usize] == labels[v as usize]);
                }
            }
        }
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().build();
        let uf = try_lb_union_all(&g, &Executor::sequential()).unwrap();
        assert_eq!(uf.num_components(), 0);
    }

    #[test]
    fn respects_cancellation_and_deadline() {
        let g = GraphBuilder::new().edges([(0, 1), (1, 2), (2, 0)]).build();
        let exec = Executor::sequential();
        let token = CancelToken::new();
        exec.set_cancel(token.clone());
        token.cancel();
        assert!(matches!(
            try_lb_union_all(&g, &exec).map(|_| ()),
            Err(ParError::Cancelled)
        ));
        exec.clear_cancel();
        exec.set_deadline(Deadline::from_now(Duration::ZERO));
        assert!(matches!(
            try_lb_union_all(&g, &exec).map(|_| ()),
            Err(ParError::DeadlineExceeded)
        ));
    }
}
