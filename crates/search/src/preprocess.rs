//! Preprocessing shared by all score computations (paper §IV-A).

use hcd_core::{Hcd, VertexRanks};
use hcd_decomp::CoreDecomposition;
use hcd_graph::{CsrGraph, VertexId};
use hcd_par::{Executor, ParError};

use crate::metrics::GraphTotals;

/// Everything the search algorithms need, precomputed once.
///
/// The paper's preprocessing stores, per vertex, the number of neighbors
/// of *greater* and of *equal* coreness, from which greater/equal/less
/// counts are answered instantly for any score computation. `O(m)` work,
/// executed in parallel, independent of the metric — this is the "lighter
/// preprocessing" that replaces BKS's full adjacency-list sort.
pub struct SearchContext<'a> {
    /// The graph.
    pub g: &'a CsrGraph,
    /// Its core decomposition.
    pub cores: &'a CoreDecomposition,
    /// Its HCD.
    pub hcd: &'a Hcd,
    /// The vertex-rank order: BKS's level sweep and its lowest-rank
    /// motif attribution (PBKS and best-k do not read it).
    pub ranks: VertexRanks,
    gt: Vec<u32>,
    eq: Vec<u32>,
}

impl<'a> SearchContext<'a> {
    /// Builds the context with a sequential pass (see
    /// [`SearchContext::with_executor`]).
    pub fn new(g: &'a CsrGraph, cores: &'a CoreDecomposition, hcd: &'a Hcd) -> Self {
        Self::with_executor(g, cores, hcd, &Executor::sequential())
    }

    /// Builds the context, running the `O(m)` neighbor-coreness counting
    /// and the rank computation under `exec`.
    pub fn with_executor(
        g: &'a CsrGraph,
        cores: &'a CoreDecomposition,
        hcd: &'a Hcd,
        exec: &Executor,
    ) -> Self {
        match Self::try_with_executor(g, cores, hcd, exec) {
            Ok(ctx) => ctx,
            Err(e) => e.raise(),
        }
    }

    /// Fallible version of [`SearchContext::with_executor`]: returns
    /// `Err` if the preprocessing panics, is cancelled, or exceeds the
    /// executor's deadline (see `hcd_par` failure model).
    pub fn try_with_executor(
        g: &'a CsrGraph,
        cores: &'a CoreDecomposition,
        hcd: &'a Hcd,
        exec: &Executor,
    ) -> Result<Self, ParError> {
        let n = g.num_vertices();
        let ranks = VertexRanks::try_compute(cores, exec)?;
        let mut gt = vec![0u32; n];
        let mut eq = vec![0u32; n];
        {
            struct SendPtr(*mut u32);
            unsafe impl Send for SendPtr {}
            unsafe impl Sync for SendPtr {}
            let gt_ptr = SendPtr(gt.as_mut_ptr());
            let eq_ptr = SendPtr(eq.as_mut_ptr());
            exec.region("search.preprocess").try_for_each_chunk(
                n,
                || (),
                |_, _, range| {
                    let _ = (&gt_ptr, &eq_ptr);
                    for v in range {
                        let c = cores.coreness(v as VertexId);
                        let mut g_cnt = 0u32;
                        let mut e_cnt = 0u32;
                        for &u in g.neighbors(v as VertexId) {
                            let cu = cores.coreness(u);
                            if cu > c {
                                g_cnt += 1;
                            } else if cu == c {
                                e_cnt += 1;
                            }
                        }
                        // SAFETY: each v is owned by exactly one chunk.
                        unsafe {
                            *gt_ptr.0.add(v) = g_cnt;
                            *eq_ptr.0.add(v) = e_cnt;
                        }
                    }
                    Ok(())
                },
            )?;
        }
        Ok(SearchContext {
            g,
            cores,
            hcd,
            ranks,
            gt,
            eq,
        })
    }

    /// Neighbors of `v` with strictly greater coreness.
    #[inline]
    pub fn gt(&self, v: VertexId) -> u32 {
        self.gt[v as usize]
    }

    /// Neighbors of `v` with equal coreness.
    #[inline]
    pub fn eq(&self, v: VertexId) -> u32 {
        self.eq[v as usize]
    }

    /// Neighbors of `v` with strictly smaller coreness.
    #[inline]
    pub fn lt(&self, v: VertexId) -> u32 {
        self.g.degree(v) as u32 - self.gt[v as usize] - self.eq[v as usize]
    }

    /// Graph-level totals for globally normalized metrics.
    pub fn totals(&self) -> GraphTotals {
        GraphTotals {
            n: self.g.num_vertices() as u64,
            m: self.g.num_edges() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcd_core::phcd;
    use hcd_decomp::core_decomposition;
    use hcd_graph::GraphBuilder;

    #[test]
    fn neighbor_class_counts() {
        // Triangle {0,1,2} (coreness 2) with pendant 3 on vertex 2.
        let g = GraphBuilder::new()
            .edges([(0, 1), (1, 2), (2, 0), (2, 3)])
            .build();
        let cores = core_decomposition(&g);
        let hcd = phcd(&g, &cores, &Executor::sequential());
        for exec in [Executor::sequential(), Executor::assist(3)] {
            let ctx = SearchContext::with_executor(&g, &cores, &hcd, &exec);
            assert_eq!((ctx.gt(0), ctx.eq(0), ctx.lt(0)), (0, 2, 0));
            assert_eq!((ctx.gt(2), ctx.eq(2), ctx.lt(2)), (0, 2, 1));
            assert_eq!((ctx.gt(3), ctx.eq(3), ctx.lt(3)), (1, 0, 0));
        }
    }

    #[test]
    fn totals_match_graph() {
        let g = GraphBuilder::new().edges([(0, 1), (1, 2)]).build();
        let cores = core_decomposition(&g);
        let hcd = phcd(&g, &cores, &Executor::sequential());
        let ctx = SearchContext::new(&g, &cores, &hcd);
        assert_eq!(ctx.totals().n, 3);
        assert_eq!(ctx.totals().m, 2);
    }
}
