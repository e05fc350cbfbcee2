//! Approximate densest subgraph search (paper §V-C, Table IV).

use hcd_graph::{CsrGraph, VertexId};
use hcd_par::{Executor, ParError};

use crate::metrics::Metric;
use crate::pbks::{try_pbks, BestCore};
use crate::preprocess::SearchContext;

/// PBKS-D: the k-core with the highest average degree, found in parallel.
///
/// A 0.5-approximation of the densest subgraph: the `kmax`-core is
/// already 0.5-approximate \[37\], and PBKS-D's answer is at least as dense
/// because the `kmax`-core is among its candidates. Returns `Err` if the
/// search failed (panic, cancellation, or deadline), as [`try_pbks`] does.
pub fn try_pbks_d(ctx: &SearchContext<'_>, exec: &Executor) -> Result<Option<BestCore>, ParError> {
    try_pbks(ctx, &Metric::AverageDegree, exec)
}

/// Opt-D: the serial state of the art — BKS specialized to average
/// degree. Returns the same subgraph as [`try_pbks_d`] (Table IV's davg
/// columns for Opt-D and PBKS-D coincide).
pub fn opt_d(ctx: &SearchContext<'_>) -> Option<BestCore> {
    crate::bks::bks(ctx, &Metric::AverageDegree)
}

/// A CoreApp-style baseline \[37\]: return the densest connected `kmax`-core.
///
/// CoreApp locates its approximate densest subgraph inside the innermost
/// cores; the classic core-based candidate is the `kmax`-core, which
/// carries the 0.5-approximation guarantee. When several `kmax`-cores
/// exist, the densest one is returned. Output: `(vertices, average
/// degree)`.
pub fn coreapp(
    g: &CsrGraph,
    cores: &hcd_decomp::CoreDecomposition,
) -> Option<(Vec<VertexId>, f64)> {
    let kmax = cores.kmax();
    if g.num_vertices() == 0 {
        return None;
    }
    let (labels, count) =
        hcd_graph::traversal::connected_components_filtered(g, |v| cores.coreness(v) >= kmax);
    if count == 0 {
        return None;
    }
    // Vertex and internal-edge counts per component.
    let mut nv = vec![0u64; count];
    let mut me = vec![0u64; count];
    for v in g.vertices() {
        let l = labels[v as usize];
        if l == hcd_graph::traversal::NO_COMPONENT {
            continue;
        }
        nv[l as usize] += 1;
        for &u in g.neighbors(v) {
            if u > v && labels[u as usize] == l {
                me[l as usize] += 1;
            }
        }
    }
    let best = (0..count)
        .max_by(|&a, &b| {
            let da = 2.0 * me[a] as f64 / nv[a] as f64;
            let db = 2.0 * me[b] as f64 / nv[b] as f64;
            crate::metrics::score_cmp(da, db)
        })
        .unwrap();
    let vertices: Vec<VertexId> = g
        .vertices()
        .filter(|&v| labels[v as usize] == best as u32)
        .collect();
    let davg = 2.0 * me[best] as f64 / nv[best] as f64;
    Some((vertices, davg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::search_fixture;

    #[test]
    fn pbks_d_and_opt_d_agree() {
        let (g, cores, hcd) = search_fixture();
        let ctx = SearchContext::new(&g, &cores, &hcd);
        let a = try_pbks_d(&ctx, &Executor::assist(2)).unwrap().unwrap();
        let b = opt_d(&ctx).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn pbks_d_beats_or_matches_coreapp() {
        let (g, cores, hcd) = search_fixture();
        let ctx = SearchContext::new(&g, &cores, &hcd);
        let best = try_pbks_d(&ctx, &Executor::sequential()).unwrap().unwrap();
        let (_, coreapp_davg) = coreapp(&g, &cores).unwrap();
        assert!(best.score >= coreapp_davg - 1e-9);
    }

    #[test]
    fn coreapp_returns_kmax_core() {
        let (g, cores, _) = search_fixture();
        let (vertices, davg) = coreapp(&g, &cores).unwrap();
        // The kmax-core of the fixture is S4 = {0..5}.
        assert_eq!(vertices, vec![0, 1, 2, 3, 4, 5]);
        assert!((davg - 28.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn empty_graph() {
        let g = hcd_graph::GraphBuilder::new().build();
        let cores = hcd_decomp::core_decomposition(&g);
        assert!(coreapp(&g, &cores).is_none());
    }
}
