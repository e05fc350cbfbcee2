//! Test fixtures and brute-force primary-value computation.

use hcd_core::{try_phcd, Hcd};
use hcd_decomp::{core_decomposition, CoreDecomposition};
use hcd_graph::{CsrGraph, GraphBuilder, VertexId};
use hcd_par::Executor;

use crate::metrics::PrimaryValues;

/// The paper's Figure 1 graph (see `hcd-core`'s fixture) with its core
/// decomposition and HCD.
pub fn search_fixture() -> (CsrGraph, CoreDecomposition, Hcd) {
    let g = GraphBuilder::new()
        .edges([
            (0, 1),
            (0, 2),
            (0, 3),
            (0, 4),
            (1, 2),
            (1, 3),
            (1, 4),
            (2, 3),
            (2, 4),
            (3, 4),
            (5, 0),
            (5, 1),
            (5, 2),
            (5, 3),
        ])
        .edges([(6, 7), (7, 8), (8, 6), (6, 0), (7, 1), (8, 2)])
        .edges([(9, 10), (9, 11), (9, 12), (10, 11), (10, 12), (11, 12)])
        .edges([(13, 9), (13, 5), (14, 10), (14, 6), (15, 13), (15, 14)])
        .build();
    let cores = core_decomposition(&g);
    let hcd = try_phcd(&g, &cores, &Executor::sequential()).unwrap();
    (g, cores, hcd)
}

/// Computes every primary value of the subgraph induced by `vertices`
/// directly from the definitions — the oracle for PBKS/BKS.
pub fn primaries_by_definition(g: &CsrGraph, vertices: &[VertexId]) -> PrimaryValues {
    let mut inside = vec![false; g.num_vertices()];
    for &v in vertices {
        inside[v as usize] = true;
    }
    let n = vertices.len() as u64;
    let mut m = 0u64;
    let mut b = 0u64;
    for &v in vertices {
        for &u in g.neighbors(v) {
            if inside[u as usize] {
                if u > v {
                    m += 1;
                }
            } else {
                b += 1;
            }
        }
    }
    // Triangles and triplets on the induced subgraph.
    let mut triangles = 0u64;
    let mut triplets = 0u64;
    for &v in vertices {
        let nbrs: Vec<VertexId> = g
            .neighbors(v)
            .iter()
            .copied()
            .filter(|&u| inside[u as usize])
            .collect();
        let d = nbrs.len() as u64;
        triplets += d * d.saturating_sub(1) / 2;
        for (i, &a) in nbrs.iter().enumerate() {
            for &c in &nbrs[i + 1..] {
                if a > v && c > v && g.has_edge(a, c) {
                    triangles += 1;
                }
            }
        }
    }
    PrimaryValues {
        n,
        m2: 2 * m,
        b,
        triangles,
        triplets,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_on_k4() {
        let g = GraphBuilder::new()
            .edges([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)])
            .build();
        let p = primaries_by_definition(&g, &[0, 1, 2, 3]);
        assert_eq!(p.n, 4);
        assert_eq!(p.m2, 12);
        assert_eq!(p.b, 1);
        assert_eq!(p.triangles, 4);
        assert_eq!(p.triplets, 12); // 4 vertices × C(3,2)
    }

    #[test]
    fn oracle_counts_boundary_per_edge_endpoint_inside() {
        let g = GraphBuilder::new().edges([(0, 1), (1, 2)]).build();
        let p = primaries_by_definition(&g, &[1]);
        assert_eq!(p.n, 1);
        assert_eq!(p.m2, 0);
        assert_eq!(p.b, 2);
    }
}
