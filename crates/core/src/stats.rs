//! Structural statistics of a built HCD (for visualization and the
//! engagement analyses of §I).

use crate::index::{Hcd, NO_NODE};

/// Summary statistics of an HCD forest.
#[derive(Debug, Clone, PartialEq)]
pub struct HcdStats {
    /// Number of tree nodes `|T|`.
    pub num_nodes: usize,
    /// Number of roots (components plus isolated-vertex nodes).
    pub num_roots: usize,
    /// Maximum node depth.
    pub max_depth: usize,
    /// `depth_histogram[d]` = number of nodes at depth `d`.
    pub depth_histogram: Vec<usize>,
    /// Maximum number of children of any node.
    pub max_branching: usize,
    /// Mean number of children over internal (non-leaf) nodes.
    pub mean_branching: f64,
    /// Size of the largest node (`max |V(Ti)|`).
    pub largest_node: usize,
}

impl HcdStats {
    /// Computes all statistics in `O(|T|)`.
    pub fn compute(hcd: &Hcd) -> Self {
        let n = hcd.num_nodes();
        // Depths via one top-down pass over the bottom-up order reversed.
        let mut depth = vec![0usize; n];
        let mut order = hcd.bottom_up_order();
        order.reverse(); // parents before children
        for &i in &order {
            let p = hcd.node(i).parent;
            if p != NO_NODE {
                depth[i as usize] = depth[p as usize] + 1;
            }
        }
        let max_depth = depth.iter().copied().max().unwrap_or(0);
        let mut depth_histogram = vec![0usize; max_depth + 1];
        for &d in &depth {
            depth_histogram[d] += 1;
        }
        let internal: Vec<usize> = hcd
            .nodes()
            .iter()
            .map(|nd| nd.children.len())
            .filter(|&c| c > 0)
            .collect();
        let mean_branching = if internal.is_empty() {
            0.0
        } else {
            internal.iter().sum::<usize>() as f64 / internal.len() as f64
        };
        HcdStats {
            num_nodes: n,
            num_roots: hcd.roots().len(),
            max_depth,
            depth_histogram,
            max_branching: internal.iter().copied().max().unwrap_or(0),
            mean_branching,
            largest_node: hcd
                .nodes()
                .iter()
                .map(|nd| nd.vertices.len())
                .max()
                .unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phcd::try_phcd;
    use crate::testutil::figure1_graph;
    use hcd_decomp::core_decomposition;
    use hcd_par::Executor;

    #[test]
    fn figure1_statistics() {
        let g = figure1_graph();
        let cores = core_decomposition(&g);
        let hcd = try_phcd(&g, &cores, &Executor::sequential()).unwrap();
        let s = HcdStats::compute(&hcd);
        // Forest: T2 -> {T3.1 -> T4, T3.2}.
        assert_eq!(s.num_nodes, 4);
        assert_eq!(s.num_roots, 1);
        assert_eq!(s.max_depth, 2);
        assert_eq!(s.depth_histogram, vec![1, 2, 1]);
        assert_eq!(s.max_branching, 2);
        assert!((s.mean_branching - 1.5).abs() < 1e-12); // (2 + 1) / 2
        assert_eq!(s.largest_node, 6); // T4 holds S4's six vertices
    }

    #[test]
    fn empty_forest() {
        let hcd = Hcd::from_parts(Vec::new(), Vec::new());
        let s = HcdStats::compute(&hcd);
        assert_eq!(s.num_nodes, 0);
        assert_eq!(s.max_depth, 0);
        assert_eq!(s.mean_branching, 0.0);
    }

    #[test]
    fn flat_forest_has_depth_zero() {
        let g = hcd_graph::GraphBuilder::new()
            .edges([(0, 1), (2, 3)])
            .build();
        let cores = core_decomposition(&g);
        let hcd = try_phcd(&g, &cores, &Executor::sequential()).unwrap();
        let s = HcdStats::compute(&hcd);
        assert_eq!(s.max_depth, 0);
        assert_eq!(s.num_roots, s.num_nodes);
    }
}
