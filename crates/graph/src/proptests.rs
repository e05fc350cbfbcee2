//! Property-based tests for the graph substrate.

use proptest::prelude::*;

use crate::builder::build_from_edges;
use crate::io::{read_binary, read_edge_list, write_binary, write_edge_list};
use crate::subgraph::InducedSubgraph;
use crate::traversal::connected_components;
use crate::VertexId;

/// Strategy: an arbitrary messy edge list over up to `max_n` vertices.
pub fn arb_edges(max_n: u32, max_m: usize) -> impl Strategy<Value = Vec<(VertexId, VertexId)>> {
    prop::collection::vec((0..max_n, 0..max_n), 0..max_m)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn builder_output_satisfies_invariants(edges in arb_edges(40, 200)) {
        let g = build_from_edges(edges, 0);
        prop_assert!(g.check_invariants().is_ok());
    }

    #[test]
    fn builder_preserves_edge_membership(edges in arb_edges(30, 100)) {
        let g = build_from_edges(edges.clone(), 0);
        for (u, v) in edges {
            if u != v {
                prop_assert!(g.has_edge(u, v));
                prop_assert!(g.has_edge(v, u));
            }
        }
    }

    #[test]
    fn text_io_roundtrip(edges in arb_edges(30, 100)) {
        let g = build_from_edges(edges, 0);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(&buf[..]).unwrap();
        prop_assert_eq!(g, g2);
    }

    #[test]
    fn binary_io_roundtrip(edges in arb_edges(30, 100)) {
        let g = build_from_edges(edges, 0);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        let g2 = read_binary(&buf[..]).unwrap();
        prop_assert_eq!(g, g2);
    }

    #[test]
    fn components_partition_vertices(edges in arb_edges(30, 100)) {
        let g = build_from_edges(edges, 0);
        let (labels, count) = connected_components(&g);
        // Every vertex labelled, labels dense in 0..count.
        for &l in &labels {
            prop_assert!((l as usize) < count);
        }
        // Endpoints of every edge share a label.
        for (u, v) in g.edges() {
            prop_assert_eq!(labels[u as usize], labels[v as usize]);
        }
    }

    #[test]
    fn induced_subgraph_edge_consistency(edges in arb_edges(25, 80), pick in prop::collection::vec(any::<bool>(), 25)) {
        let g = build_from_edges(edges, 25);
        let subset: Vec<VertexId> = (0..g.num_vertices() as VertexId)
            .filter(|&v| pick.get(v as usize).copied().unwrap_or(false))
            .collect();
        let s = InducedSubgraph::new(&g, &subset);
        prop_assert!(s.graph().check_invariants().is_ok());
        // Every induced edge exists in the original.
        for (a, b) in s.graph().edges() {
            prop_assert!(g.has_edge(s.original_id(a), s.original_id(b)));
        }
        // Every original edge inside the subset is induced.
        let in_subset: Vec<bool> = {
            let mut f = vec![false; g.num_vertices()];
            for &v in &subset { f[v as usize] = true; }
            f
        };
        let expected = g
            .edges()
            .filter(|&(u, v)| in_subset[u as usize] && in_subset[v as usize])
            .count();
        prop_assert_eq!(s.graph().num_edges(), expected);
    }
}
