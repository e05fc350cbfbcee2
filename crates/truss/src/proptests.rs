//! Property tests: PHTD matches the brute-force HTD oracle, and truss
//! invariants hold, on arbitrary graphs.

use proptest::prelude::*;

use hcd_graph::builder::build_from_edges;
use hcd_par::Executor;

use crate::decompose::truss_decomposition;
use crate::hierarchy::{naive_htd, try_phtd};

fn arb_edges(max_n: u32, max_m: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0..max_n, 0..max_n), 0..max_m)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn phtd_matches_oracle(edges in arb_edges(18, 90)) {
        let g = build_from_edges(edges, 0);
        let (idx, td) = truss_decomposition(&g);
        let truth = naive_htd(&g, &idx, &td).canonicalize();
        for exec in [Executor::sequential(), Executor::assist(4), Executor::simulated(3)] {
            let got = try_phtd(&g, &idx, &td, &exec).unwrap();
            prop_assert_eq!(got.canonicalize(), truth.clone(), "mode {}", exec.mode_name());
        }
    }

    #[test]
    fn trussness_invariants(edges in arb_edges(16, 70)) {
        let g = build_from_edges(edges, 0);
        let (idx, td) = truss_decomposition(&g);
        for e in 0..idx.len() as u32 {
            let t = td.trussness(e);
            // Every edge has trussness >= 2.
            prop_assert!(t >= 2);
            // Support within the t-class subgraph is >= t - 2.
            let (u, v) = idx.endpoints(e);
            let sup = g.neighbors(u).iter().filter(|&&w| {
                w != v && g.has_edge(w, v)
                    && td.trussness(idx.eid(&g, u, w)) >= t
                    && td.trussness(idx.eid(&g, v, w)) >= t
            }).count() as u32;
            prop_assert!(sup >= t - 2, "edge {} has {} < {}", e, sup, t - 2);
        }
    }

    #[test]
    fn htd_partitions_edges(edges in arb_edges(16, 70)) {
        let g = build_from_edges(edges, 0);
        let (idx, td) = truss_decomposition(&g);
        let h = try_phtd(&g, &idx, &td, &Executor::sequential()).unwrap();
        let total: usize = h.nodes().iter().map(|n| n.edges.len()).sum();
        prop_assert_eq!(total, idx.len());
        for (i, node) in h.nodes().iter().enumerate() {
            for &e in &node.edges {
                prop_assert_eq!(h.tid(e), i as u32);
                prop_assert_eq!(td.trussness(e), node.k);
            }
            if node.parent != crate::hierarchy::NO_NODE {
                prop_assert!(h.node(node.parent).k < node.k);
            }
        }
    }
}
