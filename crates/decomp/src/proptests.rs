//! Cross-algorithm property tests: three independent core decomposition
//! algorithms must agree on arbitrary graphs.

use proptest::prelude::*;

use hcd_graph::builder::build_from_edges;
use hcd_par::Executor;

use crate::{bz, pkc, try_core_decomposition};

fn arb_edges(max_n: u32, max_m: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0..max_n, 0..max_n), 0..max_m)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn bz_pkc_agree(edges in arb_edges(60, 400)) {
        let g = build_from_edges(edges, 0);
        let a = bz::core_decomposition(&g);
        let b = pkc::pkc_core_decomposition(&g, &Executor::assist(4));
        prop_assert_eq!(a.as_slice(), b.as_slice());
        // The fallible path on one worker: the same kernel in its region.
        let c = try_core_decomposition(&g, &Executor::sequential()).unwrap();
        prop_assert_eq!(a.as_slice(), c.as_slice());
    }

    #[test]
    fn coreness_is_feasible_and_bounded_by_degree(edges in arb_edges(50, 300)) {
        let g = build_from_edges(edges, 0);
        let cd = bz::core_decomposition(&g);
        prop_assert!(cd.check_feasible(&g).is_ok());
        for v in g.vertices() {
            prop_assert!(cd.coreness(v) as usize <= g.degree(v));
        }
    }

    #[test]
    fn removing_a_vertex_never_raises_coreness(edges in arb_edges(30, 150)) {
        // Monotonicity: coreness in a subgraph <= coreness in the graph.
        let g = build_from_edges(edges.clone(), 0);
        if g.num_vertices() < 2 {
            return Ok(());
        }
        let drop = (g.num_vertices() - 1) as u32;
        let filtered: Vec<(u32, u32)> = edges
            .into_iter()
            .filter(|&(u, v)| u != drop && v != drop)
            .collect();
        let h = build_from_edges(filtered, g.num_vertices());
        let cg = bz::core_decomposition(&g);
        let ch = bz::core_decomposition(&h);
        for v in h.vertices() {
            prop_assert!(ch.coreness(v) <= cg.coreness(v));
        }
    }
}
