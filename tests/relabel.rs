//! Property tests: locality-ordered construction is invisible in the
//! output. For arbitrary ER / BA / RMAT graphs and every executor mode,
//! building on a relabeled graph and mapping back through the inverse
//! permutation round-trips vertex ids, core numbers, and PHCD tree
//! parents bit-identically.

use proptest::prelude::*;

use hcd::prelude::*;

/// Strategy: a small random graph from one of the three generator
/// families (ER, BA, RMAT), both chosen by the seed.
fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    any::<u64>().prop_map(|s| match s % 3 {
        0 => gnp(120, 0.03, s),
        1 => barabasi_albert(120, 3, s),
        _ => rmat(7, 6, None, s),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn relabel_roundtrips_ids_cores_and_parents(g in arb_graph()) {
        let (ref_cores, ref_hcd) =
            build_with_order(&g, VertexOrder::None, &Executor::sequential());
        let p = Permutation::degree_order(&g);
        for exec in [
            Executor::sequential(),
            Executor::simulated(3),
            Executor::assist(4),
        ] {
            // Vertex ids round-trip through the permutation.
            for v in g.vertices() {
                prop_assert_eq!(p.to_old(p.to_new(v)), v);
            }
            let (cores, hcd) = build_with_order(&g, VertexOrder::Degree, &exec);
            // Core numbers are bit-identical after unmapping.
            prop_assert_eq!(cores.as_slice(), ref_cores.as_slice(),
                "coreness ({})", exec.mode_name());
            // The full index — vertex lists, tids, parents, children,
            // roots — is byte-identical, not merely isomorphic.
            prop_assert_eq!(hcd.nodes(), ref_hcd.nodes(), "nodes ({})", exec.mode_name());
            prop_assert_eq!(hcd.tids(), ref_hcd.tids(), "tids ({})", exec.mode_name());
            prop_assert_eq!(hcd.roots(), ref_hcd.roots(), "roots ({})", exec.mode_name());
            for i in 0..hcd.num_nodes() as u32 {
                prop_assert_eq!(hcd.node(i).parent, ref_hcd.node(i).parent, "parent of {}", i);
            }
        }
    }

    #[test]
    fn relabeled_graph_structure_matches_original(g in arb_graph()) {
        let p = Permutation::degree_order(&g);
        let r = g.relabel(&p);
        prop_assert!(r.check_invariants().is_ok());
        prop_assert_eq!(r.num_edges(), g.num_edges());
        for (u, v) in g.edges() {
            prop_assert!(r.has_edge(p.to_new(u), p.to_new(v)));
        }
        // Degrees are non-increasing in the new id order (hubs first).
        for new in 1..r.num_vertices() as u32 {
            prop_assert!(r.degree(new - 1) >= r.degree(new));
        }
    }
}
