//! Property tests: all construction algorithms agree with the brute-force
//! oracle on arbitrary graphs, in every execution mode.

use proptest::prelude::*;

use hcd_decomp::core_decomposition;
use hcd_graph::builder::build_from_edges;
use hcd_par::Executor;

use crate::lcps::lcps;
use crate::oracle::naive_hcd;
use crate::phcd::phcd;
use crate::query::core_containing;
use crate::rc::rc_confirm_parents;

fn arb_edges(max_n: u32, max_m: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0..max_n, 0..max_n), 0..max_m)
}

/// Denser strategy: biased toward multi-level hierarchies.
fn arb_dense_edges() -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0..24u32, 0..24u32), 40..220)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn phcd_matches_oracle_all_modes(edges in arb_edges(40, 160)) {
        let g = build_from_edges(edges, 0);
        let cores = core_decomposition(&g);
        let truth = naive_hcd(&g, &cores).canonicalize();
        for exec in [Executor::sequential(), Executor::assist(4), Executor::simulated(3)] {
            let got = phcd(&g, &cores, &exec);
            prop_assert_eq!(got.canonicalize(), truth.clone(), "mode {}", exec.mode_name());
        }
    }

    #[test]
    fn lcps_matches_oracle(edges in arb_edges(40, 160)) {
        let g = build_from_edges(edges, 0);
        let cores = core_decomposition(&g);
        prop_assert_eq!(
            lcps(&g, &cores).canonicalize(),
            naive_hcd(&g, &cores).canonicalize()
        );
    }

    #[test]
    fn phcd_matches_oracle_on_dense_graphs(edges in arb_dense_edges()) {
        let g = build_from_edges(edges, 0);
        let cores = core_decomposition(&g);
        let truth = naive_hcd(&g, &cores).canonicalize();
        prop_assert_eq!(phcd(&g, &cores, &Executor::assist(4)).canonicalize(), truth.clone());
        prop_assert_eq!(lcps(&g, &cores).canonicalize(), truth);
    }

    #[test]
    fn rc_confirms_phcd_parents(edges in arb_dense_edges()) {
        let g = build_from_edges(edges, 0);
        let cores = core_decomposition(&g);
        let hcd = phcd(&g, &cores, &Executor::sequential());
        let confirmed = rc_confirm_parents(&g, &cores, &hcd, &Executor::sequential());
        prop_assert_eq!(confirmed, hcd.num_nodes() - hcd.roots().len());
    }

    #[test]
    fn query_reconstructs_cores(edges in arb_edges(24, 120)) {
        let g = build_from_edges(edges, 0);
        if g.num_vertices() == 0 {
            return Ok(());
        }
        let cores = core_decomposition(&g);
        let hcd = phcd(&g, &cores, &Executor::sequential());
        for v in g.vertices().step_by(3) {
            let k = cores.coreness(v);
            let mut got = core_containing(&hcd, &cores, v, k).unwrap();
            got.sort_unstable();
            let mut want = hcd_graph::traversal::bfs_filtered(&g, v, |u| cores.coreness(u) >= k);
            want.sort_unstable();
            prop_assert_eq!(got, want);
        }
    }
}
