//! Property tests: all construction algorithms agree with the brute-force
//! oracle on arbitrary graphs, in every execution mode.

use proptest::prelude::*;

use hcd_decomp::core_decomposition;
use hcd_graph::builder::build_from_edges;
use hcd_par::Executor;

use crate::lcps::lcps;
use crate::oracle::naive_hcd;
use crate::phcd::try_phcd;
use crate::query::{core_containing, core_node_at, hierarchy_position, scan_beats_sort};
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
            let got = try_phcd(&g, &cores, &exec).unwrap();
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
        prop_assert_eq!(try_phcd(&g, &cores, &Executor::assist(4)).unwrap().canonicalize(), truth.clone());
        prop_assert_eq!(lcps(&g, &cores).canonicalize(), truth);
    }

    #[test]
    fn rc_confirms_phcd_parents(edges in arb_dense_edges()) {
        let g = build_from_edges(edges, 0);
        let cores = core_decomposition(&g);
        let hcd = try_phcd(&g, &cores, &Executor::sequential()).unwrap();
        let confirmed = rc_confirm_parents(&g, &cores, &hcd, &Executor::sequential()).unwrap();
        prop_assert_eq!(confirmed, hcd.num_nodes() - hcd.roots().len());
    }

    #[test]
    fn query_reconstructs_cores(edges in arb_edges(24, 120)) {
        let g = build_from_edges(edges, 0);
        if g.num_vertices() == 0 {
            return Ok(());
        }
        let cores = core_decomposition(&g);
        let hcd = try_phcd(&g, &cores, &Executor::sequential()).unwrap();
        for v in g.vertices().step_by(3) {
            let k = cores.coreness(v);
            let got = core_containing(&hcd, &cores, v, k).unwrap();
            prop_assert!(got.windows(2).all(|w| w[0] < w[1]), "v={} k={}", v, k);
            let mut want = hcd_graph::traversal::bfs_filtered(&g, v, |u| cores.coreness(u) >= k);
            want.sort_unstable();
            prop_assert_eq!(got, want);
        }
    }
}

// Both orderings of `core_containing` (sort below the cost rule's
// break-even, `tid` scan above it) on BA and R-MAT graphs large enough to
// take each: every answer is strictly ascending and equals the sorted
// subtree, and each case takes both branches.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn core_containing_takes_both_orderings_on_ba_and_rmat(
        seed in 0..u64::MAX,
        ba_n in 300..1500usize,
        ba_m in 2..6usize,
        scale in 8..11u32,
    ) {
        let ba = hcd_datasets::barabasi_albert(ba_n, ba_m, seed);
        let rmat = hcd_datasets::rmat(scale, 8, None, seed);
        let mut branches = [0usize; 2];
        for g in [&ba, &rmat] {
            let cores = core_decomposition(g);
            let hcd = try_phcd(g, &cores, &Executor::sequential()).unwrap();
            let n = hcd.tids().len();
            for v in g.vertices().step_by(7) {
                let (_, size) = hierarchy_position(&hcd, v);
                prop_assert_eq!(size, hcd.subtree_vertices(hcd.tid(v)).len());
                for k in 0..=cores.coreness(v) + 1 {
                    let Some(node) = core_node_at(&hcd, &cores, v, k) else {
                        prop_assert!(core_containing(&hcd, &cores, v, k).is_none());
                        continue;
                    };
                    let mut want = hcd.subtree_vertices(node);
                    want.sort_unstable();
                    branches[scan_beats_sort(want.len(), n) as usize] += 1;
                    let got = core_containing(&hcd, &cores, v, k).unwrap();
                    prop_assert!(got.windows(2).all(|w| w[0] < w[1]), "v={} k={}", v, k);
                    prop_assert_eq!(got, want, "v={} k={}", v, k);
                }
            }
        }
        prop_assert!(branches[0] > 0 && branches[1] > 0, "branches taken: {:?}", branches);
    }
}
