//! Property tests: PBKS and BKS agree with each other and with the
//! brute-force primary-value oracle on arbitrary graphs and every metric.

use proptest::prelude::*;

use hcd_core::phcd;
use hcd_decomp::core_decomposition;
use hcd_graph::builder::build_from_edges;
use hcd_par::Executor;

use crate::bestk::core_set_scores;
use crate::bks::bks_scores;
use crate::metrics::Metric;
use crate::pbks::pbks_scores;
use crate::preprocess::SearchContext;
use crate::testutil::primaries_by_definition;

fn arb_edges(max_n: u32, max_m: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0..max_n, 0..max_n), 1..max_m)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn pbks_primaries_match_oracle(edges in arb_edges(30, 160)) {
        let g = build_from_edges(edges, 0);
        let cores = core_decomposition(&g);
        let hcd = phcd(&g, &cores, &Executor::sequential());
        let ctx = SearchContext::new(&g, &cores, &hcd);
        for exec in [Executor::sequential(), Executor::assist(4), Executor::simulated(2)] {
            let (_, primaries) = pbks_scores(&ctx, &Metric::ClusteringCoefficient, &exec);
            for i in 0..hcd.num_nodes() as u32 {
                let want = primaries_by_definition(&g, &hcd.subtree_vertices(i));
                prop_assert_eq!(primaries[i as usize], want, "node {} mode {}", i, exec.mode_name());
            }
        }
    }

    #[test]
    fn bks_equals_pbks_everywhere(edges in arb_edges(30, 160)) {
        let g = build_from_edges(edges, 0);
        let cores = core_decomposition(&g);
        let hcd = phcd(&g, &cores, &Executor::sequential());
        let ctx = SearchContext::new(&g, &cores, &hcd);
        let exec = Executor::assist(3);
        for metric in Metric::ALL {
            let (sb, pb) = bks_scores(&ctx, &metric);
            let (sp, pp) = pbks_scores(&ctx, &metric, &exec);
            prop_assert_eq!(pb, pp, "{}", metric.name());
            prop_assert_eq!(sb, sp, "{}", metric.name());
        }
    }

    #[test]
    fn core_set_scores_match_oracle(edges in arb_edges(24, 120)) {
        let g = build_from_edges(edges, 0);
        let cores = core_decomposition(&g);
        let hcd = phcd(&g, &cores, &Executor::sequential());
        let ctx = SearchContext::new(&g, &cores, &hcd);
        let levels = core_set_scores(&ctx, &Metric::ClusteringCoefficient, &Executor::assist(2));
        for ls in levels {
            let want = primaries_by_definition(&g, &cores.core_set(ls.k));
            prop_assert_eq!(ls.primaries, want, "k={}", ls.k);
        }
    }

    #[test]
    fn densest_guarantee_holds(edges in arb_edges(24, 120)) {
        // PBKS-D's output is at least as dense as the kmax-core.
        let g = build_from_edges(edges, 0);
        let cores = core_decomposition(&g);
        let hcd = phcd(&g, &cores, &Executor::sequential());
        let ctx = SearchContext::new(&g, &cores, &hcd);
        if let Some(best) = crate::densest::pbks_d(&ctx, &Executor::sequential()) {
            if let Some((_, coreapp_davg)) = crate::densest::coreapp(&g, &cores) {
                prop_assert!(best.score >= coreapp_davg - 1e-9);
            }
        }
    }
}
