//! Property tests: PBKS and BKS agree with each other and with the
//! brute-force primary-value oracle on arbitrary graphs and every metric.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use hcd_core::try_phcd;
use hcd_decomp::core_decomposition;
use hcd_graph::builder::build_from_edges;
use hcd_par::Executor;

use crate::bestk::try_core_set_scores;
use crate::bks::bks_scores;
use crate::metrics::Metric;
use crate::pbks::try_pbks_scores;
use crate::preprocess::SearchContext;
use crate::testutil::primaries_by_definition;

fn arb_edges(max_n: u32, max_m: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0..max_n, 0..max_n), 1..max_m)
}

/// A planted graph of up to 120 vertices: `cliques` disjoint cliques of
/// `size` vertices each (equal-coreness shells split over several HCD
/// nodes, where κ ties fall to the vertex id), loose vertices up to 120,
/// sparse random edges over all of them, and ids shuffled so the clique
/// members are not contiguous. The first loose vertex is a hub: adjacent
/// to about half the loose vertices and to two members of every clique,
/// so it has a high degree but a low coreness and closes triangles whose
/// degree-minimum corner is not a coreness-minimum one.
fn planted_edges(cliques: usize, size: usize, seed: u64) -> Vec<(u32, u32)> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n = cliques * size + rng.gen_range(0..=120 - cliques * size);
    let mut id: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        id.swap(i, rng.gen_range(0..=i));
    }
    let mut edges = Vec::new();
    for c in 0..cliques {
        for a in c * size..(c + 1) * size {
            for b in a + 1..(c + 1) * size {
                edges.push((id[a], id[b]));
            }
        }
    }
    for _ in 0..rng.gen_range(0..=n / 2) {
        edges.push((id[rng.gen_range(0..n)], id[rng.gen_range(0..n)]));
    }
    let hub = cliques * size;
    if hub < n {
        for u in hub + 1..n {
            if rng.gen_bool(0.5) {
                edges.push((id[hub], id[u]));
            }
        }
        for c in 0..cliques {
            edges.push((id[hub], id[c * size]));
            edges.push((id[hub], id[c * size + 1]));
        }
    }
    edges
}

fn triangle_probes(exec: &Executor) -> u64 {
    let m = exec.take_metrics();
    m.get_counter("pbks.triangle_probes").map_or(0, |c| c.value)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn kappa_attribution_matches_oracle_on_planted_cliques(
        (cliques, size, seed) in (2..7usize, 3..13usize, any::<u64>())
    ) {
        // The forward pass credits each triangle to its κ-minimum corner.
        // Equal-size cliques give shells of one coreness spread over
        // several tree nodes, so crediting the wrong equal-coreness corner
        // would move a triangle between nodes and show up here.
        let g = build_from_edges(planted_edges(cliques, size, seed), 0);
        let cores = core_decomposition(&g);
        let hcd = try_phcd(&g, &cores, &Executor::sequential()).unwrap();
        let ctx = SearchContext::new(&g, &cores, &hcd);
        let mut probes = Vec::new();
        for exec in [Executor::sequential(), Executor::simulated(4), Executor::assist(4)] {
            let exec = exec.with_metrics();
            let (_, primaries) = try_pbks_scores(&ctx, &Metric::ClusteringCoefficient, &exec).unwrap();
            probes.push(triangle_probes(&exec));
            for i in 0..hcd.num_nodes() as u32 {
                let want = primaries_by_definition(&g, &hcd.subtree_vertices(i));
                prop_assert_eq!(primaries[i as usize], want, "node {} mode {}", i, exec.mode_name());
            }
            for ls in try_core_set_scores(&ctx, &Metric::ClusteringCoefficient, &exec).unwrap() {
                let want = primaries_by_definition(&g, &cores.core_set(ls.k));
                prop_assert_eq!(ls.primaries, want, "k={} mode {}", ls.k, exec.mode_name());
            }
        }
        // Probes count work, not scheduling.
        prop_assert!(probes.iter().all(|&p| p == probes[0]), "probes {:?}", probes);
    }

    #[test]
    fn pbks_primaries_match_oracle(edges in arb_edges(30, 160)) {
        let g = build_from_edges(edges, 0);
        let cores = core_decomposition(&g);
        let hcd = try_phcd(&g, &cores, &Executor::sequential()).unwrap();
        let ctx = SearchContext::new(&g, &cores, &hcd);
        for exec in [Executor::sequential(), Executor::assist(4), Executor::simulated(2)] {
            let (_, primaries) = try_pbks_scores(&ctx, &Metric::ClusteringCoefficient, &exec).unwrap();
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
        let hcd = try_phcd(&g, &cores, &Executor::sequential()).unwrap();
        let ctx = SearchContext::new(&g, &cores, &hcd);
        let exec = Executor::assist(3);
        for metric in Metric::ALL {
            let (sb, pb) = bks_scores(&ctx, &metric);
            let (sp, pp) = try_pbks_scores(&ctx, &metric, &exec).unwrap();
            prop_assert_eq!(pb, pp, "{}", metric.name());
            prop_assert_eq!(sb, sp, "{}", metric.name());
        }
    }

    #[test]
    fn core_set_scores_match_oracle(edges in arb_edges(24, 120)) {
        let g = build_from_edges(edges, 0);
        let cores = core_decomposition(&g);
        let hcd = try_phcd(&g, &cores, &Executor::sequential()).unwrap();
        let ctx = SearchContext::new(&g, &cores, &hcd);
        let levels = try_core_set_scores(&ctx, &Metric::ClusteringCoefficient, &Executor::assist(2)).unwrap();
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
        let hcd = try_phcd(&g, &cores, &Executor::sequential()).unwrap();
        let ctx = SearchContext::new(&g, &cores, &hcd);
        if let Some(best) = crate::densest::try_pbks_d(&ctx, &Executor::sequential()).unwrap() {
            if let Some((_, coreapp_davg)) = crate::densest::coreapp(&g, &cores) {
                prop_assert!(best.score >= coreapp_davg - 1e-9);
            }
        }
    }
}
