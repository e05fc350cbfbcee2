//! Cross-crate integration: the full pipeline (generate → decompose →
//! construct HCD → search) on every registry stand-in at tiny scale.

use hcd::prelude::*;

fn pipeline(g: &CsrGraph) {
    // Three core-decomposition algorithms agree.
    let exec = Executor::assist(4);
    let bz = core_decomposition(g);
    let pkc = pkc_core_decomposition(g, &exec);
    assert_eq!(bz, pkc);

    // PHCD in all modes equals LCPS equals the brute-force oracle.
    let truth = naive_hcd(g, &bz).canonicalize();
    for e in [
        Executor::sequential(),
        Executor::simulated(3),
        Executor::assist(4),
    ] {
        assert_eq!(phcd(g, &bz, &e).canonicalize(), truth);
    }
    assert_eq!(lcps(g, &bz).canonicalize(), truth);

    // PBKS equals BKS on every metric; full index validation.
    let hcd = phcd(g, &bz, &exec);
    hcd.validate(g, &bz).expect("index validation");
    let ctx = SearchContext::with_executor(g, &bz, &hcd, &exec);
    for metric in Metric::ALL {
        let a = pbks(&ctx, &metric, &exec);
        let b = bks(&ctx, &metric);
        assert_eq!(a, b, "{}", metric.name());
    }
}

#[test]
fn every_dataset_standin_survives_the_pipeline() {
    for d in DATASETS.iter() {
        // Tiny scale keeps the brute-force oracle tractable.
        let g = d.generate(Scale::Tiny);
        pipeline(&g);
    }
}

#[test]
fn pipeline_handles_structured_generators() {
    pipeline(&core_tree(3, 3, 10, 17));
    pipeline(&watts_strogatz(300, 6, 0.1, 3));
    pipeline(&barabasi_albert(250, 3, 5));
    pipeline(&gnp(200, 0.05, 9));
}

#[test]
fn densest_subgraph_guarantee_end_to_end() {
    // PBKS-D is a 0.5-approximation of the exact (flow-based) optimum.
    for seed in [1u64, 2, 3] {
        let g = gnp(120, 0.08, seed);
        let cores = core_decomposition(&g);
        let hcd = phcd(&g, &cores, &Executor::sequential());
        let ctx = SearchContext::new(&g, &cores, &hcd);
        let Some(best) = pbks_d(&ctx, &Executor::sequential()) else {
            continue;
        };
        let (_, exact_density) = densest_subgraph(&g).expect("non-empty");
        // best.score is an average degree = 2 * density of that subgraph.
        assert!(
            best.score >= exact_density - 1e-9,
            "seed {seed}: 0.5-approx violated: {} < {}",
            best.score,
            exact_density
        );
    }
}

#[test]
fn local_queries_agree_with_reconstruction() {
    let g = Dataset::by_abbrev("SK").unwrap().generate(Scale::Tiny);
    let cores = core_decomposition(&g);
    let hcd = phcd(&g, &cores, &Executor::sequential());
    for v in g.vertices().step_by(37) {
        let k = cores.coreness(v);
        if k == 0 {
            continue;
        }
        let got = core_containing(&hcd, &cores, v, k).unwrap();
        assert!(got.windows(2).all(|w| w[0] < w[1]), "v={v}: not ascending");
        let mut want = hcd::graph::traversal::bfs_filtered(&g, v, |u| cores.coreness(u) >= k);
        want.sort_unstable();
        assert_eq!(got, want, "v={v}");
    }
}

#[test]
fn best_k_scores_match_manual_suffix_computation() {
    let g = Dataset::by_abbrev("O").unwrap().generate(Scale::Tiny);
    let cores = core_decomposition(&g);
    let hcd = phcd(&g, &cores, &Executor::sequential());
    let ctx = SearchContext::new(&g, &cores, &hcd);
    let exec = Executor::assist(2);
    let levels = core_set_scores(&ctx, &Metric::AverageDegree, &exec);
    // K_0 is the whole graph.
    assert_eq!(levels[0].primaries.n, g.num_vertices() as u64);
    // Scores of K_k must be derived from monotonically shrinking sets.
    for w in levels.windows(2) {
        assert!(w[1].primaries.n <= w[0].primaries.n);
        assert!(w[1].primaries.m2 <= w[0].primaries.m2);
    }
}
