//! Determinism guarantees across runs, seeds, and execution modes.

use hcd::prelude::*;

#[test]
fn phcd_output_is_bitwise_identical_across_modes_and_runs() {
    let g = Dataset::by_abbrev("A").unwrap().generate(Scale::Tiny);
    let cores = core_decomposition(&g);
    let reference = phcd(&g, &cores, &Executor::sequential());
    for _ in 0..3 {
        for exec in [
            Executor::simulated(5),
            Executor::assist(2),
            Executor::assist(4),
        ] {
            let h = phcd(&g, &cores, &exec);
            assert_eq!(reference.nodes(), h.nodes());
            assert_eq!(reference.tids(), h.tids());
            assert_eq!(reference.roots(), h.roots());
        }
    }
}

#[test]
fn generators_are_seed_stable() {
    for d in DATASETS.iter() {
        assert_eq!(
            d.generate(Scale::Tiny),
            d.generate(Scale::Tiny),
            "{}",
            d.abbrev
        );
    }
    assert_ne!(rmat(10, 8, None, 1), rmat(10, 8, None, 2));
}

#[test]
fn search_results_are_mode_independent() {
    let g = Dataset::by_abbrev("H").unwrap().generate(Scale::Tiny);
    let cores = core_decomposition(&g);
    let hcd = phcd(&g, &cores, &Executor::sequential());
    let ctx = SearchContext::new(&g, &cores, &hcd);
    for metric in Metric::ALL {
        let reference = pbks(&ctx, &metric, &Executor::sequential());
        for exec in [Executor::assist(4), Executor::simulated(3)] {
            assert_eq!(reference, pbks(&ctx, &metric, &exec), "{}", metric.name());
        }
    }
}

#[test]
fn vertex_ranks_identical_across_modes() {
    let g = Dataset::by_abbrev("LJ").unwrap().generate(Scale::Tiny);
    let cores = core_decomposition(&g);
    let a = VertexRanks::compute(&cores, &Executor::sequential());
    let b = VertexRanks::compute(&cores, &Executor::assist(4));
    let c = VertexRanks::compute(&cores, &Executor::simulated(7));
    assert_eq!(a.vsort(), b.vsort());
    assert_eq!(b.vsort(), c.vsort());
    assert_eq!(a.ranks(), c.ranks());
}
