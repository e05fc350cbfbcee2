//! Determinism guarantees across runs, seeds, and execution modes.

use hcd::prelude::*;

#[test]
fn phcd_output_is_bitwise_identical_across_modes_and_runs() {
    let g = Dataset::by_abbrev("A").unwrap().generate(Scale::Tiny);
    let cores = core_decomposition(&g);
    let reference = try_phcd(&g, &cores, &Executor::sequential()).unwrap();
    for _ in 0..3 {
        for exec in [
            Executor::simulated(5),
            Executor::assist(2),
            Executor::assist(4),
        ] {
            let h = try_phcd(&g, &cores, &exec).unwrap();
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
    let hcd = try_phcd(&g, &cores, &Executor::sequential()).unwrap();
    let ctx = SearchContext::new(&g, &cores, &hcd);
    for metric in Metric::ALL {
        let reference = try_pbks(&ctx, &metric, &Executor::sequential()).unwrap();
        for exec in [Executor::assist(4), Executor::simulated(3)] {
            assert_eq!(
                reference,
                try_pbks(&ctx, &metric, &exec).unwrap(),
                "{}",
                metric.name()
            );
        }
    }
}

#[test]
fn vertex_ranks_identical_across_modes() {
    let g = Dataset::by_abbrev("LJ").unwrap().generate(Scale::Tiny);
    let cores = core_decomposition(&g);
    let a = VertexRanks::try_compute(&cores, &Executor::sequential()).unwrap();
    let b = VertexRanks::try_compute(&cores, &Executor::assist(4)).unwrap();
    let c = VertexRanks::try_compute(&cores, &Executor::simulated(7)).unwrap();
    assert_eq!(a.vsort(), b.vsort());
    assert_eq!(b.vsort(), c.vsort());
    assert_eq!(a.ranks(), c.ranks());
}
