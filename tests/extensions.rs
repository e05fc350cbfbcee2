//! Integration tests for the SVI/SVII extensions: truss hierarchy and
//! dynamic maintenance.

use hcd::prelude::*;

#[test]
fn truss_hierarchy_on_dataset_standins() {
    for abbrev in ["H", "SK"] {
        let g = Dataset::by_abbrev(abbrev).unwrap().generate(Scale::Tiny);
        let (idx, truss) = truss_decomposition(&g);
        let exec = Executor::assist(4);
        let htd = try_phtd(&g, &idx, &truss, &exec).unwrap();
        // Edges partition into nodes; trussness consistent.
        let total: usize = htd.nodes().iter().map(|n| n.edges.len()).sum();
        assert_eq!(total, idx.len(), "{abbrev}");
        for node in htd.nodes() {
            for &e in &node.edges {
                assert_eq!(truss.trussness(e), node.k);
            }
        }
        // Matches the oracle.
        assert_eq!(
            htd.canonicalize(),
            naive_htd(&g, &idx, &truss).canonicalize(),
            "{abbrev}"
        );
    }
}

#[test]
fn coreness_and_trussness_relate() {
    // Standard fact: t(e) - 1 <= min(c(u), c(v)) for every edge (u,v).
    let g = Dataset::by_abbrev("O").unwrap().generate(Scale::Tiny);
    let cores = core_decomposition(&g);
    let (idx, truss) = truss_decomposition(&g);
    for e in 0..idx.len() as u32 {
        let (u, v) = idx.endpoints(e);
        assert!(
            truss.trussness(e) - 1 <= cores.coreness(u).min(cores.coreness(v)),
            "edge ({u},{v})"
        );
    }
}

#[test]
fn dynamic_maintenance_on_dataset_standin() {
    use rand::{Rng, SeedableRng};
    let g = Dataset::by_abbrev("AS").unwrap().generate(Scale::Tiny);
    let mut dc = DynamicCore::from_csr(&g);
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(6);
    let n = g.num_vertices() as u32;
    let mut known: Vec<(u32, u32)> = g.edges().collect();
    for step in 0..300 {
        if rng.gen_bool(0.5) {
            let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if dc.insert_edge(u, v) {
                known.push((u, v));
            }
        } else {
            let i = rng.gen_range(0..known.len());
            let (u, v) = known.swap_remove(i);
            dc.remove_edge(u, v);
        }
        if step % 50 == 49 {
            let fresh = core_decomposition(&dc.graph().to_csr());
            assert_eq!(dc.coreness_slice(), fresh.as_slice(), "step {step}");
        }
    }
    // The hierarchy of the maintained graph is the true hierarchy.
    let exec = Executor::sequential();
    let cores = dc.decomposition();
    let snapshot = dc.graph().csr();
    let hcd = try_phcd(snapshot, &cores, &exec).unwrap();
    hcd.validate(snapshot, &cores).unwrap();
}
