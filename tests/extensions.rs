//! Integration tests for the SVI/SVII extensions: truss hierarchy,
//! dynamic maintenance, influential communities, and k-ECC.

use hcd::prelude::*;

#[test]
fn truss_hierarchy_on_dataset_standins() {
    for abbrev in ["H", "SK"] {
        let g = Dataset::by_abbrev(abbrev).unwrap().generate(Scale::Tiny);
        let (idx, truss) = truss_decomposition(&g);
        let exec = Executor::assist(4);
        let htd = phtd(&g, &idx, &truss, &exec);
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
    // The refreshed hierarchy is the true hierarchy.
    let exec = Executor::sequential();
    let cores = dc.decomposition();
    let (snapshot, hcd) = dc.hcd(&exec);
    hcd.validate(snapshot, &cores).unwrap();
}

#[test]
fn influence_index_on_dataset_standin() {
    let g = Dataset::by_abbrev("LJ").unwrap().generate(Scale::Tiny);
    let cores = core_decomposition(&g);
    let hcd = phcd(&g, &cores, &Executor::sequential());
    let ctx = SearchContext::new(&g, &cores, &hcd);
    let weights: Vec<f64> = g.vertices().map(|v| g.degree(v) as f64).collect();
    let idx = InfluenceIndex::build(&ctx, &weights, &Executor::assist(3));
    let top = idx.top_r(&hcd, 2, 5);
    for c in &top {
        // Influence really is the min weight of the community.
        let members = hcd.subtree_vertices(c.node);
        let want = members
            .iter()
            .map(|&v| weights[v as usize])
            .fold(f64::INFINITY, f64::min);
        assert_eq!(c.influence, want);
        assert!(c.k >= 2);
    }
}

#[test]
fn kecc_nests_within_cores() {
    // Edge connectivity <= min degree, so every k-ECC lies inside the
    // k-core set.
    let g = core_tree(2, 3, 10, 8);
    let cores = core_decomposition(&g);
    for k in 1..4u32 {
        for part in k_edge_connected_components(&g, k) {
            for v in part {
                assert!(cores.coreness(v) >= k, "v={v} k={k}");
            }
        }
    }
}
