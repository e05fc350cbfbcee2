//! The §VI extension in action: hierarchical truss decomposition with
//! PHTD, the PHCD paradigm transferred from vertices to edges.
//!
//! ```text
//! cargo run --release --example truss_hierarchy
//! ```

use hcd::prelude::*;

fn main() -> Result<(), ParError> {
    let g = Dataset::by_abbrev("H")
        .expect("registry")
        .generate(Scale::Tiny);
    println!("graph: n={} m={}", g.num_vertices(), g.num_edges());

    // 1. Truss decomposition (serial support peeling).
    let (idx, truss) = truss_decomposition(&g);
    println!("tmax = {}", truss.tmax());
    let shells = truss.shells();
    for (k, shell) in shells.iter().enumerate().filter(|(_, s)| !s.is_empty()) {
        println!("  trussness {k:>3}: {} edges", shell.len());
    }

    // 2. Parallel hierarchy construction (PHTD), verified against the
    //    brute-force oracle.
    let exec = Executor::assist(std::thread::available_parallelism().map_or(2, |p| p.get()));
    let htd = try_phtd(&g, &idx, &truss, &exec)?;
    assert_eq!(
        htd.canonicalize(),
        naive_htd(&g, &idx, &truss).canonicalize(),
        "PHTD must match the definition-based oracle"
    );
    println!("HTD: {} tree nodes", htd.num_nodes());

    // 3. The innermost truss community: vertices of the deepest node.
    let deepest = (0..htd.num_nodes() as u32)
        .max_by_key(|&i| htd.node(i).k)
        .expect("non-empty graph");
    let node = htd.node(deepest);
    let mut members: Vec<u32> = htd
        .subtree_edges(deepest)
        .into_iter()
        .flat_map(|e| {
            let (u, v) = idx.endpoints(e);
            [u, v]
        })
        .collect();
    members.sort_unstable();
    members.dedup();
    println!(
        "innermost {}-truss: {} vertices, {} edges",
        node.k,
        members.len(),
        htd.subtree_edges(deepest).len()
    );
    Ok(())
}
