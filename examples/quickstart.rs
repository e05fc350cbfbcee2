//! Quickstart: build a graph, construct its HCD with PHCD, and search it.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use hcd::prelude::*;

fn main() -> Result<(), ParError> {
    // A small social-style graph: power-law R-MAT (varied coreness).
    let g = rmat(12, 8, None, 42);
    println!(
        "graph: {} vertices, {} edges, max degree {}",
        g.num_vertices(),
        g.num_edges(),
        g.max_degree()
    );

    // 1. Core decomposition (parallel PKC-style peeling).
    let exec = Executor::assist(std::thread::available_parallelism().map_or(2, |p| p.get()));
    let cores = try_pkc_core_decomposition(&g, &exec)?;
    println!("kmax = {}", cores.kmax());

    // 2. Hierarchical core decomposition with PHCD.
    let hcd = try_phcd(&g, &cores, &exec)?;
    println!(
        "HCD: {} tree nodes, {} roots",
        hcd.num_nodes(),
        hcd.roots().len()
    );
    let per_level = cores_per_level(&hcd, cores.kmax());
    for (k, count) in per_level.iter().enumerate() {
        if *count > 0 {
            println!("  level {k:>3}: {count} k-core(s)");
        }
    }

    // 3. Search for the best k-core under two metrics.
    let ctx = SearchContext::try_with_executor(&g, &cores, &hcd, &exec)?;
    for metric in [Metric::AverageDegree, Metric::Conductance] {
        let best = try_pbks(&ctx, &metric, &exec)?.expect("non-empty graph");
        println!(
            "best {}: k={} with score {:.4} ({} vertices)",
            metric.name(),
            best.k,
            best.score,
            best.primaries.n
        );
    }

    // 4. Local query: the 3-core around vertex 0.
    if let Some(core) = core_containing(&hcd, &cores, 0, 3.min(cores.coreness(0))) {
        println!(
            "the {}-core containing vertex 0 has {} vertices",
            3.min(cores.coreness(0)),
            core.len()
        );
    }
    Ok(())
}
