//! Community-metric survey: best k-core under every metric, plus the
//! best-k extension (paper §VI).
//!
//! ```text
//! cargo run --release --example community_metrics
//! ```

use hcd::prelude::*;

fn main() -> Result<(), ParError> {
    // A web-style stand-in: power-law backbone plus clique overlays gives
    // a rich hierarchy where different metrics pick different cores.
    let g = Dataset::by_abbrev("SK")
        .expect("registry")
        .generate(Scale::Tiny);
    let exec = Executor::assist(std::thread::available_parallelism().map_or(2, |p| p.get()));
    let cores = try_pkc_core_decomposition(&g, &exec)?;
    let hcd = try_phcd(&g, &cores, &exec)?;
    let ctx = SearchContext::try_with_executor(&g, &cores, &hcd, &exec)?;

    println!(
        "graph: n={} m={} kmax={} |T|={}",
        g.num_vertices(),
        g.num_edges(),
        cores.kmax(),
        hcd.num_nodes()
    );
    println!("\nbest k-core per metric (PBKS, verified against serial BKS):");
    println!(
        "{:<24} {:>4} {:>10} {:>8} {:>8}",
        "metric", "k", "score", "|S|", "m(S)"
    );
    for metric in Metric::ALL {
        let best = try_pbks(&ctx, &metric, &exec)?.expect("non-empty graph");
        let serial = bks(&ctx, &metric).expect("non-empty graph");
        assert_eq!(best, serial, "PBKS and BKS disagree on {}", metric.name());
        println!(
            "{:<24} {:>4} {:>10.4} {:>8} {:>8}",
            metric.name(),
            best.k,
            best.score,
            best.primaries.n,
            best.primaries.m() as u64,
        );
    }

    println!("\nbest k over k-core *sets* (§VI extension):");
    for metric in [
        Metric::AverageDegree,
        Metric::InternalDensity,
        Metric::ClusteringCoefficient,
    ] {
        let best = try_best_k(&ctx, &metric, &exec)?.expect("non-empty graph");
        println!(
            "  {:<24} best k = {:<3} score {:.4}",
            metric.name(),
            best.k,
            best.score
        );
    }
    Ok(())
}
