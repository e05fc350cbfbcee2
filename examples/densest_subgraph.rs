//! Approximate densest subgraph search (the paper's Table IV workflow).
//!
//! Compares CoreApp (kmax-core baseline), Opt-D (serial BKS), PBKS-D
//! (parallel), the exact optimum (Goldberg's flow-based algorithm), and
//! checks whether PBKS-D's output contains the maximum clique.
//!
//! ```text
//! cargo run --release --example densest_subgraph
//! ```

use std::time::Instant;

use hcd::prelude::*;

fn main() -> Result<(), ParError> {
    // A web-crawl-style graph: power-law backbone plus link-farm cliques.
    let g = Dataset::by_abbrev("A")
        .expect("registry")
        .generate(Scale::Tiny);
    println!(
        "graph: {} vertices, {} edges",
        g.num_vertices(),
        g.num_edges()
    );

    let exec = Executor::assist(std::thread::available_parallelism().map_or(2, |p| p.get()));
    let cores = try_pkc_core_decomposition(&g, &exec)?;
    let hcd = try_phcd(&g, &cores, &exec)?;
    let ctx = SearchContext::try_with_executor(&g, &cores, &hcd, &exec)?;

    // CoreApp-style baseline: the kmax-core.
    let t = Instant::now();
    let (capp_vertices, capp_davg) = coreapp(&g, &cores).expect("non-empty");
    println!(
        "CoreApp : davg {:>8.3}  |S| {:>5}  ({:?})",
        capp_davg,
        capp_vertices.len(),
        t.elapsed()
    );

    // Opt-D: serial BKS specialised to average degree.
    let t = Instant::now();
    let od = opt_d(&ctx).expect("non-empty");
    println!(
        "Opt-D   : davg {:>8.3}  |S| {:>5}  ({:?})",
        od.score,
        od.primaries.n,
        t.elapsed()
    );

    // PBKS-D: the paper's parallel search.
    let t = Instant::now();
    let pd = try_pbks_d(&ctx, &exec)?.expect("non-empty");
    println!(
        "PBKS-D  : davg {:>8.3}  |S| {:>5}  ({:?})",
        pd.score,
        pd.primaries.n,
        t.elapsed()
    );
    assert_eq!(od.score, pd.score, "Opt-D and PBKS-D must agree");

    // Exact optimum via Goldberg's parametric min-cut (density = davg/2).
    let t = Instant::now();
    let (_, exact_density) = densest_subgraph(&g).expect("non-empty");
    println!(
        "Exact   : davg {:>8.3}           ({:?})",
        2.0 * exact_density,
        t.elapsed()
    );
    assert!(
        pd.score >= exact_density, // davg >= 0.5 * exact davg
        "0.5-approximation violated"
    );
    println!(
        "approximation ratio: {:.3} (guarantee: >= 0.5)",
        pd.score / (2.0 * exact_density)
    );

    // Maximum clique containment (Table IV's MC ⊆ S* column).
    let t = Instant::now();
    let mc = max_clique(&g, &cores);
    let s_star = hcd.subtree_vertices(pd.node);
    let contained = hcd_search::clique::contained_in(&mc, &s_star);
    println!(
        "max clique: size {} ({:?}); contained in S*: {}",
        mc.len(),
        t.elapsed(),
        if contained { "yes" } else { "no" }
    );
    println!(
        "|S*|/n = {:.4}%",
        100.0 * s_star.len() as f64 / g.num_vertices() as f64
    );
    Ok(())
}
