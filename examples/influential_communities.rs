//! Influential community search on the HCD (paper SVII, ICP-Index-style).
//!
//! Vertices carry influence weights; the influence of a k-core is its
//! minimum member weight. The HCD turns top-r queries into one parallel
//! min-accumulation plus a scan.
//!
//! ```text
//! cargo run --release --example influential_communities
//! ```

use hcd::prelude::*;
use rand::{Rng, SeedableRng};

fn main() {
    let g = Dataset::by_abbrev("A")
        .expect("registry")
        .generate(Scale::Tiny);
    let exec = Executor::assist(std::thread::available_parallelism().map_or(2, |p| p.get()));
    let cores = pkc_core_decomposition(&g, &exec);
    let hcd = phcd(&g, &cores, &exec);
    let ctx = SearchContext::with_executor(&g, &cores, &hcd, &exec);

    // Synthetic influence: correlated with degree plus noise (hubs tend
    // to be influential).
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(4);
    let weights: Vec<f64> = g
        .vertices()
        .map(|v| g.degree(v) as f64 * rng.gen_range(0.5..1.5))
        .collect();

    let index = InfluenceIndex::build(&ctx, &weights, &exec);
    for k in [2u32, 4, 8] {
        println!("top-5 influential communities with minimum degree {k}:");
        for c in index.top_r(&hcd, k, 5) {
            let members = hcd.subtree_vertices(c.node);
            println!(
                "  k={:<3} influence={:<8.2} |community|={}",
                c.k,
                c.influence,
                members.len()
            );
        }
    }
}
