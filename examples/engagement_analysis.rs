//! User-engagement analysis on the HCD (paper §I, "applications").
//!
//! The coreness of a user estimates their engagement level, and the
//! paper notes (citing [14], [15]) that (i) average engagement rises
//! with coreness and (ii) the *position in the HCD* refines the estimate
//! further. This example generates a social graph with synthetic
//! engagement (noisy, correlated with coreness) and reproduces both
//! observations.
//!
//! ```text
//! cargo run --release --example engagement_analysis
//! ```

use hcd::prelude::*;
use rand::{Rng, SeedableRng};

fn main() -> Result<(), ParError> {
    let g = rmat(13, 10, None, 7);
    let exec = Executor::assist(std::thread::available_parallelism().map_or(2, |p| p.get()));
    let cores = try_pkc_core_decomposition(&g, &exec)?;
    let hcd = try_phcd(&g, &cores, &exec)?;

    // Synthetic engagement: proportional to coreness with heavy noise
    // (mimicking check-in counts).
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(99);
    let engagement: Vec<f64> = g
        .vertices()
        .map(|v| {
            let base = cores.coreness(v) as f64;
            base * rng.gen_range(0.5..1.5) + rng.gen_range(0.0..2.0)
        })
        .collect();

    // Observation 1: average engagement per coreness is increasing.
    let kmax = cores.kmax() as usize;
    let mut sum = vec![0.0f64; kmax + 1];
    let mut cnt = vec![0usize; kmax + 1];
    for v in g.vertices() {
        sum[cores.coreness(v) as usize] += engagement[v as usize];
        cnt[cores.coreness(v) as usize] += 1;
    }
    println!("coreness -> avg engagement (population)");
    let mut prev = f64::NEG_INFINITY;
    let mut increasing = 0;
    let mut total_levels = 0;
    for k in 0..=kmax {
        if cnt[k] == 0 {
            continue;
        }
        let avg = sum[k] / cnt[k] as f64;
        println!("  {k:>3} -> {avg:>7.2}   ({} users)", cnt[k]);
        if avg > prev {
            increasing += 1;
        }
        total_levels += 1;
        prev = avg;
    }
    println!("monotone steps: {increasing}/{total_levels}");

    // Observation 2: within one shell, hierarchy depth separates users.
    let k_probe = (kmax / 2).max(1) as u32;
    let mut by_depth: std::collections::BTreeMap<usize, (f64, usize)> = Default::default();
    for v in g.vertices().filter(|&v| cores.coreness(v) == k_probe) {
        let (depth, _) = hierarchy_position(&hcd, v);
        let e = by_depth.entry(depth).or_insert((0.0, 0));
        e.0 += engagement[v as usize];
        e.1 += 1;
    }
    println!("\nwithin the {k_probe}-shell, engagement by hierarchy depth:");
    for (depth, (s, c)) in by_depth {
        println!("  depth {depth:>2}: avg {:>7.2} ({c} users)", s / c as f64);
    }
    Ok(())
}
