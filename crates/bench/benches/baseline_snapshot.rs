//! Produces the committed metrics baseline for regression diffing.
//!
//! Runs the full pipeline (PKC core decomposition → PHCD construction →
//! PBKS search) on the small deterministic RMAT graph with region
//! metering enabled and writes one `hcd-metrics-v1` snapshot. CI diffs
//! fresh runs against the committed copy with `hcd-cli metrics-diff`.
//!
//! The pipeline runs on `Executor::assist(4)`. Every executor mode walks
//! identical chunk tables, so the algorithm counters also match a
//! sequential or simulated run under `metrics-diff --counters-only`.
//! `HCD_BENCH_BASELINE_OUT` overrides the output path (default
//! `bench/baselines/rmat-small.json`).
//!
//! The graph is generated from a fixed seed, so counter values
//! (peeling rounds, union counts, triangle probes) are reproducible;
//! only the nanosecond timings vary between machines, which the diff
//! threshold absorbs.

use hcd_bench::banner;
use hcd_core::try_phcd;
use hcd_datasets::rmat;
use hcd_decomp::try_pkc_core_decomposition;
use hcd_par::Executor;
use hcd_search::{try_pbks, Metric, SearchContext};

fn main() {
    banner("baseline snapshot: RMAT-small pipeline metrics");
    // Cargo runs bench binaries from the package dir, so anchor the
    // default at the workspace root rather than the current directory.
    let out = std::env::var("HCD_BENCH_BASELINE_OUT")
        .ok()
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| {
            format!(
                "{}/../../bench/baselines/rmat-small.json",
                env!("CARGO_MANIFEST_DIR")
            )
        });

    let g = rmat(12, 8, None, 42);
    let exec = Executor::assist(4).with_metrics();
    let cores = try_pkc_core_decomposition(&g, &exec).expect("pkc");
    let hcd = try_phcd(&g, &cores, &exec).unwrap();
    let ctx = SearchContext::try_with_executor(&g, &cores, &hcd, &exec).expect("search context");
    let best = try_pbks(&ctx, &Metric::AverageDegree, &exec).expect("pbks");

    let m = exec.take_metrics();
    if let Some(dir) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(dir).expect("create baseline dir");
    }
    std::fs::write(&out, m.to_json()).expect("write baseline");

    println!(
        "n={} m={} kmax={} nodes={} best_k={}",
        g.num_vertices(),
        g.num_edges(),
        cores.kmax(),
        hcd.num_nodes(),
        best.map_or(0, |b| b.k),
    );
    println!(
        "wrote {out}: {} regions, {} counters",
        m.regions.len(),
        m.counters.len()
    );
}
