//! Measures what arming the latency histograms costs on a serve-small
//! style workload — the acceptance budget is 5% of disarmed wall time.
//!
//! The estimate is the median, over `PAIRS` interleaved pairs, of the
//! per-pair ratio armed / disarmed. Each side of a pair runs the same
//! workload on a fresh service, back to back, with the order alternating
//! from pair to pair, so frequency drift and cache warm-up hit both sides
//! equally; the median discards the pairs a scheduler hiccup spoiled.
//! The workload takes about 0.3 s per side on a 2-vCPU Xeon, so timer
//! resolution and one-off stalls stay far below the budget.
//! It matches `serve_baseline` (seeded BA graph, mixed read/update
//! stream) but runs in-memory: WAL fsyncs would drown the nanoseconds
//! this bench is trying to see.
//!
//! Histograms are armed *without* metrics: the disarmed side then pays
//! exactly one relaxed load per timer site, which is the real cost of
//! shipping the instrumentation to users who never turn it on.
//!
//! * `HCD_BENCH_ASSERT_OVERHEAD=1` — fail (panic) when the median ratio
//!   exceeds 1.05; CI sets this.

use std::time::Instant;

use hcd_bench::banner;
use hcd_datasets::barabasi_albert;
use hcd_graph::CsrGraph;
use hcd_par::Executor;
use hcd_serve::{run_workload, HcdService, WorkloadConfig};

const PAIRS: usize = 15;

/// Seconds one run of the workload takes on a fresh service.
fn run(g: &CsrGraph, cfg: &WorkloadConfig, armed: bool) -> f64 {
    let exec = Executor::sequential();
    exec.set_histograms_armed(armed);
    let service = HcdService::try_new(g, &exec).expect("initial build");
    let start = Instant::now();
    run_workload(&service, cfg, &exec).expect("workload");
    start.elapsed().as_secs_f64()
}

fn main() {
    banner("histogram overhead: armed vs disarmed serve-small workload");
    let g = barabasi_albert(2_000, 4, 42);
    let cfg = WorkloadConfig {
        seed: 42,
        ops: 1920,
        batch_size: 24,
        read_ratio: 0.75,
        universe: g.num_vertices() as u32 + 64,
        hot_fraction: 0.0,
    };

    let mut ratios = Vec::with_capacity(PAIRS);
    for pair in 0..PAIRS {
        let (disarmed, armed) = if pair % 2 == 0 {
            let d = run(&g, &cfg, false);
            (d, run(&g, &cfg, true))
        } else {
            let a = run(&g, &cfg, true);
            (run(&g, &cfg, false), a)
        };
        let ratio = armed / disarmed;
        println!("pair {pair:2} disarmed = {disarmed:.4}s armed = {armed:.4}s ratio = {ratio:.4}");
        ratios.push(ratio);
    }
    ratios.sort_by(f64::total_cmp);
    let median = ratios[PAIRS / 2];
    let (q1, q3) = (ratios[PAIRS / 4], ratios[3 * PAIRS / 4]);
    println!("ratio quartiles  = {q1:.4} / {median:.4} / {q3:.4}");
    println!(
        "overhead         = {:+.2}% (median pair)",
        (median - 1.0) * 100.0
    );
    if std::env::var("HCD_BENCH_ASSERT_OVERHEAD").as_deref() == Ok("1") {
        assert!(
            median <= 1.05,
            "armed histograms cost {:.2}% wall time, over the 5% budget",
            (median - 1.0) * 100.0
        );
        println!("within the 5% budget (asserted)");
    }
}
