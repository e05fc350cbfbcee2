//! Extension (paper §VI): parallel hierarchical truss decomposition.
//!
//! Reports, per dataset: truss decomposition time, serial PHTD time, and
//! PHTD's simulated/real speedup across the thread sweep — demonstrating
//! that the PHCD paradigm transfers to the k-truss model as §VI claims.

use hcd_bench::{banner, datasets, executor, ratio, scale, secs, time_best, THREAD_SWEEP};
use hcd_truss::{truss_decomposition, try_phtd};

fn main() {
    banner("Extension (SVI): parallel hierarchical truss decomposition");
    print!("{:<8} {:>10} {:>10}", "Dataset", "decomp(s)", "PHTD(1)s");
    for p in &THREAD_SWEEP[1..] {
        print!(" {:>8}", format!("p={p}"));
    }
    println!("  (speedup over PHTD(1))");
    for d in datasets(&["LJ", "H", "O", "SK"]) {
        let g = d.generate(scale());
        let (td_out, td_t) = time_best(&executor(1), |_| truss_decomposition(&g));
        let (idx, truss) = td_out;
        let (_, t1) = time_best(&executor(1), |e| try_phtd(&g, &idx, &truss, e).unwrap());
        print!("{:<8} {:>10} {:>10}", d.abbrev, secs(td_t), secs(t1));
        for &p in &THREAD_SWEEP[1..] {
            let exec = executor(p);
            let (_, tp) = time_best(&exec, |e| try_phtd(&g, &idx, &truss, e).unwrap());
            print!(" {:>8.2}", ratio(t1, tp));
        }
        println!();
    }
    println!("\n(expected: the same scaling behaviour as PHCD — the union-find-");
    println!(" with-pivot paradigm is model-agnostic, as the paper's SVI argues.)");
}
