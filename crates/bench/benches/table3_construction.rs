//! Table III: time cost of HCD construction.
//!
//! Columns (as in the paper): serial PHCD runtime with its speedup
//! relative to LB (the union-find lower bound) and LCPS; then the
//! max-thread PHCD runtime with its speedup relative to LB and RC (the
//! local-core-search baseline). Ratios below 1 for LB mean PHCD is
//! slower than the bare lower bound, as expected.

use hcd_bench::{banner, datasets, executor, ratio, scale, secs, time_best, THREAD_SWEEP};
use hcd_core::rc::rc_confirm_parents;
use hcd_core::{lb::try_lb_union_all, lcps, try_phcd};
use hcd_decomp::core_decomposition;

fn main() {
    banner("Table III: time cost of HCD construction");
    let p_max = *THREAD_SWEEP.last().unwrap();
    println!(
        "{:<8} | {:>10} {:>8} {:>8} | {:>10} {:>8} {:>8}",
        "Dataset", "PHCD(1)s", "LB", "LCPS", "PHCD(p)s", "LB", "RC"
    );
    for d in datasets(&[]) {
        let g = d.generate(scale());
        let cores = core_decomposition(&g);

        // Serial column.
        let seq = executor(1);
        let (hcd, phcd1) = time_best(&seq, |e| try_phcd(&g, &cores, e).unwrap());
        let (_, lb1) = time_best(&seq, |e| try_lb_union_all(&g, e).unwrap());
        let (hcd_lcps, lcps1) = time_best(&seq, |_| lcps(&g, &cores));
        assert_eq!(
            hcd.canonicalize(),
            hcd_lcps.canonicalize(),
            "PHCD and LCPS disagree on {}",
            d.abbrev
        );

        // Parallel column at the paper's max thread count.
        let par = executor(p_max);
        let (_, phcd_p) = time_best(&par, |e| try_phcd(&g, &cores, e).unwrap());
        let (_, lb_p) = time_best(&par, |e| try_lb_union_all(&g, e).unwrap());
        let (_, rc_p) = time_best(&par, |e| rc_confirm_parents(&g, &cores, &hcd, e).unwrap());

        println!(
            "{:<8} | {:>10} {:>7.2}x {:>7.2}x | {:>10} {:>7.2}x {:>7.2}x",
            d.abbrev,
            secs(phcd1),
            ratio(lb1, phcd1),
            ratio(lcps1, phcd1),
            secs(phcd_p),
            ratio(lb_p, phcd_p),
            ratio(rc_p, phcd_p),
        );
    }
    println!("\n(paper shape: serial PHCD beats LCPS 1.24-2.33x; PHCD within ~2x");
    println!(" of LB; RC one to two orders of magnitude slower than PHCD.)");
}
