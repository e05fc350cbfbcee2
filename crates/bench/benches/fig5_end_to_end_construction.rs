//! Figure 5: (PKC + PHCD)'s speedup over (PKC + LCPS), i.e. HCD
//! construction including the cost of computing the core decomposition.

use hcd_bench::{
    banner, datasets, executor, ratio, scale, time_best, FIGURE_DATASETS, THREAD_SWEEP,
};
use hcd_core::{lcps, try_phcd};
use hcd_decomp::try_pkc_core_decomposition;

fn main() {
    banner("Figure 5: (PKC + PHCD)'s speedup to (PKC + LCPS)");
    print!("{:<8}", "Dataset");
    for p in THREAD_SWEEP {
        print!(" {:>8}", format!("p={p}"));
    }
    println!();
    for d in datasets(&FIGURE_DATASETS) {
        let g = d.generate(scale());
        // Baseline: serial PKC + serial LCPS.
        let seq = executor(1);
        let (cores, pkc1) = time_best(&seq, |e| try_pkc_core_decomposition(&g, e).unwrap());
        let (_, lcps1) = time_best(&seq, |_| lcps(&g, &cores));
        let base = pkc1 + lcps1;

        print!("{:<8}", d.abbrev);
        for p in THREAD_SWEEP {
            let exec = executor(p);
            let (cores_p, pkc_t) = time_best(&exec, |e| try_pkc_core_decomposition(&g, e).unwrap());
            let (_, phcd_t) = time_best(&exec, |e| try_phcd(&g, &cores_p, e).unwrap());
            print!(" {:>8.2}", ratio(base, pkc_t + phcd_t));
        }
        println!();
    }
    println!("\n(paper shape: like Figure 4 but with a slightly lower ratio,");
    println!(" because parallel core decomposition scales worse than PHCD.)");
}
