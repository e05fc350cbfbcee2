//! Figure 4: PHCD's speedup over LCPS as threads grow.

use hcd_bench::{
    banner, datasets, executor, ratio, scale, time_best, FIGURE_DATASETS, THREAD_SWEEP,
};
use hcd_core::{lcps, try_phcd};
use hcd_decomp::core_decomposition;

fn main() {
    banner("Figure 4: PHCD's speedup to LCPS");
    print!("{:<8}", "Dataset");
    for p in THREAD_SWEEP {
        print!(" {:>8}", format!("p={p}"));
    }
    println!();
    for d in datasets(&FIGURE_DATASETS) {
        let g = d.generate(scale());
        let cores = core_decomposition(&g);
        let (_, lcps_t) = time_best(&executor(1), |_| lcps(&g, &cores));
        print!("{:<8}", d.abbrev);
        for p in THREAD_SWEEP {
            let exec = executor(p);
            let (_, t) = time_best(&exec, |e| try_phcd(&g, &cores, e).unwrap());
            print!(" {:>8.2}", ratio(lcps_t, t));
        }
        println!();
    }
    println!("\n(paper shape: up to ~22x at 40 threads, larger graphs scale better;");
    println!(" the p=1 column is the serial 1.24-2.33x advantage of PHCD itself.)");
}
