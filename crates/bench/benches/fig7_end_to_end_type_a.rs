//! Figure 7: end-to-end type-A search — (PKC + PHCD + PBKS)'s speedup
//! over (PKC + LCPS + BKS), inputs included.

use hcd_bench::{
    banner, datasets, executor, ratio, scale, time_best, FIGURE_DATASETS, THREAD_SWEEP,
};
use hcd_core::{lcps, try_phcd};
use hcd_decomp::try_pkc_core_decomposition;
use hcd_search::bks::bks_scores;
use hcd_search::pbks::try_pbks_scores;
use hcd_search::{Metric, SearchContext};

fn main() {
    banner("Figure 7: (PKC+PHCD+PBKS)'s speedup to (PKC+LCPS+BKS), type-A");
    let metric = Metric::AverageDegree;
    print!("{:<8}", "Dataset");
    for p in THREAD_SWEEP {
        print!(" {:>8}", format!("p={p}"));
    }
    println!();
    for d in datasets(&FIGURE_DATASETS) {
        let g = d.generate(scale());
        // Serial baseline pipeline.
        let seq = executor(1);
        let (cores, pkc1) = time_best(&seq, |e| try_pkc_core_decomposition(&g, e).unwrap());
        let (hcd1, lcps1) = time_best(&seq, |_| lcps(&g, &cores));
        let (ctx1, pre1) = time_best(&seq, |e| {
            SearchContext::try_with_executor(&g, &cores, &hcd1, e).unwrap()
        });
        let (_, bks1) = time_best(&seq, |_| bks_scores(&ctx1, &metric));
        let base = pkc1 + lcps1 + pre1 + bks1;

        print!("{:<8}", d.abbrev);
        for p in THREAD_SWEEP {
            let exec = executor(p);
            let (cores_p, t_pkc) = time_best(&exec, |e| try_pkc_core_decomposition(&g, e).unwrap());
            let (hcd_p, t_phcd) = time_best(&exec, |e| try_phcd(&g, &cores_p, e).unwrap());
            let (ctx_p, t_pre) = time_best(&exec, |e| {
                SearchContext::try_with_executor(&g, &cores_p, &hcd_p, e).unwrap()
            });
            let (_, t_pbks) = time_best(&exec, |e| try_pbks_scores(&ctx_p, &metric, e).unwrap());
            print!(" {:>8.2}", ratio(base, t_pkc + t_phcd + t_pre + t_pbks));
        }
        println!();
    }
    println!("\n(paper shape: ~8-18x at 40 threads — lower than Figure 6 because");
    println!(" the input computation (CD + HCD) scales worse than PBKS itself.)");
}
