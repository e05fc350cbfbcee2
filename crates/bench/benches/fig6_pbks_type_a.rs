//! Figure 6: PBKS's speedup over BKS for type-A score computation
//! (preprocessing excluded, as in the paper).

use hcd_bench::{
    banner, datasets, executor, ratio, scale, time_best, FIGURE_DATASETS, THREAD_SWEEP,
};
use hcd_core::try_phcd;
use hcd_decomp::core_decomposition;
use hcd_search::bks::{bks_scores_with, SortedAdjacency};
use hcd_search::pbks::try_pbks_scores;
use hcd_search::{Metric, SearchContext};

fn main() {
    banner("Figure 6: PBKS's speedup to BKS (type-A)");
    let metric = Metric::AverageDegree;
    print!("{:<8}", "Dataset");
    for p in THREAD_SWEEP {
        print!(" {:>8}", format!("p={p}"));
    }
    println!();
    for d in datasets(&FIGURE_DATASETS) {
        let g = d.generate(scale());
        let cores = core_decomposition(&g);
        let hcd = try_phcd(&g, &cores, &executor(1)).unwrap();
        let ctx = SearchContext::new(&g, &cores, &hcd);
        let sorted = SortedAdjacency::build(&g, cores.as_slice());
        let (_, bks_t) = time_best(&executor(1), |_| bks_scores_with(&ctx, &sorted, &metric));
        print!("{:<8}", d.abbrev);
        for p in THREAD_SWEEP {
            let exec = executor(p);
            let (_, t) = time_best(&exec, |e| try_pbks_scores(&ctx, &metric, e).unwrap());
            print!(" {:>8.2}", ratio(bks_t, t));
        }
        println!();
    }
    println!("\n(paper shape: up to ~50x at 40 threads — PBKS's vertex-centric");
    println!(" counting also wins serially, so p=1 already exceeds 1x.)");
}
