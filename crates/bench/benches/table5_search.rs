//! Table V: runtime of subgraph search — max-thread PBKS time and its
//! speedup over serial BKS, for a type-A and a type-B metric.

use hcd_bench::{banner, datasets, executor, ratio, scale, secs, time_best, THREAD_SWEEP};
use hcd_core::try_phcd;
use hcd_decomp::core_decomposition;
use hcd_par::Executor;
use hcd_search::bks::{bks_scores_with, SortedAdjacency};
use hcd_search::pbks::try_pbks_scores;
use hcd_search::{Metric, SearchContext};

fn main() {
    banner("Table V: runtime of subgraph search (PBKS vs serial BKS)");
    let p_max = *THREAD_SWEEP.last().unwrap();
    println!(
        "{:<8} | {:>12} {:>8} | {:>12} {:>8}",
        "Dataset", "TypeA p(s)", "vs BKS", "TypeB p(s)", "vs BKS"
    );
    let type_a = Metric::AverageDegree;
    let type_b = Metric::ClusteringCoefficient;
    for d in datasets(&[]) {
        let g = d.generate(scale());
        let cores = core_decomposition(&g);
        let hcd = try_phcd(&g, &cores, &executor(p_max)).unwrap();
        let ctx = SearchContext::try_with_executor(&g, &cores, &hcd, &executor(p_max)).unwrap();
        let sorted = SortedAdjacency::build(&g, cores.as_slice());
        let par: Executor = executor(p_max);

        let (sa, a_t) = time_best(&par, |e| try_pbks_scores(&ctx, &type_a, e).unwrap());
        let (sa_serial, a_bks) =
            time_best(&executor(1), |_| bks_scores_with(&ctx, &sorted, &type_a));
        assert_eq!(sa.1, sa_serial.1, "type-A results diverge on {}", d.abbrev);

        let (sb, b_t) = time_best(&par, |e| try_pbks_scores(&ctx, &type_b, e).unwrap());
        let (sb_serial, b_bks) =
            time_best(&executor(1), |_| bks_scores_with(&ctx, &sorted, &type_b));
        assert_eq!(sb.1, sb_serial.1, "type-B results diverge on {}", d.abbrev);

        println!(
            "{:<8} | {:>12} {:>7.2}x | {:>12} {:>7.2}x",
            d.abbrev,
            secs(a_t),
            ratio(a_bks, a_t),
            secs(b_t),
            ratio(b_bks, b_t),
        );
    }
    println!("\n(paper shape: type-A speedups 20-50x at 40 threads; type-B 15-25x;");
    println!(" type-B absolute times orders of magnitude above type-A.)");
}
