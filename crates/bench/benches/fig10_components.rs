//! Figure 10: speedup of each pipeline component at max threads —
//! CD (core decomposition), HCD (construction), SC-A and SC-B (score
//! computation, preprocessing excluded), each parallel algorithm against
//! its serial counterpart.

use hcd_bench::{
    banner, datasets, executor, ratio, scale, time_best, FIGURE_DATASETS, THREAD_SWEEP,
};
use hcd_core::{lcps, try_phcd};
use hcd_decomp::{core_decomposition, try_pkc_core_decomposition};
use hcd_search::bks::{bks_scores_with, SortedAdjacency};
use hcd_search::pbks::try_pbks_scores;
use hcd_search::{Metric, SearchContext};

fn main() {
    banner("Figure 10: per-component speedup at max threads");
    let p_max = *THREAD_SWEEP.last().unwrap();
    println!(
        "{:<8} {:>8} {:>8} {:>8} {:>8}",
        "Dataset", "CD", "HCD", "SC-A", "SC-B"
    );
    for d in datasets(&FIGURE_DATASETS) {
        let g = d.generate(scale());
        let par = executor(p_max);
        let seq = executor(1);

        // CD: parallel PKC vs serial Batagelj-Zaversnik.
        let (_, bz_t) = time_best(&seq, |_| core_decomposition(&g));
        let (cores, pkc_t) = time_best(&par, |e| try_pkc_core_decomposition(&g, e).unwrap());

        // HCD: PHCD(p) vs LCPS.
        let (_, lcps_t) = time_best(&seq, |_| lcps(&g, &cores));
        let (hcd, phcd_t) = time_best(&par, |e| try_phcd(&g, &cores, e).unwrap());

        // Score computation, preprocessing excluded on both sides.
        let ctx = SearchContext::try_with_executor(&g, &cores, &hcd, &par).unwrap();
        let sorted = SortedAdjacency::build(&g, cores.as_slice());
        let (_, bks_a) = time_best(&seq, |_| {
            bks_scores_with(&ctx, &sorted, &Metric::AverageDegree)
        });
        let (_, pbks_a) = time_best(&par, |e| {
            try_pbks_scores(&ctx, &Metric::AverageDegree, e).unwrap()
        });
        let (_, bks_b) = time_best(&seq, |_| {
            bks_scores_with(&ctx, &sorted, &Metric::ClusteringCoefficient)
        });
        let (_, pbks_b) = time_best(&par, |e| {
            try_pbks_scores(&ctx, &Metric::ClusteringCoefficient, e).unwrap()
        });

        println!(
            "{:<8} {:>7.2}x {:>7.2}x {:>7.2}x {:>7.2}x",
            d.abbrev,
            ratio(bz_t, pkc_t),
            ratio(lcps_t, phcd_t),
            ratio(bks_a, pbks_a),
            ratio(bks_b, pbks_b),
        );
    }
    println!("\n(paper shape: CD has the lowest speedup; SC-A the highest, over");
    println!(" 40x on large graphs; HCD and SC-B in between.)");
}
