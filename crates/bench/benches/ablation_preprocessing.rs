//! Ablation: PBKS type-A with vs without the §IV-A preprocessing.
//!
//! The preprocessing (per-vertex greater/equal coreness neighbor counts)
//! costs one `O(m)` pass but turns every later type-A query into `O(n)`.
//! This target measures both variants per query, plus the one-off
//! preprocessing cost, showing the break-even point.

use hcd_bench::{banner, datasets, executor, ratio, scale, secs, time_best, THREAD_SWEEP};
use hcd_core::try_phcd;
use hcd_decomp::core_decomposition;
use hcd_search::ablation::try_type_a_scores_inline;
use hcd_search::pbks::try_pbks_scores;
use hcd_search::{Metric, SearchContext};

fn main() {
    banner("Ablation: PBKS type-A preprocessing on/off");
    let p = *THREAD_SWEEP.last().unwrap();
    println!(
        "{:<8} | {:>10} {:>12} {:>12} {:>9}",
        "Dataset", "prep(s)", "query+pre(s)", "query-raw(s)", "gain"
    );
    let metric = Metric::AverageDegree;
    for d in datasets(&[]) {
        let g = d.generate(scale());
        let cores = core_decomposition(&g);
        let hcd = try_phcd(&g, &cores, &executor(p)).unwrap();
        let par = executor(p);

        let (ctx, prep_t) = time_best(&par, |e| {
            SearchContext::try_with_executor(&g, &cores, &hcd, e).unwrap()
        });
        let (_, with_t) = time_best(&par, |e| try_pbks_scores(&ctx, &metric, e).unwrap());
        let (_, without_t) = time_best(&par, |e| {
            try_type_a_scores_inline(&g, &cores, &hcd, &metric, e).unwrap()
        });

        println!(
            "{:<8} | {:>10} {:>12} {:>12} {:>8.2}x",
            d.abbrev,
            secs(prep_t),
            secs(with_t),
            secs(without_t),
            ratio(without_t, with_t),
        );
    }
    println!("\n(expected: the preprocessed query is several times faster; the");
    println!(" one-off preprocessing pays for itself after a couple of metrics.)");
}
