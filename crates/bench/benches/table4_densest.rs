//! Table IV: PBKS-D on densest subgraph & maximum clique.
//!
//! Columns: CoreApp davg and time; Opt-D time (its davg equals PBKS-D's
//! by construction); PBKS-D davg and time; whether the maximum clique is
//! contained in PBKS-D's output S*; and |S*|/n.

use hcd_bench::{banner, datasets, executor, scale, secs, time_best, THREAD_SWEEP};
use hcd_core::try_phcd;
use hcd_decomp::core_decomposition;
use hcd_search::clique::{contained_in, max_clique};
use hcd_search::densest::{coreapp, opt_d, try_pbks_d};
use hcd_search::SearchContext;

fn main() {
    banner("Table IV: PBKS-D on densest subgraph & maximum clique");
    let p_max = *THREAD_SWEEP.last().unwrap();
    println!(
        "{:<8} | {:>9} {:>8} | {:>8} | {:>9} {:>8} | {:>6} {:>9}",
        "Dataset", "CoreApp", "time(s)", "OptD(s)", "PBKS-D", "time(s)", "MC⊆S*", "|S*|/n"
    );
    for d in datasets(&[]) {
        let g = d.generate(scale());
        let cores = core_decomposition(&g);
        let hcd = try_phcd(&g, &cores, &executor(p_max)).unwrap();
        let ctx = SearchContext::try_with_executor(&g, &cores, &hcd, &executor(p_max)).unwrap();

        let (capp, capp_t) = time_best(&executor(1), |_| coreapp(&g, &cores));
        let capp_davg = capp.map(|(_, d)| d).unwrap_or(f64::NAN);

        let (od, od_t) = time_best(&executor(1), |_| opt_d(&ctx));
        let od = od.expect("non-empty graph");

        let par = executor(p_max);
        let (pd, pd_t) = time_best(&par, |e| try_pbks_d(&ctx, e).unwrap());
        let pd = pd.expect("non-empty graph");
        assert_eq!(od.score, pd.score, "Opt-D and PBKS-D must agree");
        assert!(
            pd.score >= capp_davg - 1e-9,
            "PBKS-D must match/beat CoreApp"
        );

        let s_star = hcd.subtree_vertices(pd.node);
        let mc = max_clique(&g, &cores);
        let contained = contained_in(&mc, &s_star);

        println!(
            "{:<8} | {:>9.2} {:>8} | {:>8} | {:>9.2} {:>8} | {:>6} {:>8.3}%",
            d.abbrev,
            capp_davg,
            secs(capp_t),
            secs(od_t),
            pd.score,
            secs(pd_t),
            if contained { "yes" } else { "no" },
            100.0 * s_star.len() as f64 / g.num_vertices() as f64,
        );
    }
    println!("\n(paper shape: PBKS-D davg >= CoreApp davg, equal to Opt-D; PBKS-D");
    println!(" fastest; MC ⊆ S* on most datasets; |S*| a small fraction of n.)");
}
