//! Table II: statistics of the (stand-in) datasets — n, m, davg, kmax, |T|.

use hcd_bench::{banner, datasets, scale};
use hcd_core::try_phcd;
use hcd_decomp::core_decomposition;
use hcd_par::Executor;

fn main() {
    banner("Table II: statistics of datasets (synthetic stand-ins)");
    println!(
        "{:<14} {:>10} {:>12} {:>8} {:>7} {:>8}",
        "Dataset", "n", "m", "davg", "kmax", "|T|"
    );
    let exec = Executor::sequential();
    for d in datasets(&[]) {
        let g = d.generate(scale());
        let cores = core_decomposition(&g);
        let hcd = try_phcd(&g, &cores, &exec).unwrap();
        println!(
            "{:<14} {:>10} {:>12} {:>8.1} {:>7} {:>8}",
            d.abbrev,
            g.num_vertices(),
            g.num_edges(),
            g.avg_degree(),
            cores.kmax(),
            hcd.num_nodes()
        );
    }
    println!("\n(paper: As-Skitter .. UK-2007-05, n up to 105.9M, m up to 3.74B,");
    println!(" kmax 111..5704, |T| 253..79318 — stand-ins preserve the relative");
    println!(" shape: heavy tails, kmax >> davg on clique-overlay datasets,");
    println!(" FS-style graphs with few tree nodes.)");
}
