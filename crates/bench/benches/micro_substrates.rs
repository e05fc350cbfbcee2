//! Microbenchmarks of the substrates: the two core-decomposition peels,
//! HCD construction (Algorithm 1's vertex ranks, PHCD, LCPS), truss
//! decomposition and PHTD, and two search substrates (BKS's adjacency
//! sort and the tree accumulation), each on a fixed RMAT graph on the
//! sequential executor. One line per measurement, best of
//! `HCD_BENCH_REPS` runs. Union-find throughput is measured per dataset
//! by `ablation_unionfind`.

use std::hint::black_box;

use hcd_bench::{banner, executor, time_best};
use hcd_core::{try_phcd, VertexRanks};
use hcd_datasets::rmat;
use hcd_decomp::{core_decomposition, try_pkc_core_decomposition};
use hcd_par::Executor;
use hcd_search::accumulate::try_accumulate_bottom_up;
use hcd_search::bks::SortedAdjacency;
use hcd_truss::truss_decomposition;

/// Times `f` and prints one `group/name` line in microseconds.
fn measure<T>(group: &str, name: &str, exec: &Executor, f: impl FnMut(&Executor) -> T) {
    let (out, best) = time_best(exec, f);
    black_box(out);
    let label = format!("{group}/{name}");
    println!("{label:<42} {:>12.1} us", best.as_secs_f64() * 1e6);
}

fn main() {
    banner("Microbenchmarks: substrates (sequential executor)");
    let exec = executor(1);

    let g = rmat(12, 8, None, 2);
    let group = "core_decomposition";
    measure(group, "bz_serial", &exec, |_| core_decomposition(&g));
    measure(group, "pkc_1thread", &exec, |e| {
        try_pkc_core_decomposition(&g, e).unwrap()
    });

    let g = rmat(12, 8, None, 3);
    let cores = core_decomposition(&g);
    let group = "hcd_construction";
    measure(group, "vertex_ranks", &exec, |e| {
        VertexRanks::try_compute(&cores, e).unwrap()
    });
    measure(group, "phcd_serial", &exec, |e| {
        try_phcd(&g, &cores, e).unwrap()
    });
    measure(group, "lcps", &exec, |_| hcd_core::lcps(&g, &cores));

    let g = rmat(12, 8, None, 4);
    let cores = core_decomposition(&g);
    let hcd = try_phcd(&g, &cores, &exec).unwrap();
    let group = "search_substrates";
    measure(group, "bks_adjacency_sort", &exec, |_| {
        SortedAdjacency::build(&g, cores.as_slice())
    });
    measure(group, "tree_accumulation", &exec, |e| {
        let mut vals: Vec<u64> = hcd
            .nodes()
            .iter()
            .map(|n| n.vertices.len() as u64)
            .collect();
        try_accumulate_bottom_up(&hcd, &mut vals, |a, x| *a += *x, e).unwrap();
        vals
    });

    let g = rmat(10, 8, None, 6);
    let group = "truss";
    measure(group, "truss_decomposition", &exec, |_| {
        truss_decomposition(&g)
    });
    let (idx, td) = truss_decomposition(&g);
    measure(group, "phtd_serial", &exec, |e| {
        hcd_truss::try_phtd(&g, &idx, &td, e).unwrap()
    });
}
