//! Criterion microbenchmarks of the substrates: union-find throughput,
//! the three core-decomposition algorithms, Algorithm 1 (vertex ranks),
//! BKS's adjacency sort, and the tree accumulation.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use hcd_core::{try_phcd, VertexRanks};
use hcd_datasets::rmat;
use hcd_decomp::{core_decomposition, try_pkc_core_decomposition};
use hcd_par::Executor;
use hcd_search::accumulate::try_accumulate_bottom_up;
use hcd_search::bks::SortedAdjacency;
use hcd_truss::truss_decomposition;
use hcd_unionfind::{ConcurrentPivotUnionFind, PivotUnionFind, UnionFindPivot};

fn bench_unionfind(c: &mut Criterion) {
    let g = rmat(12, 8, None, 1);
    let n = g.num_vertices();
    let mut group = c.benchmark_group("unionfind");
    group.bench_function("sequential", |b| {
        b.iter(|| {
            let uf = PivotUnionFind::new_identity(n);
            for v in g.vertices() {
                for &u in g.neighbors(v) {
                    if u > v {
                        uf.union(v, u);
                    }
                }
            }
            black_box(uf.num_components())
        })
    });
    group.bench_function("lockfree_1thread", |b| {
        b.iter(|| {
            let uf = ConcurrentPivotUnionFind::new_identity(n);
            for v in g.vertices() {
                for &u in g.neighbors(v) {
                    if u > v {
                        uf.union(v, u);
                    }
                }
            }
            black_box(uf.num_components())
        })
    });
    group.finish();
}

fn bench_core_decomposition(c: &mut Criterion) {
    let g = rmat(12, 8, None, 2);
    let exec = Executor::sequential();
    let mut group = c.benchmark_group("core_decomposition");
    group.bench_function("bz_serial", |b| {
        b.iter(|| black_box(core_decomposition(&g)))
    });
    group.bench_function("pkc_1thread", |b| {
        b.iter(|| black_box(try_pkc_core_decomposition(&g, &exec).unwrap()))
    });
    group.finish();
}

fn bench_construction(c: &mut Criterion) {
    let g = rmat(12, 8, None, 3);
    let cores = core_decomposition(&g);
    let exec = Executor::sequential();
    let mut group = c.benchmark_group("hcd_construction");
    group.bench_function("vertex_ranks", |b| {
        b.iter(|| black_box(VertexRanks::try_compute(&cores, &exec).unwrap()))
    });
    group.bench_function("phcd_serial", |b| {
        b.iter(|| black_box(try_phcd(&g, &cores, &exec).unwrap()))
    });
    group.bench_function("lcps", |b| b.iter(|| black_box(hcd_core::lcps(&g, &cores))));
    group.finish();
}

fn bench_truss(c: &mut Criterion) {
    let g = rmat(10, 8, None, 6);
    let mut group = c.benchmark_group("truss");
    group.bench_function("truss_decomposition", |b| {
        b.iter(|| black_box(truss_decomposition(&g)))
    });
    let (idx, td) = truss_decomposition(&g);
    let exec = Executor::sequential();
    group.bench_function("phtd_serial", |b| {
        b.iter(|| black_box(hcd_truss::try_phtd(&g, &idx, &td, &exec).unwrap()))
    });
    group.finish();
}

fn bench_search_substrates(c: &mut Criterion) {
    let g = rmat(12, 8, None, 4);
    let cores = core_decomposition(&g);
    let exec = Executor::sequential();
    let hcd = try_phcd(&g, &cores, &exec).unwrap();
    let mut group = c.benchmark_group("search_substrates");
    group.bench_function("bks_adjacency_sort", |b| {
        b.iter(|| black_box(SortedAdjacency::build(&g, cores.as_slice())))
    });
    group.bench_function("tree_accumulation", |b| {
        b.iter(|| {
            let mut vals: Vec<u64> = hcd
                .nodes()
                .iter()
                .map(|n| n.vertices.len() as u64)
                .collect();
            try_accumulate_bottom_up(&hcd, &mut vals, |a, x| *a += *x, &exec).unwrap();
            black_box(vals)
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_unionfind, bench_core_decomposition, bench_construction, bench_search_substrates, bench_truss
}
criterion_main!(benches);
