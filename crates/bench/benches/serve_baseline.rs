//! Produces the committed metrics baseline for the serving layer.
//!
//! Drives the seeded mixed read/update workload from `hcd-serve`
//! against a deterministic BA graph with region metering and latency
//! histograms enabled and writes one `hcd-metrics-v1` snapshot. CI
//! regenerates the snapshot on the same runner and diffs it against the
//! committed copy with `hcd-cli metrics-diff` under a generous
//! threshold: the counters are bit-reproducible and the histogram p99s
//! catch order-of-magnitude latency cliffs.
//!
//! * `HCD_BENCH_BASELINE_OUT` — output path
//!   (default `bench/baselines/serve-small.json`).
//!
//! The executor is **sequential**: the workload's operation stream is a
//! pure function of the seed, so every counter — `serve.queries`,
//! `serve.batches`, `serve.swaps`, plus the `bz.peel`/`phcd.*` traffic of
//! the rebuilds — is bit-reproducible across machines. Only the
//! nanosecond timings vary, which `--counters-only` ignores.
//!
//! The service runs **durable** (WAL + checkpoints in a scratch
//! directory) so the `serve.wal_appends` / `serve.wal_bytes` /
//! `serve.checkpoints` counters are covered by the same gate: the WAL
//! byte traffic is a pure function of the update stream, so it is as
//! reproducible as the rest.
//!
//! The generation-keyed query cache is **armed** with a hot query set
//! (`hot_fraction`), so `serve.cache.hits` / `serve.cache.misses` are
//! nonzero, deterministic, and gated like every other counter: a cache
//! that silently stops hitting (or starts hitting when it must not)
//! moves a gated counter by far more than the threshold.

use hcd_bench::banner;
use hcd_datasets::barabasi_albert;
use hcd_par::Executor;
use hcd_serve::{run_workload, CacheConfig, DurabilityConfig, HcdService, WorkloadConfig};

fn main() {
    banner("serve baseline: BA-small mixed read/update workload metrics");
    let out = std::env::var("HCD_BENCH_BASELINE_OUT")
        .ok()
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| {
            format!(
                "{}/../../bench/baselines/serve-small.json",
                env!("CARGO_MANIFEST_DIR")
            )
        });

    let g = barabasi_albert(2_000, 4, 42);
    let exec = Executor::sequential().with_metrics().with_histograms();
    let scratch = std::env::temp_dir().join(format!("hcd-serve-baseline-{}", std::process::id()));
    std::fs::remove_dir_all(&scratch).ok();
    let service = HcdService::try_new_durable(&g, &scratch, DurabilityConfig::default(), &exec)
        .expect("initial build")
        .with_cache(CacheConfig::default());
    let cfg = WorkloadConfig {
        seed: 42,
        ops: 48,
        batch_size: 24,
        read_ratio: 0.75,
        universe: g.num_vertices() as u32 + 64,
        hot_fraction: 0.5,
    };
    let summary = run_workload(&service, &cfg, &exec).expect("workload");
    let cache = service.cache_stats().expect("cache is armed");
    assert!(cache.hits > 0, "the hot set must produce cache hits");
    drop(service);
    std::fs::remove_dir_all(&scratch).ok();

    let m = exec.take_metrics();
    if let Some(dir) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(dir).expect("create baseline dir");
    }
    std::fs::write(&out, m.to_json()).expect("write baseline");

    println!(
        "n={} m={} queries={} swaps={} applied={} final_gen={} cache_hits={} cache_misses={}",
        g.num_vertices(),
        g.num_edges(),
        summary.queries,
        summary.update_batches,
        summary.updates_applied,
        summary.final_generation,
        cache.hits,
        cache.misses,
    );
    println!(
        "wrote {out}: {} regions, {} counters, {} histograms",
        m.regions.len(),
        m.counters.len(),
        m.histograms.len()
    );
}
