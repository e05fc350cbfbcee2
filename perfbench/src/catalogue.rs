//! Every metric the benchmark reports, with the end-to-end metric and
//! workload each per-layer metric explains. A test checks that
//! `BENCHMARK.json` lists the same workloads and metrics.

/// An end-to-end metric (untraced runs).
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// A per-layer metric (traced runs).
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// The end-to-end metric a change to this layer should move.
    pub moves: &'static str,
    /// The workload on which it should move.
    pub on: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// End-to-end metrics, every one reported by every untraced run.
pub const END_TO_END: [EndToEnd; 8] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.15),
    e2e("build_ms.p50", "ms", "lower", 0.25),
    e2e("search_a_ms.p50", "ms", "lower", 0.25),
    e2e("search_b_ms.p50", "ms", "lower", 0.25),
    e2e("write_ms.p50", "ms", "lower", 0.25),
    e2e("ingest_edges_per_s", "1/s", "higher", 0.25),
    e2e("read_us.core.p50", "us", "lower", 0.25),
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
    on: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
        on,
    }
}

const LJ: &str = "build-lj";
const RANDOM: &str = "serve-random";

/// Per-layer metrics, every one reported by every traced run.
#[rustfmt::skip]
pub const PER_LAYER: [Layer; 39] = [
    layer("graph.load_ms", "ms", "lower", "build_ms.p50", LJ),
    layer("decomp.pkc_ms", "ms", "lower", "build_ms.p50; setup_s", "build-lj; serve-random"),
    layer("decomp.pkc_waves", "count", "lower", "build_ms.p50", LJ),
    layer("core.rank_ms", "ms", "lower", "build_ms.p50", LJ),
    layer("core.phcd_ms", "ms", "lower", "build_ms.p50", LJ),
    layer("unionfind.find_hops", "count", "lower", "build_ms.p50", LJ),
    layer("unionfind.cas_retries", "count", "lower", "build_ms.p50", LJ),
    layer("search.preprocess_ms", "ms", "lower", "search_a_ms.p50", LJ),
    layer("search.pbks_a_ms", "ms", "lower", "search_a_ms.p50", LJ),
    layer("search.pbks_b_ms", "ms", "lower", "search_b_ms.p50", LJ),
    layer("search.triangle_probes", "count", "lower", "search_b_ms.p50", LJ),
    layer("par.seq_build_ms", "ms", "lower", "reference for par.speedup", LJ),
    layer("par.speedup", "ratio", "higher", "build_ms.p50", LJ),
    layer("par.dispatch_ms", "ms", "lower", "build_ms.p50, search_b_ms.p50", LJ),
    layer("par.region_calls", "count", "lower", "build_ms.p50", LJ),
    layer("dynamic.apply_ms", "ms", "lower", "write_ms.p50", RANDOM),
    layer("dynamic.affected_frac", "ratio", "lower", "write_ms.p50", RANDOM),
    layer("dynamic.traversal_per_m", "ratio", "lower", "write_ms.p50", RANDOM),
    layer("dynamic.changed_per_affected", "ratio", "higher", "write_ms.p50", RANDOM),
    layer("dynamic.to_csr_ms", "ms", "lower", "write_ms.p50", RANDOM),
    layer("dynamic.decomposition_ms", "ms", "lower", "write_ms.p50", RANDOM),
    layer("core.repair_ms", "ms", "lower", "write_ms.p50", RANDOM),
    layer("core.rebuild_ms", "ms", "lower", "write_ms.p50", RANDOM),
    layer("serve.wal_append_us", "us", "lower", "write_ms.p50", RANDOM),
    layer("serve.wal_fsync_us", "us", "lower", "write_ms.p50", RANDOM),
    layer("serve.ckpt_write_ms", "ms", "lower", "write_ms.p95; ingest_edges_per_s", RANDOM),
    layer("serve.publish_us", "us", "lower", "read_us.core.p50", RANDOM),
    layer("serve.unattributed_ms", "ms", "lower", "write_ms.p50", RANDOM),
    layer("serve.cache_hit_frac", "ratio", "higher", "read_us.core.p50", RANDOM),
    layer("serve.query_us.core", "us", "lower", "read_us.core.p50", RANDOM),
    layer("serve.query_us.position", "us", "lower", "read_us.core.p50", RANDOM),
    layer("serve.query_us.member", "us", "lower", "read_us.core.p50", RANDOM),
    layer("serve.query_us.same", "us", "lower", "read_us.core.p50", RANDOM),
    layer("write_ms.p95", "ms", "lower", "ingest_edges_per_s", RANDOM),
    layer("read_us.p90", "us", "lower", "read_us.core.p50", RANDOM),
    layer("read_us.p99", "us", "lower", "read_us.core.p50", RANDOM),
    layer("bench.gen_late_us.p99", "us", "lower", "validity of read_us.core.p50", RANDOM),
    layer("bench.trace_overhead_frac.build", "ratio", "lower", "none: checks the trace", "all"),
    layer("bench.trace_overhead_frac.write", "ratio", "lower", "none: checks the trace", "all"),
];

/// The unit of the metric called `name`.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|&(n, _)| n == name)
        .map(|(_, u)| u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::WORKLOADS;

    /// Every catalogued workload and metric has its line in the
    /// committed `BENCHMARK.json`, with the same unit, direction and
    /// bound, and the file lists nothing else.
    #[test]
    fn committed_benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let mut lines: Vec<String> = WORKLOADS
            .iter()
            .map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect();
        lines.extend(END_TO_END.iter().map(|m| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        }));
        lines.extend(PER_LAYER.iter().map(|m| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        }));
        for line in &lines {
            assert!(
                committed.contains(line.as_str()),
                "BENCHMARK.json lacks {line}"
            );
        }
        assert_eq!(committed.matches("\"name\":").count(), lines.len());
    }

    #[test]
    fn names_are_unique_and_fit_the_limits() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(WORKLOADS.iter().map(|w| w.name));
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200));
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }
}
