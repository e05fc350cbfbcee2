//! Validates the `--metrics` JSON emitted by `hcd-cli` against the
//! documented `hcd-metrics-v1` schema, end to end: generate a graph, run
//! a command with `--metrics`, parse the file with `hcd::par::diff::Json`
//! (the reader behind `metrics-diff`), and check every structural and
//! arithmetic invariant the schema promises. CI runs the same
//! validation on an RMAT graph.

use std::path::PathBuf;
use std::process::Command;

use hcd::par::diff::Json;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hcd-cli"))
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("hcd_metrics_test_{}_{name}", std::process::id()));
    p
}

// --- schema validation ------------------------------------------------

/// Field names every region entry must carry, with non-negative values.
const REGION_FIELDS: [&str; 13] = [
    "invocations",
    "workers",
    "chunks",
    "wall_ns",
    "chunk_sum_ns",
    "chunk_max_ns",
    "chunk_min_ns",
    "imbalance",
    "checkpoints",
    "cancelled",
    "deadline_exceeded",
    "panicked",
    "faults_injected",
];

/// Asserts the full `hcd-metrics-v1` contract on a parsed document and
/// returns the region names in emission order.
fn validate_schema(doc: &Json) -> Vec<String> {
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("hcd-metrics-v1"),
        "schema tag"
    );
    let total_wall = doc
        .get("total_wall_ns")
        .and_then(Json::as_f64)
        .expect("total_wall_ns");
    let total_charged = doc
        .get("total_charged_ns")
        .and_then(Json::as_f64)
        .expect("total_charged_ns");
    assert!(total_wall >= 0.0 && total_charged >= 0.0);

    let regions = doc
        .get("regions")
        .and_then(Json::as_arr)
        .expect("regions[]");
    let mut names = Vec::new();
    let mut sum_wall = 0.0;
    let mut sum_charged = 0.0;
    for r in regions {
        let name = r.get("name").and_then(Json::as_str).expect("region name");
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-')),
            "name charset: {name:?}"
        );
        for field in REGION_FIELDS {
            let v = r
                .get(field)
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("{name}: missing {field}"));
            assert!(v >= 0.0, "{name}.{field} = {v}");
        }
        let chunks = r.get("chunks").and_then(Json::as_f64).unwrap();
        let invocations = r.get("invocations").and_then(Json::as_f64).unwrap();
        let sum = r.get("chunk_sum_ns").and_then(Json::as_f64).unwrap();
        let max = r.get("chunk_max_ns").and_then(Json::as_f64).unwrap();
        let min = r.get("chunk_min_ns").and_then(Json::as_f64).unwrap();
        assert!(invocations >= 1.0, "{name}: recorded without running");
        let workers = r.get("workers").and_then(Json::as_f64).unwrap();
        assert!(workers >= 1.0, "{name}: recorded without a worker");
        // An invocation over an empty index range runs zero chunks, so
        // `chunks` is not bounded below by `invocations`.
        assert!(chunks > 0.0 || sum == 0.0, "{name}: timed chunkless run");
        assert!(max <= sum, "{name}: chunk_max > chunk_sum");
        assert!(min <= max || max == 0.0, "{name}: chunk_min > chunk_max");
        sum_wall += r.get("wall_ns").and_then(Json::as_f64).unwrap();
        sum_charged += max;
        names.push(name.to_string());
    }
    assert_eq!(sum_wall, total_wall, "total_wall_ns is the region sum");
    assert_eq!(
        sum_charged, total_charged,
        "total_charged_ns is the sum of chunk maxima"
    );

    // Algorithm counters (added in v1 as an always-present array): each
    // entry carries a name, a non-negative value, and a fold kind.
    let counters = doc
        .get("counters")
        .and_then(Json::as_arr)
        .expect("counters[]");
    for c in counters {
        let name = c.get("name").and_then(Json::as_str).expect("counter name");
        let value = c
            .get("value")
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("{name}: missing value"));
        assert!(value >= 0.0, "{name} = {value}");
        let kind = c.get("kind").and_then(Json::as_str).unwrap();
        assert!(kind == "sum" || kind == "max", "{name}: kind {kind:?}");
    }

    // Latency histograms (always-present, schema-versioned section):
    // each entry carries exact count/sum/min/max plus precomputed
    // quantiles that must be ordered and bracketed by min/max.
    let hists = doc.get("histograms").expect("histograms section");
    assert_eq!(
        hists.get("version").and_then(Json::as_f64),
        Some(1.0),
        "histograms.version"
    );
    assert_eq!(
        hists.get("sub_bits").and_then(Json::as_f64),
        Some(2.0),
        "histograms.sub_bits"
    );
    let entries = hists
        .get("entries")
        .and_then(Json::as_arr)
        .expect("histograms.entries[]");
    for h in entries {
        let name = h
            .get("name")
            .and_then(Json::as_str)
            .expect("histogram name");
        let field = |f: &str| {
            h.get(f)
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("{name}: missing {f}"))
        };
        let count = field("count");
        assert!(count >= 1.0, "{name}: empty histogram emitted");
        assert!(field("sum_ns") >= field("max_ns"), "{name}: sum < max");
        let (min, max) = (field("min_ns"), field("max_ns"));
        let qs = [
            field("p50_ns"),
            field("p90_ns"),
            field("p99_ns"),
            field("p999_ns"),
        ];
        assert!(
            qs.windows(2).all(|w| w[0] <= w[1]),
            "{name}: quantiles not monotone: {qs:?}"
        );
        assert!(
            qs.iter().all(|&q| (min..=max).contains(&q)),
            "{name}: quantile outside [min, max]: {qs:?} vs [{min}, {max}]"
        );
        let buckets = h
            .get("buckets")
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("{name}: missing buckets"));
        let bucket_total: f64 = buckets
            .iter()
            .map(|b| {
                let pair = b.as_arr().unwrap_or_else(|| panic!("{name}: bucket pair"));
                assert_eq!(pair.len(), 2, "{name}: bucket pair arity");
                pair[1].as_f64().unwrap()
            })
            .sum();
        assert_eq!(bucket_total, count, "{name}: bucket counts don't sum");
    }
    names
}

fn gen_graph(name: &str, model: &str) -> PathBuf {
    let graph = tmp(name);
    let out = cli()
        .args(["gen", model, graph.to_str().unwrap(), "--seed", "7"])
        .output()
        .expect("run gen");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    graph
}

#[test]
fn build_metrics_cover_every_phcd_region() {
    let graph = gen_graph("build.txt", "rmat");
    let index = tmp("build.hcd");
    let metrics = tmp("build.json");
    let out = cli()
        .args([
            "build",
            graph.to_str().unwrap(),
            "-o",
            index.to_str().unwrap(),
            "-p",
            "4",
            "--metrics",
            metrics.to_str().unwrap(),
        ])
        .output()
        .expect("run build");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&metrics).expect("metrics file written");
    let doc = Json::parse(&text).expect("valid JSON");
    let names = validate_schema(&doc);
    for region in [
        "phcd.kpc",
        "phcd.union",
        "phcd.pivots",
        "phcd.assign",
        "phcd.parents",
    ] {
        assert!(
            names.iter().any(|n| n == region),
            "missing {region}: {names:?}"
        );
    }
    // The build pipeline flushes its typed algorithm counters.
    let counters: Vec<&str> = doc
        .get("counters")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|c| c.get("name").and_then(Json::as_str).unwrap())
        .collect();
    for counter in [
        "pkc.levels",
        "pkc.frontier",
        "phcd.union_phases",
        "phcd.uf.unions",
    ] {
        assert!(
            counters.contains(&counter),
            "missing counter {counter}: {counters:?}"
        );
    }
    std::fs::remove_file(&graph).ok();
    std::fs::remove_file(&index).ok();
    std::fs::remove_file(&metrics).ok();
}

#[test]
fn search_metrics_cover_the_pbks_pipeline() {
    let graph = gen_graph("search.txt", "tree");
    let metrics = tmp("search.json");
    let out = cli()
        .args([
            "search",
            graph.to_str().unwrap(),
            "-m",
            "clustering-coefficient",
            "-p",
            "2",
            "--metrics",
            metrics.to_str().unwrap(),
        ])
        .output()
        .expect("run search");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&metrics).expect("metrics file written");
    let names = validate_schema(&Json::parse(&text).expect("valid JSON"));
    // The search pipeline layers preprocessing and scoring on top of the
    // construction regions; a type-B metric also runs the orientation
    // scan and the triangle pass.
    for region in [
        "search.preprocess",
        "pbks.type_a",
        "pbks.orient",
        "pbks.triangles",
        "pbks.score",
    ] {
        assert!(
            names.iter().any(|n| n == region),
            "missing {region}: {names:?}"
        );
    }
    std::fs::remove_file(&graph).ok();
    std::fs::remove_file(&metrics).ok();
}

#[test]
fn serve_bench_metrics_cover_the_serving_layer() {
    let graph = gen_graph("serve.txt", "ba");
    let metrics = tmp("serve.json");
    let durable = tmp("serve_durable_dir");
    std::fs::remove_dir_all(&durable).ok();
    let out = cli()
        .args([
            "serve-bench",
            graph.to_str().unwrap(),
            "-p",
            "2",
            "--ops",
            "24",
            "--batch",
            "8",
            "--read-ratio",
            "0.7",
            "--durable",
            durable.to_str().unwrap(),
            "--metrics",
            metrics.to_str().unwrap(),
        ])
        .output()
        .expect("run serve-bench");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&metrics).expect("metrics file written");
    let doc = Json::parse(&text).expect("valid JSON");
    let names = validate_schema(&doc);
    // The workload mixes batched reads with rebuild/publish cycles; both
    // serving regions must appear, alongside the PKC and PHCD regions
    // that the generation-0 build and every update batch open.
    for region in [
        "serve.query.batch",
        "serve.rebuild",
        "phcd.kpc",
        "pkc.scan",
        "pkc.wave",
    ] {
        assert!(
            names.iter().any(|n| n == region),
            "missing {region}: {names:?}"
        );
    }
    let counters: Vec<(&str, &str, f64)> = doc
        .get("counters")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|c| {
            (
                c.get("name").and_then(Json::as_str).unwrap(),
                c.get("kind").and_then(Json::as_str).unwrap(),
                c.get("value").and_then(Json::as_f64).unwrap(),
            )
        })
        .collect();
    // The durable run adds write-ahead-log traffic to the counter set;
    // each update batch reports what its coreness recompute examined.
    for counter in [
        "serve.queries",
        "serve.batches",
        "serve.swaps",
        "serve.wal_appends",
        "serve.wal_bytes",
        "dynamic.affected_vertices",
        "dynamic.traversal_edges",
    ] {
        let (_, kind, value) = counters
            .iter()
            .find(|(n, _, _)| *n == counter)
            .unwrap_or_else(|| panic!("missing counter {counter}: {counters:?}"));
        assert_eq!(*kind, "sum", "{counter}");
        assert!(*value >= 1.0, "{counter} never ticked");
    }
    // Emitted as a gauge so a zero-stale run still reports the counter.
    let (_, kind, _) = counters
        .iter()
        .find(|(n, _, _)| *n == "serve.stale_reads")
        .unwrap_or_else(|| panic!("missing counter serve.stale_reads: {counters:?}"));
    assert_eq!(*kind, "max", "serve.stale_reads");
    // Every serve-path boundary records a latency histogram: batched and
    // single-query reads, the write path with its CSR merge, and
    // durability stages.
    let hist_names: Vec<&str> = doc
        .get("histograms")
        .and_then(|h| h.get("entries"))
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|h| h.get("name").and_then(Json::as_str).unwrap())
        .collect();
    for hist in [
        "serve.query.batch",
        "serve.apply",
        "dynamic.merge",
        "serve.rebuild",
        "serve.publish",
        "serve.wal.append",
        "serve.wal.fsync",
    ] {
        assert!(
            hist_names.contains(&hist),
            "missing histogram {hist}: {hist_names:?}"
        );
    }
    assert!(
        hist_names
            .iter()
            .any(|n| n.starts_with("serve.query.") && *n != "serve.query.batch"),
        "no single-query-type histogram recorded: {hist_names:?}"
    );
    // The bench prints its latency report from this same document.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("latency (p50/p99/p999/max from the emitted hcd-metrics-v1 histograms)"),
        "no latency report in output:\n{stdout}"
    );
    assert!(
        stdout
            .lines()
            .any(|l| l.contains("serve.query.batch") && l.contains("p99=")),
        "no per-query-type percentile line:\n{stdout}"
    );
    std::fs::remove_file(&graph).ok();
    std::fs::remove_file(&metrics).ok();
    std::fs::remove_dir_all(&durable).ok();
}

#[test]
fn metrics_file_is_written_even_when_the_deadline_fires() {
    let graph = gen_graph("timeout.txt", "ba");
    let metrics = tmp("timeout.json");
    let out = cli()
        .args([
            "search",
            graph.to_str().unwrap(),
            "--timeout-ms",
            "0",
            "--metrics",
            metrics.to_str().unwrap(),
        ])
        .output()
        .expect("run search");
    assert_eq!(out.status.code(), Some(124), "deadline exit code");
    let text =
        std::fs::read_to_string(&metrics).expect("metrics must be written for aborted runs too");
    let doc = Json::parse(&text).expect("valid JSON");
    let names = validate_schema(&doc);
    // The aborted region recorded its failure.
    let regions = doc.get("regions").and_then(Json::as_arr).unwrap();
    let aborted: f64 = regions
        .iter()
        .map(|r| r.get("deadline_exceeded").and_then(Json::as_f64).unwrap())
        .sum();
    assert!(aborted >= 1.0, "no deadline recorded in {names:?}");
    std::fs::remove_file(&graph).ok();
    std::fs::remove_file(&metrics).ok();
}

#[test]
fn without_the_flag_no_metrics_file_appears() {
    let graph = gen_graph("noflag.txt", "tree");
    let metrics = tmp("noflag.json");
    std::fs::remove_file(&metrics).ok();
    let out = cli()
        .args(["stats", graph.to_str().unwrap(), "-p", "2"])
        .output()
        .expect("run stats");
    assert!(out.status.success());
    assert!(!metrics.exists());
    std::fs::remove_file(&graph).ok();
}

#[test]
fn closed_loop_cache_flag_emits_cache_counters_and_lookup_histogram() {
    let graph = gen_graph("cache.txt", "ba");
    let metrics = tmp("cache.json");
    let out = cli()
        .args([
            "serve-bench",
            graph.to_str().unwrap(),
            "--cache",
            "--hot-fraction",
            "0.6",
            "--ops",
            "24",
            "--batch",
            "8",
            "--mode",
            "seq",
            "-p",
            "1",
            "--metrics",
            metrics.to_str().unwrap(),
        ])
        .output()
        .expect("run serve-bench --cache");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&metrics).expect("metrics file written");
    let doc = Json::parse(&text).expect("valid JSON");
    validate_schema(&doc);
    let counters: Vec<(&str, f64)> = doc
        .get("counters")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|c| {
            (
                c.get("name").and_then(Json::as_str).unwrap(),
                c.get("value").and_then(Json::as_f64).unwrap(),
            )
        })
        .collect();
    for counter in ["serve.cache.hits", "serve.cache.misses"] {
        let (_, value) = counters
            .iter()
            .find(|(n, _)| *n == counter)
            .unwrap_or_else(|| panic!("missing counter {counter}: {counters:?}"));
        assert!(*value >= 1.0, "{counter} never ticked");
    }
    let hist_names: Vec<&str> = doc
        .get("histograms")
        .and_then(|h| h.get("entries"))
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|h| h.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert!(
        hist_names.contains(&"serve.cache.lookup"),
        "missing serve.cache.lookup: {hist_names:?}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout
            .lines()
            .any(|l| l.starts_with("cache            = hits ")),
        "no cache summary line:\n{stdout}"
    );
    std::fs::remove_file(&graph).ok();
    std::fs::remove_file(&metrics).ok();
}

#[test]
fn open_loop_serve_bench_emits_tenant_namespaced_metrics() {
    let graph = gen_graph("openloop.txt", "ba");
    let metrics = tmp("openloop.json");
    // Offered far above drain capacity with a low watermark, so the
    // shed counters are guaranteed traffic; hot queries arm the caches.
    let out = cli()
        .args([
            "serve-bench",
            graph.to_str().unwrap(),
            "--tenants",
            "2",
            "--offered-qps",
            "50000",
            "--ticks",
            "60",
            "--watermark",
            "16",
            "--batch",
            "8",
            "--hot-fraction",
            "0.6",
            "--mode",
            "seq",
            "-p",
            "1",
            "--metrics",
            metrics.to_str().unwrap(),
        ])
        .output()
        .expect("run open-loop serve-bench");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&metrics).expect("metrics file written");
    let doc = Json::parse(&text).expect("valid JSON");
    let names = validate_schema(&doc);
    // Regions are tenant-namespaced; the un-namespaced serving regions
    // must NOT appear (nothing ran outside a tenant).
    for region in ["serve.t0.query.batch", "serve.t1.query.batch"] {
        assert!(
            names.iter().any(|n| n == region),
            "missing region {region}: {names:?}"
        );
    }
    assert!(
        !names.iter().any(|n| n == "serve.query.batch"),
        "un-namespaced serving region leaked: {names:?}"
    );
    let counters: Vec<&str> = doc
        .get("counters")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|c| c.get("name").and_then(Json::as_str).unwrap())
        .collect();
    for counter in [
        "serve.t0.queries",
        "serve.t1.queries",
        "serve.t0.ingress.enqueued",
        "serve.t0.shed.overloaded",
        "serve.t1.shed.overloaded",
        "serve.t0.cache.hits",
        "serve.t1.cache.hits",
    ] {
        assert!(
            counters.contains(&counter),
            "missing counter {counter}: {counters:?}"
        );
    }
    for leaked in ["serve.queries", "serve.shed.overloaded", "serve.cache.hits"] {
        assert!(
            !counters.contains(&leaked),
            "un-namespaced counter leaked: {leaked}"
        );
    }
    // Regions time themselves, so each tenant's batch region is also a
    // tenant-named histogram; the cache-lookup timer is not a region and
    // keeps its global name.
    let hists: Vec<(&str, f64)> = doc
        .get("histograms")
        .and_then(|h| h.get("entries"))
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|h| {
            (
                h.get("name").and_then(Json::as_str).unwrap(),
                h.get("count").and_then(Json::as_f64).unwrap(),
            )
        })
        .collect();
    for hist in [
        "serve.t0.query.batch",
        "serve.t1.query.batch",
        "serve.cache.lookup",
    ] {
        assert!(
            hists.iter().any(|&(n, count)| n == hist && count >= 1.0),
            "missing histogram {hist}: {hists:?}"
        );
    }
    std::fs::remove_file(&graph).ok();
    std::fs::remove_file(&metrics).ok();
}
