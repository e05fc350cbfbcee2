//! Validates the `--trace` Chrome trace-event JSON emitted by `hcd-cli`
//! against the documented `hcd-trace-v1` schema, end to end: generate a
//! graph, run a command with `--trace`, parse the file, and check the
//! structural invariants Perfetto / chrome://tracing rely on — named
//! per-thread tracks, balanced B/E span pairs, and counter samples.

use std::path::PathBuf;
use std::process::Command;

use hcd::par::diff::Json;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hcd-cli"))
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("hcd_trace_test_{}_{name}", std::process::id()));
    p
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

/// Asserts the full `hcd-trace-v1` contract on a parsed document.
fn validate_trace(doc: &Json) {
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("hcd-trace-v1"),
        "schema tag"
    );
    let dropped = doc
        .get("droppedEvents")
        .and_then(Json::as_f64)
        .expect("droppedEvents");
    assert!(dropped >= 0.0);
    assert_eq!(
        doc.get("displayTimeUnit").and_then(Json::as_str),
        Some("ms"),
        "displayTimeUnit"
    );

    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents[]");
    assert!(!events.is_empty(), "no events recorded");

    // Track metadata: a process name plus one thread_name entry per tid
    // in use; tid 0 is the region track, tid w+1 is worker w.
    let mut named_tids = Vec::new();
    let mut used_tids = Vec::new();
    // Per-tid B/E nesting depth for balance checking.
    let mut depth: std::collections::BTreeMap<i64, i64> = Default::default();
    let mut counter_events = 0usize;
    let mut instants = 0usize;

    for e in events {
        let ph = e.get("ph").and_then(Json::as_str).expect("ph");
        // Counter events are process-scoped and carry no tid.
        let tid = e.get("tid").and_then(Json::as_f64).unwrap_or(-1.0) as i64;
        assert_eq!(e.get("pid").and_then(Json::as_f64), Some(1.0), "pid");
        assert!(tid >= 0 || ph == "C", "{ph} event without tid");
        match ph {
            "M" => {
                let name = e.get("name").and_then(Json::as_str).unwrap();
                if name == "thread_name" {
                    let label = e
                        .get("args")
                        .and_then(|a| a.get("name"))
                        .and_then(Json::as_str)
                        .expect("thread_name label");
                    if tid == 0 {
                        assert_eq!(label, "regions");
                    } else {
                        assert_eq!(label, format!("worker-{}", tid - 1));
                    }
                    named_tids.push(tid);
                }
            }
            "B" => {
                assert!(e.get("ts").and_then(Json::as_f64).is_some(), "B needs ts");
                *depth.entry(tid).or_insert(0) += 1;
                used_tids.push(tid);
            }
            "E" => {
                let d = depth.entry(tid).or_insert(0);
                *d -= 1;
                assert!(*d >= 0, "E without B on tid {tid}");
            }
            "i" => {
                let s = e.get("s").and_then(Json::as_str).expect("instant scope");
                assert!(s == "p" || s == "t", "instant scope {s:?}");
                instants += 1;
            }
            "C" => {
                let args = e.get("args").expect("C needs args");
                let (_, v) = match args {
                    Json::Obj(m) => m.iter().next().expect("C args value"),
                    _ => panic!("C args not an object"),
                };
                assert!(v.as_f64().expect("counter value") >= 0.0);
                counter_events += 1;
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }

    // Every span opened was closed (the CLI takes the trace at
    // quiescence), every tid that carries events has a named track, and
    // at least one counter track exists (pkc.frontier samples).
    for (tid, d) in &depth {
        assert_eq!(*d, 0, "unbalanced spans on tid {tid}");
    }
    for tid in used_tids {
        assert!(named_tids.contains(&tid), "tid {tid} has no thread_name");
    }
    assert!(named_tids.contains(&0), "region track missing");
    assert!(
        named_tids.iter().any(|&t| t > 0),
        "no worker tracks: {named_tids:?}"
    );
    assert!(counter_events > 0, "no counter samples");
    let _ = instants; // checkpoint instants are stride-dependent
}

#[test]
fn build_trace_is_valid_chrome_json_with_worker_and_counter_tracks() {
    let graph = gen_graph("build.txt", "rmat");
    let index = tmp("build.hcd");
    let trace = tmp("build_trace.json");
    let out = cli()
        .args([
            "build",
            graph.to_str().unwrap(),
            "-o",
            index.to_str().unwrap(),
            "-p",
            "4",
            "--trace",
            trace.to_str().unwrap(),
        ])
        .output()
        .expect("run build");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&trace).expect("trace file written");
    let doc = Json::parse(&text).expect("valid JSON");
    validate_trace(&doc);

    // Region spans for the whole pipeline appear on the region track.
    let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
    let region_names: Vec<&str> = events
        .iter()
        .filter(|e| {
            e.get("ph").and_then(Json::as_str) == Some("B")
                && e.get("tid").and_then(Json::as_f64) == Some(0.0)
        })
        .map(|e| e.get("name").and_then(Json::as_str).unwrap())
        .collect();
    for region in ["pkc.scan", "pkc.wave", "phcd.union"] {
        assert!(
            region_names.contains(&region),
            "missing region span {region}: {region_names:?}"
        );
    }

    std::fs::remove_file(&graph).ok();
    std::fs::remove_file(&index).ok();
    std::fs::remove_file(&trace).ok();
}

#[test]
fn search_trace_and_metrics_combine() {
    // Both flags on one run: each document must be independently valid.
    let graph = gen_graph("search.txt", "tree");
    let trace = tmp("search_trace.json");
    let metrics = tmp("search_metrics.json");
    let out = cli()
        .args([
            "search",
            graph.to_str().unwrap(),
            "-p",
            "2",
            "--trace",
            trace.to_str().unwrap(),
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
    let tdoc = Json::parse(&std::fs::read_to_string(&trace).unwrap()).expect("trace JSON");
    validate_trace(&tdoc);
    let mdoc = Json::parse(&std::fs::read_to_string(&metrics).unwrap()).expect("metrics JSON");
    assert_eq!(
        mdoc.get("schema").and_then(Json::as_str),
        Some("hcd-metrics-v1")
    );
    std::fs::remove_file(&graph).ok();
    std::fs::remove_file(&trace).ok();
    std::fs::remove_file(&metrics).ok();
}

#[test]
fn serve_bench_trace_shows_query_and_rebuild_spans() {
    let graph = gen_graph("serve.txt", "ba");
    let trace = tmp("serve_trace.json");
    let out = cli()
        .args([
            "serve-bench",
            graph.to_str().unwrap(),
            "-p",
            "2",
            "--ops",
            "16",
            "--batch",
            "8",
            "--read-ratio",
            "0.6",
            "--trace",
            trace.to_str().unwrap(),
        ])
        .output()
        .expect("run serve-bench");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = Json::parse(&std::fs::read_to_string(&trace).unwrap()).expect("trace JSON");
    validate_trace(&doc);
    // The region track interleaves serving spans with the construction
    // spans each rebuild triggers.
    let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
    let region_names: Vec<&str> = events
        .iter()
        .filter(|e| {
            e.get("ph").and_then(Json::as_str) == Some("B")
                && e.get("tid").and_then(Json::as_f64) == Some(0.0)
        })
        .map(|e| e.get("name").and_then(Json::as_str).unwrap())
        .collect();
    for region in ["serve.query.batch", "serve.rebuild", "phcd.union"] {
        assert!(
            region_names.contains(&region),
            "missing region span {region}: {region_names:?}"
        );
    }
    std::fs::remove_file(&graph).ok();
    std::fs::remove_file(&trace).ok();
}

#[test]
fn trace_is_written_even_when_the_deadline_fires() {
    let graph = gen_graph("timeout.txt", "ba");
    let trace = tmp("timeout_trace.json");
    let out = cli()
        .args([
            "search",
            graph.to_str().unwrap(),
            "--timeout-ms",
            "0",
            "--trace",
            trace.to_str().unwrap(),
        ])
        .output()
        .expect("run search");
    assert_eq!(out.status.code(), Some(124), "deadline exit code");
    let text = std::fs::read_to_string(&trace).expect("trace written for aborted runs too");
    let doc = Json::parse(&text).expect("valid JSON");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("hcd-trace-v1")
    );
    // The aborted region still closed its span (RegionExit is recorded
    // on the error path as well), so spans stay balanced.
    let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
    let b = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("B"))
        .count();
    let e = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("E"))
        .count();
    assert_eq!(b, e, "unbalanced spans in aborted trace");
    std::fs::remove_file(&graph).ok();
    std::fs::remove_file(&trace).ok();
}

#[test]
fn trace_to_stdout_with_dash() {
    let graph = gen_graph("stdout.txt", "tree");
    let out = cli()
        .args(["stats", graph.to_str().unwrap(), "-p", "2", "--trace", "-"])
        .output()
        .expect("run stats");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    // The JSON document follows the human-readable stats output.
    let json_start = text.find("{\n").expect("JSON document on stdout");
    let doc = Json::parse(&text[json_start..]).expect("valid JSON on stdout");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("hcd-trace-v1")
    );
    std::fs::remove_file(&graph).ok();
}
