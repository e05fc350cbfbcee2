//! End-to-end tests of the `hcd-cli` binary.

use std::path::PathBuf;
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hcd-cli"))
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("hcd_cli_test_{}_{name}", std::process::id()));
    p
}

#[test]
fn gen_stats_search_pipeline() {
    let graph = tmp("pipeline.txt");

    let out = cli()
        .args(["gen", "tree", graph.to_str().unwrap(), "--seed", "5"])
        .output()
        .expect("run gen");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = cli()
        .args(["stats", graph.to_str().unwrap()])
        .output()
        .expect("run stats");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("kmax"), "stats output: {text}");
    assert!(text.contains("|T|"));

    let out = cli()
        .args([
            "search",
            graph.to_str().unwrap(),
            "-m",
            "conductance",
            "-p",
            "2",
        ])
        .output()
        .expect("run search");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("metric    = conductance"), "{text}");
    assert!(text.contains("best k"));

    std::fs::remove_file(&graph).ok();
}

#[test]
fn build_writes_a_loadable_index() {
    let graph = tmp("build.txt");
    let index = tmp("build.hcd");
    assert!(cli()
        .args(["gen", "ba", graph.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    assert!(cli()
        .args([
            "build",
            graph.to_str().unwrap(),
            "-o",
            index.to_str().unwrap()
        ])
        .status()
        .unwrap()
        .success());
    // The written index parses back.
    let file = std::fs::File::open(&index).unwrap();
    let hcd = hcd::core::io::read_hcd(file).unwrap();
    assert!(hcd.num_nodes() > 0);
    std::fs::remove_file(&graph).ok();
    std::fs::remove_file(&index).ok();
}

#[test]
fn core_query_lists_members() {
    let graph = tmp("core.txt");
    assert!(cli()
        .args(["gen", "ws", graph.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    let out = cli()
        .args(["core", graph.to_str().unwrap(), "-v", "0", "-k", "2"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("2-core containing 0"), "{text}");
    std::fs::remove_file(&graph).ok();
}

#[test]
fn stats_and_dot_accept_thread_count() {
    let graph = tmp("threads.txt");
    assert!(cli()
        .args(["gen", "tree", graph.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    for sub in ["stats", "dot"] {
        let out = cli()
            .args([sub, graph.to_str().unwrap(), "-p", "2"])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{sub} -p 2: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    std::fs::remove_file(&graph).ok();
}

#[test]
fn stats_accepts_every_executor_mode() {
    let graph = tmp("modes.txt");
    assert!(cli()
        .args(["gen", "tree", graph.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    for mode in ["seq", "sim", "assist"] {
        let out = cli()
            .args(["stats", graph.to_str().unwrap(), "-p", "2", "--mode", mode])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "stats --mode {mode}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    // Removed options and typos are usage errors, never silently
    // ignored: every row exits 2 and names the rejected flag.
    for (rejected, flag) in [
        (vec!["--order", "degree"], "--order"),
        (vec!["-p", "2", "--pin-threads"], "--pin-threads"),
        (
            vec!["-p", "2", "--mode", "assist", "--pin-threads"],
            "--pin-threads",
        ),
        (vec!["--treads", "4", "--timeout", "1"], "--treads"),
    ] {
        let out = cli()
            .arg("stats")
            .arg(&graph)
            .args(&rejected)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{rejected:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("unknown flag \"{flag}\" for stats")),
            "{rejected:?}: {err}"
        );
    }
    // The static-schedule thread mode is gone: naming it is a usage
    // error that lists the modes that remain.
    let out = cli()
        .args([
            "stats",
            graph.to_str().unwrap(),
            "-p",
            "2",
            "--mode",
            "rayon",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains(r#"bad --mode "rayon" (seq|sim|assist)"#),
        "{err}"
    );
    std::fs::remove_file(&graph).ok();
}

#[test]
fn every_documented_flag_is_accepted() {
    // Each `hcd-cli <cmd>` usage line names the flags of that command;
    // none of them may trip the unknown-flag check. The graph path does
    // not exist, so each run fails fast after flag checking (any file a
    // flag writes lands in the scratch directory).
    let dir = tmp("documented_flags");
    std::fs::create_dir_all(&dir).unwrap();
    let help = cli().arg("help").output().unwrap();
    let text = String::from_utf8_lossy(&help.stdout);
    let mut checked = 0;
    for line in text.lines().filter_map(|l| l.strip_prefix("  hcd-cli ")) {
        let mut words = line.split_whitespace();
        let cmd = words.next().unwrap();
        for flag in words.map(|w| w.trim_start_matches('[').trim_end_matches(']')) {
            if flag.len() < 2 || !flag.starts_with('-') {
                continue;
            }
            let out = cli()
                .current_dir(&dir)
                .args([cmd, "missing-a.txt", "missing-b.txt", flag, "1"])
                .output()
                .unwrap();
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(!err.contains("unknown flag"), "{cmd} {flag}: {err}");
            checked += 1;
        }
    }
    assert!(checked > 30, "only {checked} documented flags found");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn threads_without_a_mode_select_the_assist_pool() {
    // Only the assist executor samples the assisting-thread gauge, so
    // its presence in the metrics snapshot names the resolved mode.
    let graph = tmp("default_mode.txt");
    assert!(cli()
        .args(["gen", "tree", graph.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    let gauge_for = |extra: &[&str]| {
        let out = cli()
            .args(["stats", graph.to_str().unwrap(), "--metrics", "-"])
            .args(extra)
            .output()
            .unwrap();
        assert!(out.status.success(), "{extra:?}");
        String::from_utf8_lossy(&out.stdout).contains("par.assist.assisting_threads")
    };
    assert!(gauge_for(&["-p", "2"]), "-p 2 defaults to assist");
    assert!(gauge_for(&["-p", "2", "--mode", "assist"]));
    assert!(!gauge_for(&["-p", "1"]), "-p 1 defaults to seq");
    assert!(!gauge_for(&["-p", "2", "--mode", "sim"]));
    std::fs::remove_file(&graph).ok();
}

#[test]
fn expired_timeout_exits_with_code_124() {
    let graph = tmp("timeout.txt");
    assert!(cli()
        .args(["gen", "ba", graph.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    // A zero-millisecond deadline is already expired when the first
    // parallel region starts, so the run must abort cleanly with the
    // dedicated timeout exit code (124, as in coreutils timeout(1)).
    for extra in [vec![], vec!["-p".to_string(), "2".to_string()]] {
        let mut args = vec![
            "search".to_string(),
            graph.to_str().unwrap().to_string(),
            "--timeout-ms".to_string(),
            "0".to_string(),
        ];
        args.extend(extra);
        let out = cli().args(&args).output().unwrap();
        assert_eq!(
            out.status.code(),
            Some(124),
            "args {args:?}: stderr {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("deadline"), "{err}");
    }
    std::fs::remove_file(&graph).ok();
}

#[test]
fn generous_timeout_does_not_fire() {
    let graph = tmp("timeout_ok.txt");
    assert!(cli()
        .args(["gen", "tree", graph.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    let out = cli()
        .args([
            "build",
            graph.to_str().unwrap(),
            "-o",
            tmp("timeout_ok.hcd").to_str().unwrap(),
            "--timeout-ms",
            "600000",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_file(&graph).ok();
    std::fs::remove_file(tmp("timeout_ok.hcd")).ok();
}

#[test]
fn bad_flag_values_are_usage_errors() {
    for args in [
        vec!["search", "x.txt", "-p", "zero"],
        vec!["search", "x.txt", "--timeout-ms", "soon"],
        vec!["search", "x.txt", "--mode", "openmp"],
        vec!["search", "x.txt", "--mode", "assist", "-p", "0"],
        vec!["frobnicate"],
    ] {
        let out = cli().args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage"), "{args:?}: {err}");
    }
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = cli().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage"), "{err}");
}

#[test]
fn missing_arguments_fail_cleanly() {
    for args in [
        vec!["search"],
        vec!["core", "x"],
        vec!["gen", "nosuch", "y"],
        vec!["metrics-diff", "only-one.json"],
    ] {
        let out = cli().args(&args).output().unwrap();
        assert!(!out.status.success(), "{args:?} should fail");
    }
}

/// A minimal but schema-complete `hcd-metrics-v1` snapshot with one
/// region at the given wall time and one counter at the given value.
fn snapshot_json(wall_ns: u64, counter: u64) -> String {
    format!(
        r#"{{
  "schema": "hcd-metrics-v1",
  "total_wall_ns": {wall_ns},
  "total_charged_ns": {wall_ns},
  "regions": [
    {{"name": "phcd.union", "invocations": 1, "chunks": 4, "wall_ns": {wall_ns}, "chunk_sum_ns": {wall_ns}, "chunk_max_ns": {wall_ns}, "chunk_min_ns": 1, "imbalance": 1.0, "checkpoints": 0, "cancelled": 0, "deadline_exceeded": 0, "panicked": 0, "faults_injected": 0}}
  ],
  "counters": [
    {{"name": "phcd.uf.cas_retries", "value": {counter}, "kind": "sum"}}
  ]
}}
"#
    )
}

#[test]
fn metrics_diff_exit_codes() {
    let old = tmp("diff_old.json");
    let new = tmp("diff_new.json");
    std::fs::write(&old, snapshot_json(1_000_000, 100)).unwrap();

    // Identical snapshots: exit 0.
    let out = cli()
        .args(["metrics-diff", old.to_str().unwrap(), old.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "identical: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // 10x wall regression, well past threshold and floor: exit 3, and
    // the report names the regressed entry.
    std::fs::write(&new, snapshot_json(10_000_000, 100)).unwrap();
    let out = cli()
        .args(["metrics-diff", old.to_str().unwrap(), new.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3), "regression must exit 3");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("REGRESSED"), "{text}");
    assert!(text.contains("phcd.union"), "{text}");

    // The same pair under a generous threshold passes.
    let out = cli()
        .args([
            "metrics-diff",
            old.to_str().unwrap(),
            new.to_str().unwrap(),
            "--threshold",
            "100",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "threshold 100x must pass");

    // Counter regressions are caught independently of timings.
    std::fs::write(&new, snapshot_json(1_000_000, 10_000)).unwrap();
    let out = cli()
        .args(["metrics-diff", old.to_str().unwrap(), new.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3), "counter regression must exit 3");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("cas_retries"),
        "counter named in report"
    );

    // Unreadable / unparsable snapshots are runtime errors (1), not
    // usage errors or false regressions.
    let out = cli()
        .args([
            "metrics-diff",
            old.to_str().unwrap(),
            tmp("diff_nosuch.json").to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "missing file");
    std::fs::write(&new, "{\"schema\": \"wrong-v9\"}").unwrap();
    let out = cli()
        .args(["metrics-diff", old.to_str().unwrap(), new.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "wrong schema");

    std::fs::remove_file(&old).ok();
    std::fs::remove_file(&new).ok();
}

#[test]
fn metrics_to_stdout_with_dash() {
    let graph = tmp("stdout_metrics.txt");
    assert!(cli()
        .args(["gen", "tree", graph.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    let out = cli()
        .args([
            "stats",
            graph.to_str().unwrap(),
            "-p",
            "2",
            "--metrics",
            "-",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("\"schema\": \"hcd-metrics-v1\""),
        "metrics JSON on stdout: {text}"
    );
    // The human-readable stats still precede it.
    assert!(text.contains("kmax"), "{text}");
    std::fs::remove_file(&graph).ok();
}

#[test]
fn committed_baseline_self_diff_is_clean() {
    // The baseline committed for CI must parse under the current schema
    // and diff cleanly against itself — guards against schema drift
    // landing without a regenerated baseline.
    let baseline = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/bench/baselines/rmat-small.json"
    );
    let out = cli()
        .args(["metrics-diff", baseline, baseline])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "stale baseline: {}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn help_documents_every_exit_code() {
    for cmd in ["help", "--help", "-h"] {
        let out = cli().args([cmd]).output().unwrap();
        assert_eq!(out.status.code(), Some(0), "{cmd} must exit 0");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("usage"), "{cmd}: {text}");
        assert!(text.contains("exit codes"), "{cmd}: {text}");
        // Every code in the taxonomy is documented, including the
        // metrics-diff regression code (3), the torn-WAL warning code
        // (4), and the timeout code (124).
        for needle in [
            "0    success",
            "1    runtime failure",
            "2    usage error",
            "3    metrics-diff found a regression",
            "4    recovered with a truncated WAL tail",
            "5    open-loop serve-bench was fully shed",
            "124  deadline exceeded",
        ] {
            assert!(text.contains(needle), "{cmd} help missing {needle:?}");
        }
        // The executor mode list lives in one place; help must name
        // every mode the parser accepts, including assist.
        for needle in ["--mode", "seq", "sim", "assist"] {
            assert!(text.contains(needle), "{cmd} help missing {needle:?}");
        }
        // The open-loop serving knobs are documented too.
        for needle in [
            "--tenants",
            "--offered-qps",
            "--watermark",
            "--deadline-ms",
            "--no-cache",
            "--hot-fraction",
            "--cache",
        ] {
            assert!(text.contains(needle), "{cmd} help missing {needle:?}");
        }
    }
}

#[test]
fn counters_only_ignores_wall_time_but_gates_counters() {
    let old = tmp("co_old.json");
    let new = tmp("co_new.json");
    std::fs::write(&old, snapshot_json(1_000_000, 100)).unwrap();

    // 10x wall regression: exit 3 normally, exit 0 with --counters-only.
    std::fs::write(&new, snapshot_json(10_000_000, 100)).unwrap();
    let out = cli()
        .args(["metrics-diff", old.to_str().unwrap(), new.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3), "wall regression without flag");
    let out = cli()
        .args([
            "metrics-diff",
            old.to_str().unwrap(),
            new.to_str().unwrap(),
            "--counters-only",
        ])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "wall regression is advisory under --counters-only: {}",
        String::from_utf8_lossy(&out.stdout)
    );

    // A doctored counter regression still fails under --counters-only.
    std::fs::write(&new, snapshot_json(1_000_000, 10_000)).unwrap();
    let out = cli()
        .args([
            "metrics-diff",
            old.to_str().unwrap(),
            new.to_str().unwrap(),
            "--counters-only",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3), "counter regression must gate");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("cas_retries"),
        "counter named in report"
    );

    std::fs::remove_file(&old).ok();
    std::fs::remove_file(&new).ok();
}

/// Generates a graph and runs one durable `serve-bench` pass into
/// `dir`, returning the graph path. Write-heavy so the WAL is never
/// empty.
fn durable_run(name: &str, dir: &std::path::Path) -> PathBuf {
    let graph = tmp(&format!("{name}.txt"));
    assert!(cli()
        .args(["gen", "ba", graph.to_str().unwrap(), "--seed", "3"])
        .status()
        .unwrap()
        .success());
    let out = cli()
        .args([
            "serve-bench",
            graph.to_str().unwrap(),
            "--durable",
            dir.to_str().unwrap(),
            "--ops",
            "12",
            "--batch",
            "6",
            "--read-ratio",
            "0.4",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "durable serve-bench: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("durable dir"), "{text}");
    assert!(text.contains("update batches"), "{text}");
    graph
}

#[test]
fn serve_bench_durable_initializes_then_recovers() {
    let dir = tmp("durable_dir");
    std::fs::remove_dir_all(&dir).ok();
    let graph = durable_run("durable", &dir);
    assert!(dir.join("wal.log").is_file(), "WAL created");

    // A second run against the same directory recovers instead of
    // reinitializing, and keeps exiting 0 on a clean log.
    let out = cli()
        .args([
            "serve-bench",
            graph.to_str().unwrap(),
            "--durable",
            dir.to_str().unwrap(),
            "--ops",
            "6",
            "--batch",
            "4",
            "--read-ratio",
            "0.5",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("recovered        = checkpoint seq"),
        "second run must recover: {text}"
    );

    // wal-inspect on the healthy directory: clean tail, exit 0.
    let out = cli()
        .args(["wal-inspect", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("checkpoints      = [0"), "{text}");
    assert!(text.contains("tail             = clean"), "{text}");

    std::fs::remove_file(&graph).ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn wal_inspect_distinguishes_torn_tail_from_corruption() {
    let dir = tmp("inspect_dir");
    std::fs::remove_dir_all(&dir).ok();
    let graph = durable_run("inspect", &dir);
    let wal = dir.join("wal.log");
    let healthy = std::fs::read(&wal).unwrap();
    assert!(healthy.len() > 16, "workload must have written records");

    // Cut the last few bytes: the kill-mid-write shape. Exit 4 with a
    // warning — the log is still recoverable.
    std::fs::write(&wal, &healthy[..healthy.len() - 3]).unwrap();
    let out = cli()
        .args(["wal-inspect", wal.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(4), "torn tail is the warning code");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("tail             = torn"), "{text}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("warning"), "{err}");

    // Flip a payload byte of the first record instead: mid-log
    // corruption is a hard failure, exit 1.
    let mut corrupt = healthy.clone();
    corrupt[9] ^= 0x10;
    std::fs::write(&wal, &corrupt).unwrap();
    let out = cli()
        .args(["wal-inspect", wal.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "corruption is a hard error");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("tail             = corrupt"), "{text}");

    std::fs::remove_file(&graph).ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_bench_recovery_flags_a_truncated_tail_with_exit_4() {
    let dir = tmp("torn_dir");
    std::fs::remove_dir_all(&dir).ok();
    let graph = durable_run("torn", &dir);

    // Append a partial frame: a header promising far more payload than
    // exists, exactly what a mid-write kill leaves behind.
    let wal = dir.join("wal.log");
    let mut bytes = std::fs::read(&wal).unwrap();
    bytes.extend_from_slice(&[0xFF; 10]);
    std::fs::write(&wal, &bytes).unwrap();

    let out = cli()
        .args([
            "serve-bench",
            graph.to_str().unwrap(),
            "--durable",
            dir.to_str().unwrap(),
            "--ops",
            "6",
            "--batch",
            "4",
            "--read-ratio",
            "0.5",
        ])
        .output()
        .unwrap();
    // The run completes (summary printed), then exits with the
    // torn-tail warning code.
    assert_eq!(
        out.status.code(),
        Some(4),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("(torn tail truncated)"), "{text}");
    assert!(
        text.contains("final generation"),
        "run still completed: {text}"
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("truncating 10 byte(s)"), "{err}");

    std::fs::remove_file(&graph).ok();
    std::fs::remove_dir_all(&dir).ok();
}

/// A snapshot carrying a `histograms` section, with the `serve.query.batch`
/// p99 parameterized so tests can doctor a latency regression.
fn hist_snapshot_json(p99_ns: u64) -> String {
    let max = p99_ns.saturating_mul(2);
    format!(
        r#"{{
  "schema": "hcd-metrics-v1",
  "total_wall_ns": 1000000,
  "total_charged_ns": 1000000,
  "regions": [
    {{"name": "serve.query.batch", "invocations": 1, "chunks": 1, "wall_ns": 1000000, "chunk_sum_ns": 1000000, "chunk_max_ns": 1000000, "chunk_min_ns": 1, "imbalance": 1.0, "checkpoints": 0, "cancelled": 0, "deadline_exceeded": 0, "panicked": 0, "faults_injected": 0}}
  ],
  "counters": [],
  "histograms": {{"version": 1, "sub_bits": 2, "entries": [
    {{"name": "serve.query.batch", "count": 100, "sum_ns": 5000000, "min_ns": 1000, "max_ns": {max}, "p50_ns": 20000, "p90_ns": 30000, "p99_ns": {p99_ns}, "p999_ns": {max}, "buckets": [[40, 100]]}}
  ]}}
}}
"#
    )
}

#[test]
fn metrics_diff_gates_a_doctored_histogram_p99() {
    let old = tmp("hist_old.json");
    let new = tmp("hist_new.json");
    std::fs::write(&old, hist_snapshot_json(50_000)).unwrap();

    // Self-diff of a histogram-bearing snapshot is clean.
    let out = cli()
        .args(["metrics-diff", old.to_str().unwrap(), old.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "self-diff: {}",
        String::from_utf8_lossy(&out.stdout)
    );

    // A 1000x doctored p99 gates with the regression exit code and the
    // report names the histogram quantile row.
    std::fs::write(&new, hist_snapshot_json(50_000_000)).unwrap();
    let out = cli()
        .args(["metrics-diff", old.to_str().unwrap(), new.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3), "doctored p99 must exit 3");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("REGRESSED"), "{text}");
    assert!(text.contains("hist:serve.query.batch:p99_ns"), "{text}");

    // Under --counters-only the same regression is advisory.
    let out = cli()
        .args([
            "metrics-diff",
            old.to_str().unwrap(),
            new.to_str().unwrap(),
            "--counters-only",
        ])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "p99 is advisory under --counters-only: {}",
        String::from_utf8_lossy(&out.stdout)
    );

    std::fs::remove_file(&old).ok();
    std::fs::remove_file(&new).ok();
}

#[test]
fn metrics_diff_warns_about_unknown_sections() {
    let old = tmp("unk_old.json");
    let new = tmp("unk_new.json");
    std::fs::write(&old, snapshot_json(1_000_000, 100)).unwrap();
    let doctored = snapshot_json(1_000_000, 100).replace(
        "\"counters\":",
        "\"zz_experimental\": {\"x\": 1},\n  \"counters\":",
    );
    assert!(doctored.contains("zz_experimental"), "replace failed");
    std::fs::write(&new, doctored).unwrap();

    // The unknown section is skipped — no false regression, exit 0 —
    // but the skip is named on stderr so schema drift is visible.
    let out = cli()
        .args(["metrics-diff", old.to_str().unwrap(), new.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("ignoring unknown section `zz_experimental`"),
        "{err}"
    );
    assert!(
        err.contains(new.to_str().unwrap()),
        "warning names the offending file: {err}"
    );

    std::fs::remove_file(&old).ok();
    std::fs::remove_file(&new).ok();
}

#[test]
fn wal_inspect_prints_a_trailing_summary() {
    let dir = tmp("summary_dir");
    std::fs::remove_dir_all(&dir).ok();
    let graph = durable_run("summary", &dir);

    let out = cli()
        .args(["wal-inspect", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    let summary = text
        .lines()
        .find(|l| l.starts_with("summary          = "))
        .unwrap_or_else(|| panic!("no summary line: {text}"));
    assert!(summary.contains("record(s)"), "{summary}");
    assert!(summary.contains("payload byte(s)"), "{summary}");
    assert!(summary.contains("seq 1..="), "{summary}");
    assert!(summary.ends_with("tail clean"), "{summary}");

    // The summary is the last stdout line even on the torn-tail path.
    let wal = dir.join("wal.log");
    let healthy = std::fs::read(&wal).unwrap();
    std::fs::write(&wal, &healthy[..healthy.len() - 3]).unwrap();
    let out = cli()
        .args(["wal-inspect", wal.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(4));
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().unwrap();
    assert!(last.starts_with("summary          = "), "{text}");
    assert!(last.ends_with("tail torn"), "{last}");

    std::fs::remove_file(&graph).ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_bench_reports_latency_events_and_inflight_stats() {
    let dir = tmp("events_dir");
    std::fs::remove_dir_all(&dir).ok();
    let graph = tmp("events.txt");
    let events = tmp("events.jsonl");
    let events2 = tmp("events2.jsonl");
    assert!(cli()
        .args(["gen", "ba", graph.to_str().unwrap(), "--seed", "3"])
        .status()
        .unwrap()
        .success());
    let out = cli()
        .args([
            "serve-bench",
            graph.to_str().unwrap(),
            "--durable",
            dir.to_str().unwrap(),
            "--ops",
            "12",
            "--batch",
            "6",
            "--read-ratio",
            "0.4",
            "--stats-interval",
            "4",
            "--events",
            events.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    // Periodic in-flight reports fired on the --stats-interval schedule.
    assert!(
        text.lines()
            .filter(|l| l.starts_with("in-flight        = op"))
            .count()
            >= 3,
        "{text}"
    );
    // The percentile report is printed from the emitted snapshot.
    assert!(
        text.contains("latency (p50/p99/p999/max from the emitted hcd-metrics-v1 histograms)"),
        "{text}"
    );
    assert!(
        text.lines()
            .any(|l| l.contains("serve.query.batch") && l.contains("p99=")),
        "{text}"
    );
    assert!(text.contains("events           = "), "{text}");

    // Every event line is schema-tagged JSONL, and the write-heavy run
    // produced batch-applied + published records.
    let log = std::fs::read_to_string(&events).unwrap();
    assert!(log.lines().count() >= 2, "{log}");
    for line in log.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert!(line.contains("\"schema\": \"hcd-events-v1\""), "{line}");
        assert!(line.contains("\"kind\": \""), "{line}");
    }
    assert!(log.contains("\"kind\": \"batch-applied\""), "{log}");
    assert!(log.contains("\"kind\": \"published\""), "{log}");

    // A second run recovers: the recovery report is logged as the first
    // event and printed in detail on stdout.
    let out = cli()
        .args([
            "serve-bench",
            graph.to_str().unwrap(),
            "--durable",
            dir.to_str().unwrap(),
            "--ops",
            "4",
            "--batch",
            "4",
            "--read-ratio",
            "0.5",
            "--events",
            events2.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("recovered        = checkpoint seq"), "{text}");
    assert!(text.contains("replayed records = "), "{text}");
    assert!(text.contains("bytes scanned    = "), "{text}");
    assert!(text.contains("skipped ckpts    = "), "{text}");
    assert!(text.contains("recovery wall    = "), "{text}");
    let log2 = std::fs::read_to_string(&events2).unwrap();
    let first = log2.lines().next().unwrap();
    assert!(first.contains("\"kind\": \"recovery\""), "{log2}");
    assert!(first.contains("\"bytes_scanned\": "), "{first}");

    std::fs::remove_file(&graph).ok();
    std::fs::remove_file(&events).ok();
    std::fs::remove_file(&events2).ok();
    std::fs::remove_dir_all(&dir).ok();
}

/// The open-loop mode prints the offered/achieved/shed report with a
/// per-tenant line each, and — run twice with the same seed under the
/// sequential executor — makes bit-identical shed decisions.
#[test]
fn open_loop_serve_bench_reports_shed_fraction_deterministically() {
    let graph = tmp("cli_openloop.txt");
    let out = cli()
        .args(["gen", "ba", graph.to_str().unwrap(), "--seed", "9"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let run = || {
        cli()
            .args([
                "serve-bench",
                graph.to_str().unwrap(),
                "--tenants",
                "2",
                "--offered-qps",
                "40000",
                "--ticks",
                "50",
                "--watermark",
                "16",
                "--batch",
                "8",
                "--mode",
                "seq",
                "-p",
                "1",
            ])
            .output()
            .unwrap()
    };
    let first = run();
    assert!(
        first.status.success(),
        "{}",
        String::from_utf8_lossy(&first.stderr)
    );
    let text = String::from_utf8_lossy(&first.stdout);
    for needle in [
        "tenants          = 2",
        "tenant t0        = offered ",
        "tenant t1        = offered ",
        "offered total    = ",
        "answered total   = ",
        "achieved         = ",
        "shed fraction    = ",
    ] {
        assert!(text.contains(needle), "missing {needle:?}:\n{text}");
    }
    // Overloaded on purpose: some load must actually shed, and the
    // per-tenant cache must actually hit.
    let shed_line = text
        .lines()
        .find(|l| l.starts_with("shed fraction"))
        .unwrap();
    let shed: f64 = shed_line
        .rsplit('=')
        .next()
        .unwrap()
        .trim()
        .parse()
        .unwrap();
    assert!(shed > 0.0 && shed < 1.0, "{shed_line}");
    assert!(
        text.lines()
            .any(|l| l.starts_with("tenant t0") && l.contains("cache hits ")),
        "{text}"
    );
    // Determinism: the shed decisions (whole tenant lines) reproduce.
    let second = run();
    let text2 = String::from_utf8_lossy(&second.stdout);
    for prefix in ["tenant t0", "tenant t1", "offered total", "shed fraction"] {
        let a = text.lines().find(|l| l.starts_with(prefix)).unwrap();
        let b = text2.lines().find(|l| l.starts_with(prefix)).unwrap();
        assert_eq!(a, b, "{prefix} line drifted between identical runs");
    }
    std::fs::remove_file(&graph).ok();
}

/// `--deadline-ms 0` stamps an already-expired deadline on every
/// arrival: everything sheds, and the run exits with the distinct
/// saturated code 5 (not success, not failure).
#[test]
fn fully_shed_open_loop_exits_with_code_5() {
    let graph = tmp("cli_saturated.txt");
    let out = cli()
        .args(["gen", "tree", graph.to_str().unwrap(), "--seed", "3"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = cli()
        .args([
            "serve-bench",
            graph.to_str().unwrap(),
            "--tenants",
            "1",
            "--offered-qps",
            "5000",
            "--ticks",
            "20",
            "--deadline-ms",
            "0",
            "--mode",
            "seq",
            "-p",
            "1",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(5), "saturated exit code");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("shed fraction    = 1.0000"), "{text}");
    assert!(text.contains("answered total   = 0"), "{text}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("saturated"), "{err}");
    std::fs::remove_file(&graph).ok();
}

/// Open-loop flag validation stays a usage error (exit 2).
#[test]
fn open_loop_bad_flags_are_usage_errors() {
    let graph = tmp("cli_openloop_bad.txt");
    let out = cli()
        .args(["gen", "tree", graph.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    for bad in [
        vec!["--tenants", "0"],
        vec!["--tenants", "2", "--offered-qps", "0"],
        vec!["--tenants", "2", "--hot-fraction", "1.5"],
        vec!["--tenants", "2", "--ticks", "0"],
    ] {
        let mut args = vec!["serve-bench", graph.to_str().unwrap()];
        args.extend(bad.iter());
        let out = cli().args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{bad:?} must be a usage error");
    }
    std::fs::remove_file(&graph).ok();
}
