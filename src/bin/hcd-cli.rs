//! `hcd-cli` — command-line front end for the library.
//!
//! ```text
//! hcd-cli stats  <graph> [-p P] [--timeout-ms T] [--metrics M.json] [--trace T.json]
//! hcd-cli build  <graph> -o index.hcd [-p P] [--timeout-ms T] [--metrics M.json] [--trace T.json]
//! hcd-cli search <graph> [-m METRIC] [-p P] [--timeout-ms T] [--metrics M.json] [--trace T.json]
//! hcd-cli core   <graph> -v VERTEX -k K                   # the k-core containing v
//! hcd-cli dot    <graph> [-p P] [--timeout-ms T]          # Graphviz DOT of the HCD
//! hcd-cli gen    <model> <out> [--seed S]                 # generate a synthetic graph
//! hcd-cli serve-bench <graph> [--durable DIR] [--seed S] [--ops N] [--batch B] [--read-ratio R] [--cache] [--hot-fraction F] [--events E.jsonl] [--stats-interval N] [-p P] [--timeout-ms T] [--metrics M.json] [--trace T.json]
//! hcd-cli serve-bench <graph> --tenants N --offered-qps R [--ticks T] [--watermark W] [--deadline-ms D] [--no-cache] ...   # open-loop mode
//! hcd-cli wal-inspect <dir|wal.log>                       # scan a write-ahead log
//! hcd-cli metrics-diff <old.json> <new.json> [--threshold X] [--abs-floor-ns N] [--counters-only]
//! hcd-cli help                                            # usage and exit codes
//! ```
//!
//! Graphs are text edge lists (`u v` per line, `#` comments) or the
//! compact binary format (`.bin`), auto-detected by extension.
//! `--metrics -` / `--trace -` write the JSON document to stdout.
//! Every command rejects flags it does not accept (exit 2).
//!
//! ## Exit codes
//!
//! | code | meaning |
//! |------|---------|
//! | 0    | success |
//! | 1    | runtime failure (I/O error, worker panic, bad input graph, corrupt WAL) |
//! | 2    | usage error (unknown command, bad flag, unknown metric) |
//! | 3    | `metrics-diff` found a regression past the threshold |
//! | 4    | recovered with a truncated WAL tail (torn-write warning) |
//! | 5    | open-loop `serve-bench` run was fully shed (saturated) |
//! | 124  | deadline exceeded or cancelled (`--timeout-ms` fired) |

use std::process::ExitCode;
use std::time::Duration;

use hcd::prelude::*;

/// Exit code for a run aborted by `--timeout-ms`, matching the
/// convention of coreutils `timeout(1)`.
const EXIT_TIMEOUT: u8 = 124;
/// Exit code for malformed invocations (usage text is printed).
const EXIT_USAGE: u8 = 2;
/// Exit code when `metrics-diff` detects a regression past the
/// threshold — distinct from runtime failure (1) so CI can tell "the
/// comparison ran and found a slowdown" from "the comparison broke".
const EXIT_REGRESSION: u8 = 3;
/// Exit code when a write-ahead log ended in a torn record — expected
/// after a mid-write kill, so it is a warning (the state recovers to
/// the last acknowledged batch), distinct from hard corruption (1).
const EXIT_TORN_TAIL: u8 = 4;
/// Exit code when an open-loop `serve-bench` run answered nothing —
/// every offered request was shed. Distinct from success (the run
/// completed, the shed machinery worked) and from failure (nothing
/// broke); CI uses it to assert the fully-shed regime is reachable.
const EXIT_SATURATED: u8 = 5;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::from(EXIT_USAGE)
        }
        Err(CliError::Runtime(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
        Err(CliError::Regression) => ExitCode::from(EXIT_REGRESSION),
        Err(CliError::TornTail(msg)) => {
            eprintln!("warning: {msg}");
            ExitCode::from(EXIT_TORN_TAIL)
        }
        Err(CliError::Saturated) => {
            eprintln!("warning: open loop saturated: every offered request was shed");
            ExitCode::from(EXIT_SATURATED)
        }
        Err(CliError::Timeout(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::from(EXIT_TIMEOUT)
        }
    }
}

const USAGE: &str = "usage:
  hcd-cli stats  <graph> [-p threads] [--mode M] [--timeout-ms T] [--metrics out.json] [--trace out.json]
  hcd-cli build  <graph> -o <index.hcd> [-p threads] [--mode M] [--timeout-ms T] [--metrics out.json] [--trace out.json]
  hcd-cli search <graph> [-m metric] [-p threads] [--mode M] [--timeout-ms T] [--metrics out.json] [--trace out.json]
  hcd-cli core   <graph> -v <vertex> -k <k>
  hcd-cli dot    <graph> [-p threads] [--mode M] [--timeout-ms T]
  hcd-cli gen    <rmat|ba|er|ws|tree> <out.txt> [--seed S]
  hcd-cli serve-bench <graph> [--durable DIR] [--seed S] [--ops N] [--batch B] [--read-ratio R] [--cache] [--hot-fraction F] [--events out.jsonl] [--stats-interval N] [-p threads] [--mode M] [--timeout-ms T] [--metrics out.json] [--trace out.json]
  hcd-cli serve-bench <graph> --tenants N --offered-qps R [--ticks T] [--watermark W] [--deadline-ms D] [--no-cache] [--hot-fraction F] [--update-every U] [--durable DIR] [--seed S] [--batch B] [-p threads] [--mode M] [--timeout-ms T] [--metrics out.json]
  hcd-cli wal-inspect <dir|wal.log>
  hcd-cli metrics-diff <old.json> <new.json> [--threshold X] [--abs-floor-ns N] [--counters-only]
  hcd-cli help

metrics: average-degree internal-density cut-ratio conductance
         modularity clustering-coefficient (default: average-degree)

--mode selects the executor: seq (single-threaded, the default for
-p 1), sim (deterministic simulated workers), assist (real threads on a
persistent work-assisting pool, the default for -p > 1: workers claim
chunks from an atomic cursor and idle workers join the busiest live
loop). All modes produce identical chunk boundaries, so algorithm
counters are comparable across modes with metrics-diff --counters-only.
Every command rejects a flag it does not list above (exit 2).

--timeout-ms arms a deadline checked at chunk boundaries and at coarse
strides inside hot loops; on expiry the command exits with code 124.

serve-bench stands up the snapshot-isolated query service on the input
graph and drives a seeded mixed read/update workload against it
(--ops operations of --batch queries or edge updates each, reads with
probability --read-ratio, default 0.9; a quarter of the reads are
single typed queries instead of full batches so every serve.query.*
latency histogram gets traffic). The operation stream is a pure
function of --seed, so counters are reproducible run-to-run with -p 1;
combine with --metrics + metrics-diff to gate the serve.* counters and
p99 latencies in CI.

serve-bench always arms metrics and latency histograms and finishes
with a per-boundary latency report (p50/p99/p999/max for each
serve.query.* read path and the writer-side apply / wal / fsync /
merge / checkpoint / rebuild / publish stages) read back out of the emitted
hcd-metrics-v1 snapshot; --metrics additionally writes that snapshot
to a file. --stats-interval N prints an in-flight one-line report
every N operations while the workload runs. --events out.jsonl
attaches a structured writer event log (schema hcd-events-v1, one
JSON object per line): batch-applied / published / no-op / checkpoint
/ recovery / fault-kept-old-snapshot records carrying the WAL seq,
snapshot generation, affected-vertex count, and duration.

--cache arms the generation-keyed memo cache on the closed-loop
service (answers are bit-identical to a disarmed run — the cache keys
by snapshot generation, so invalidation is the epoch bump itself);
--hot-fraction F (default 0 closed-loop, 0.5 open-loop) concentrates F
of the query draws on a small hot vertex set so the cache sees repeat
traffic.

Giving --tenants and/or --offered-qps switches serve-bench into
**open-loop** mode: N tenant copies of the graph are registered in one
process (each with its own epoch cell, serve.<tenant>.* counter
namespace, per-tenant cache, and — with --durable — its own WAL
subdirectory), and a seeded open-loop generator offers --offered-qps
arrivals per virtual second for --ticks 1 ms ticks through a bounded
ingress queue (admission watermark --watermark, optional per-request
deadline --deadline-ms; 0 means already-expired, the deterministic
fully-shed regime). The report shows offered rate, achieved
throughput, shed fraction, per-tenant generations and cache hits, and
p50/p99 from the shared histogram layer. A fully-shed run (offered
load, nothing answered) exits with the distinct code 5. The arrival
schedule and queue dynamics are pure functions of the seed and config,
so shed counts are reproducible with -p 1 --mode seq.

--durable DIR makes the service crash-safe: every update batch is
appended to a checksummed write-ahead log in DIR (fsynced before it is
acknowledged) and snapshot checkpoints are written atomically in the
checksummed binary format. An empty DIR is initialized from the input
graph; a DIR with existing checkpoints is *recovered* first — the
newest valid checkpoint plus the WAL suffix, ignoring the graph
argument — and the run continues from the recovered state. A torn WAL
tail (the shape a mid-write kill leaves) is truncated and reported
with exit code 4 after the run; mid-log corruption refuses to recover
with exit code 1.

wal-inspect scans a write-ahead log (a durability directory or the
wal.log file itself) without modifying it and reports its records,
tail state, and a trailing one-line summary (record count, payload
bytes, seq range, tail status): exit 0 for a clean log, 4 for a torn
tail, 1 for corruption.

--metrics writes per-region runtime observability (schema
hcd-metrics-v1) as JSON; the file is written even when the command
fails, so aborted runs can be diagnosed.

--trace writes a per-thread span timeline (schema hcd-trace-v1) in
Chrome trace-event JSON, loadable in Perfetto / chrome://tracing; like
--metrics, it is written even on failure. `-` as the path for either
flag writes the document to stdout instead of a file.

metrics-diff compares two hcd-metrics-v1 snapshots and exits 3 when
any total, per-region time, imbalance, counter, or histogram p99
regressed past the threshold (default 1.25x, ignoring deltas under
--abs-floor-ns, default 100000; histogram p50/p999/max are reported
but advisory). With --counters-only, timing, imbalance, and histogram
rows are reported but only counter regressions gate (for CI on noisy
runners). Top-level snapshot sections the parser does not recognize
are skipped with a warning naming each one.

exit codes:
  0    success
  1    runtime failure (I/O error, worker panic, bad input graph, corrupt WAL)
  2    usage error (unknown command, bad flag, unknown metric)
  3    metrics-diff found a regression past the threshold
  4    recovered with a truncated WAL tail (torn-write warning)
  5    open-loop serve-bench was fully shed (saturated)
  124  deadline exceeded or cancelled (--timeout-ms fired)";

/// Typed failure, mapped to a distinct process exit code in `main`.
#[derive(Debug)]
enum CliError {
    /// Malformed invocation: exit 2, usage text printed.
    Usage(String),
    /// The command itself failed: exit 1.
    Runtime(String),
    /// `metrics-diff` found a regression: exit 3. The report has already
    /// been printed, so no extra message is attached.
    Regression,
    /// A WAL ended in a torn record (truncated or truncatable at the
    /// last valid record): exit 4, a warning rather than a failure.
    TornTail(String),
    /// An open-loop `serve-bench` run was fully shed: exit 5. The
    /// summary has already been printed.
    Saturated,
    /// A `--timeout-ms` deadline fired (or the run was cancelled): exit 124.
    Timeout(String),
}

/// Maps a parallel-runtime failure onto the CLI's exit-code taxonomy:
/// deadline/cancellation are "timeout" (124), contained worker panics
/// are runtime failures (1).
fn par_err(e: ParError) -> CliError {
    match e {
        ParError::Cancelled | ParError::DeadlineExceeded => CliError::Timeout(e.to_string()),
        other => CliError::Runtime(other.to_string()),
    }
}

/// Maps a serving-layer failure: parallel-pipeline errors keep their
/// timeout/runtime split, WAL and checkpoint failures are runtime.
fn serve_err(e: ServeError) -> CliError {
    match e {
        ServeError::Par(p) => par_err(p),
        other => CliError::Runtime(other.to_string()),
    }
}

/// Maps a recovery failure: corrupt logs and missing checkpoints are
/// runtime failures (exit 1) — the torn-tail *warning* path never
/// reaches here (recovery succeeds and reports it instead).
fn recover_err(e: RecoverError) -> CliError {
    match e {
        RecoverError::Par(p) => par_err(p),
        other => CliError::Runtime(other.to_string()),
    }
}

fn usage(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

/// The flags each command accepts (`None`: unknown command). Flags in
/// [`SWITCHES`] take no value; every other flag consumes the next
/// argument.
fn accepted_flags(cmd: &str) -> Option<&'static [&'static str]> {
    Some(match cmd {
        "stats" => &["-p", "--mode", "--timeout-ms", "--metrics", "--trace"],
        "build" => &["-o", "-p", "--mode", "--timeout-ms", "--metrics", "--trace"],
        "search" => &["-m", "-p", "--mode", "--timeout-ms", "--metrics", "--trace"],
        "core" => &["-v", "-k"],
        "dot" => &["-p", "--mode", "--timeout-ms"],
        "gen" => &["--seed"],
        "serve-bench" => &[
            "--durable",
            "--seed",
            "--ops",
            "--batch",
            "--read-ratio",
            "--cache",
            "--hot-fraction",
            "--events",
            "--stats-interval",
            "--tenants",
            "--offered-qps",
            "--ticks",
            "--watermark",
            "--deadline-ms",
            "--update-every",
            "--no-cache",
            "-p",
            "--mode",
            "--timeout-ms",
            "--metrics",
            "--trace",
        ],
        "metrics-diff" => &["--threshold", "--abs-floor-ns", "--counters-only"],
        "wal-inspect" | "help" | "--help" | "-h" => &[],
        _ => return None,
    })
}

/// The flags that take no value.
const SWITCHES: [&str; 3] = ["--cache", "--no-cache", "--counters-only"];

/// Rejects any flag-shaped argument after the command that the command
/// does not accept, so a typo or a removed option fails loudly instead
/// of being ignored. Flag values are skipped, so `-p -1` reaches the
/// value parser and `--metrics -` stays a stdout target.
fn check_flags(cmd: &str, accepted: &[&str], args: &[String]) -> Result<(), CliError> {
    let mut rest = args.iter().skip(1);
    while let Some(a) = rest.next() {
        if a.len() < 2 || !a.starts_with('-') {
            continue;
        }
        if !accepted.contains(&a.as_str()) {
            return Err(usage(format!("unknown flag {a:?} for {cmd}")));
        }
        if !SWITCHES.contains(&a.as_str()) {
            rest.next();
        }
    }
    Ok(())
}

fn run(args: &[String]) -> Result<(), CliError> {
    let cmd = args.first().ok_or_else(|| usage("missing command"))?;
    if let Some(accepted) = accepted_flags(cmd) {
        check_flags(cmd, accepted, args)?;
    }
    match cmd.as_str() {
        "stats" => {
            let path = args.get(1).ok_or_else(|| usage("missing graph path"))?;
            with_metrics(args, exec_options(args)?, |exec| stats(path, exec))
        }
        "build" => {
            let path = args.get(1).ok_or_else(|| usage("missing graph path"))?;
            let out = flag_value(args, "-o")?.ok_or_else(|| usage("missing -o <index.hcd>"))?;
            with_metrics(args, exec_options(args)?, |exec| build(path, &out, exec))
        }
        "search" => {
            let path = args.get(1).ok_or_else(|| usage("missing graph path"))?;
            let metric = flag_value(args, "-m")?;
            with_metrics(args, exec_options(args)?, |exec| search(path, metric, exec))
        }
        "core" => core_query(
            args.get(1).ok_or_else(|| usage("missing graph path"))?,
            &flag_value(args, "-v")?.ok_or_else(|| usage("missing -v <vertex>"))?,
            &flag_value(args, "-k")?.ok_or_else(|| usage("missing -k <k>"))?,
        ),
        "dot" => dot(
            args.get(1).ok_or_else(|| usage("missing graph path"))?,
            exec_options(args)?,
        ),
        "gen" => gen(
            args.get(1).ok_or_else(|| usage("missing model"))?,
            args.get(2).ok_or_else(|| usage("missing output path"))?,
            flag_value(args, "--seed")?,
        ),
        // serve-bench manages its own metrics/trace lifecycle (not
        // `with_metrics`): it always arms metrics + histograms because
        // the latency report below is sourced from the emitted
        // snapshot, and it must drain the executor exactly once.
        "serve-bench" => serve_bench(
            args.get(1).ok_or_else(|| usage("missing graph path"))?,
            args,
            &exec_options(args)?,
        ),
        "wal-inspect" => wal_inspect(args.get(1).ok_or_else(|| usage("missing wal path"))?),
        "metrics-diff" => metrics_diff(args),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(usage(format!("unknown command {other:?}"))),
    }
}

fn flag_value(args: &[String], flag: &str) -> Result<Option<String>, CliError> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .cloned()
            .map(Some)
            .ok_or_else(|| usage(format!("{flag} requires a value"))),
    }
}

/// Whether a valueless boolean flag is present.
fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

fn load(path: &str) -> Result<CsrGraph, CliError> {
    let g = if path.ends_with(".bin") {
        hcd::graph::io::read_binary_file(path)
    } else {
        hcd::graph::io::read_edge_list_file(path)
    };
    g.map_err(|e| CliError::Runtime(format!("cannot read {path}: {e}")))
}

/// Builds the executor shared by a whole command from its `-p`,
/// `--mode`, and `--timeout-ms` flags: `-p 1` (or a
/// single-core machine) selects the sequential mode, anything larger the
/// work-assisting pool (`assist`) unless `--mode` says otherwise, and a
/// timeout arms a deadline that every parallel region checks. This is
/// the single place mode names are parsed; help text and tests key off
/// the same list.
fn exec_options(args: &[String]) -> Result<Executor, CliError> {
    let threads = match flag_value(args, "-p")? {
        Some(s) => s
            .parse::<usize>()
            .map_err(|e| usage(format!("bad -p: {e}")))?,
        None => std::thread::available_parallelism().map_or(1, |v| v.get()),
    };
    let mode = flag_value(args, "--mode")?;
    let mode = mode
        .as_deref()
        .unwrap_or(if threads == 1 { "seq" } else { "assist" });
    // threads == 0 reaches the try_* constructors so the typed
    // BuildError (ZeroWorkers) produces the usage message.
    let bad_p = |e| usage(format!("bad -p: {e}"));
    let exec = match mode {
        "seq" => Executor::sequential(),
        "sim" => Executor::try_simulated(threads).map_err(bad_p)?,
        "assist" => Executor::try_assist(threads).map_err(bad_p)?,
        other => return Err(usage(format!("bad --mode {other:?} (seq|sim|assist)"))),
    };
    if let Some(ms) = flag_value(args, "--timeout-ms")? {
        let ms = ms
            .parse::<u64>()
            .map_err(|e| usage(format!("bad --timeout-ms: {e}")))?;
        exec.set_deadline(Deadline::from_now(Duration::from_millis(ms)));
    }
    Ok(exec)
}

/// Writes an observability document to `path`, or to stdout when the
/// path is `-` (the conventional stdin/stdout placeholder).
fn write_doc(what: &str, path: &str, json: &str) -> Result<(), CliError> {
    if path == "-" {
        println!("{json}");
        return Ok(());
    }
    std::fs::write(path, json)
        .map_err(|e| CliError::Runtime(format!("cannot write {what} to {path}: {e}")))
}

/// Runs a command with `--metrics <path>` and `--trace <path>` support:
/// when either flag is given, the corresponding collection is enabled on
/// the executor before the command body runs, and the recorded snapshot
/// ([`RunMetrics`] JSON / Chrome trace-event JSON) is written afterwards
/// — even when the command fails, so aborted runs (timeouts, contained
/// panics) leave a diagnosable record. A command failure takes
/// precedence over an observability-write failure in the exit code, and
/// `-` as a path writes to stdout.
fn with_metrics<F>(args: &[String], exec: Executor, f: F) -> Result<(), CliError>
where
    F: FnOnce(&Executor) -> Result<(), CliError>,
{
    let metrics_path = flag_value(args, "--metrics")?;
    let trace_path = flag_value(args, "--trace")?;
    if metrics_path.is_some() {
        exec.set_metrics_enabled(true);
    }
    if trace_path.is_some() {
        exec.arm_trace();
    }
    let mut result = f(&exec);
    if let Some(path) = metrics_path {
        let json = exec.take_metrics().to_json();
        result = result.and(write_doc("metrics", &path, &json));
    }
    if let Some(path) = trace_path {
        let json = exec.take_trace().to_chrome_json();
        result = result.and(write_doc("trace", &path, &json));
    }
    result
}

/// `metrics-diff old.json new.json` — compares two `hcd-metrics-v1`
/// snapshots, prints the per-entry report, and exits 3 when any entry
/// regressed past the threshold. Exit 1 means a snapshot could not be
/// read or parsed; exit 0 means the comparison found no regression.
fn metrics_diff(args: &[String]) -> Result<(), CliError> {
    let old_path = args.get(1).ok_or_else(|| usage("missing old snapshot"))?;
    let new_path = args.get(2).ok_or_else(|| usage("missing new snapshot"))?;
    let mut opts = DiffOptions::default();
    if let Some(t) = flag_value(args, "--threshold")? {
        opts.threshold = t
            .parse::<f64>()
            .map_err(|e| usage(format!("bad --threshold: {e}")))?;
        opts.counter_threshold = opts.counter_threshold.max(opts.threshold);
    }
    if let Some(f) = flag_value(args, "--abs-floor-ns")? {
        opts.abs_floor_ns = f
            .parse::<f64>()
            .map_err(|e| usage(format!("bad --abs-floor-ns: {e}")))?;
    }
    opts.counters_only = has_flag(args, "--counters-only");
    let read_snapshot = |path: &str| -> Result<Snapshot, CliError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError::Runtime(format!("cannot read {path}: {e}")))?;
        Snapshot::parse(&text).map_err(|e| CliError::Runtime(format!("cannot parse {path}: {e}")))
    };
    let old = read_snapshot(old_path)?;
    let new = read_snapshot(new_path)?;
    // Sections the parser does not understand are excluded from the
    // comparison; say so, or schema drift between the two snapshots
    // would pass silently.
    for (path, snap) in [(old_path, &old), (new_path, &new)] {
        for section in &snap.unknown_sections {
            eprintln!("warning: {path}: ignoring unknown section `{section}`");
        }
    }
    let report = diff_metrics(&old, &new, &opts);
    print!("{report}");
    if report.regressed() {
        Err(CliError::Regression)
    } else {
        Ok(())
    }
}

/// Core decomposition (bin-sort peeling on one worker, PKC otherwise),
/// then PHCD, on the graph as loaded.
fn pipeline(g: &CsrGraph, exec: &Executor) -> Result<(CoreDecomposition, Hcd), CliError> {
    let cores = try_core_decomposition(g, exec).map_err(par_err)?;
    let hcd = try_phcd(g, &cores, exec).map_err(par_err)?;
    Ok((cores, hcd))
}

fn stats(path: &str, exec: &Executor) -> Result<(), CliError> {
    let g = load(path)?;
    let (cores, hcd) = pipeline(&g, exec)?;
    println!("n     = {}", g.num_vertices());
    println!("m     = {}", g.num_edges());
    println!("davg  = {:.2}", g.avg_degree());
    println!("dmax  = {}", g.max_degree());
    println!("kmax  = {}", cores.kmax());
    println!("|T|   = {}", hcd.num_nodes());
    println!("roots = {}", hcd.roots().len());
    Ok(())
}

fn build(path: &str, out: &str, exec: &Executor) -> Result<(), CliError> {
    let g = load(path)?;
    let (_, hcd) = pipeline(&g, exec)?;
    let file = std::fs::File::create(out)
        .map_err(|e| CliError::Runtime(format!("cannot create {out}: {e}")))?;
    hcd::core::io::write_hcd(&hcd, file)
        .map_err(|e| CliError::Runtime(format!("cannot write index: {e}")))?;
    println!("wrote {} nodes to {out}", hcd.num_nodes());
    Ok(())
}

fn parse_metric(m: Option<String>) -> Result<Metric, CliError> {
    let name = m.unwrap_or_else(|| "average-degree".into());
    Metric::ALL
        .into_iter()
        .find(|metric| metric.name() == name)
        .ok_or_else(|| usage(format!("unknown metric {name:?}")))
}

fn search(path: &str, metric: Option<String>, exec: &Executor) -> Result<(), CliError> {
    let g = load(path)?;
    let metric = parse_metric(metric)?;
    let (cores, hcd) = pipeline(&g, exec)?;
    let ctx = SearchContext::try_with_executor(&g, &cores, &hcd, exec).map_err(par_err)?;
    match try_pbks(&ctx, &metric, exec).map_err(par_err)? {
        None => println!("graph is empty"),
        Some(best) => {
            println!("metric    = {}", metric.name());
            println!("best k    = {}", best.k);
            println!("score     = {:.6}", best.score);
            println!("|S|       = {}", best.primaries.n);
            println!("m(S)      = {}", best.primaries.m() as u64);
            println!("b(S)      = {}", best.primaries.b);
        }
    }
    Ok(())
}

fn core_query(path: &str, v: &str, k: &str) -> Result<(), CliError> {
    let g = load(path)?;
    let v: u32 = v.parse().map_err(|e| usage(format!("bad -v: {e}")))?;
    let k: u32 = k.parse().map_err(|e| usage(format!("bad -k: {e}")))?;
    if v as usize >= g.num_vertices() {
        return Err(CliError::Runtime(format!("vertex {v} out of range")));
    }
    let (cores, hcd) = pipeline(&g, &Executor::sequential())?;
    match core_containing(&hcd, &cores, v, k) {
        None => println!(
            "vertex {v} has coreness {} < {k}: no such core",
            cores.coreness(v)
        ),
        Some(members) => {
            println!("{}-core containing {v}: {} vertices", k, members.len());
            for chunk in members.chunks(16) {
                println!(
                    "  {}",
                    chunk
                        .iter()
                        .map(|x| x.to_string())
                        .collect::<Vec<_>>()
                        .join(" ")
                );
            }
        }
    }
    Ok(())
}

fn dot(path: &str, exec: Executor) -> Result<(), CliError> {
    let g = load(path)?;
    let (_, hcd) = pipeline(&g, &exec)?;
    print!("{}", hcd.to_dot());
    Ok(())
}

/// Parses an optional numeric flag, falling back to `default`.
fn num_flag<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, CliError>
where
    T::Err: std::fmt::Display,
{
    match flag_value(args, flag)? {
        None => Ok(default),
        Some(s) => s.parse().map_err(|e| usage(format!("bad {flag}: {e}"))),
    }
}

/// Renders nanoseconds in the most readable unit for its magnitude.
fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0}ns")
    } else if ns < 1_000_000.0 {
        format!("{:.1}us", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2}ms", ns / 1_000_000.0)
    } else {
        format!("{:.3}s", ns / 1_000_000_000.0)
    }
}

/// Prints the serve commands' latency report: every `serve.*` histogram
/// plus the writer's `dynamic.merge`, so a write's time splits into its
/// stages. The one place that decides which histograms the report lists.
fn print_serve_latency(snap: &Snapshot) {
    let mut hists: Vec<&SnapshotHistogram> = snap
        .histograms
        .iter()
        .filter(|h| h.name.starts_with("serve.") || h.name == "dynamic.merge")
        .collect();
    hists.sort_by(|a, b| a.name.cmp(&b.name));
    if !hists.is_empty() {
        println!("latency (p50/p99/p999/max from the emitted hcd-metrics-v1 histograms)");
        for h in hists {
            println!(
                "  {:<18} p50={:<8} p99={:<8} p999={:<8} max={:<8} n={}",
                h.name,
                fmt_ns(h.p50_ns),
                fmt_ns(h.p99_ns),
                fmt_ns(h.p999_ns),
                fmt_ns(h.max_ns),
                h.count as u64
            );
        }
    }
}

/// `serve-bench <graph>` — builds the generation-0 snapshot, then drives
/// the seeded mixed read/update workload from `hcd_serve::run_workload`
/// through the shared executor, printing the summary and a per-boundary
/// latency report (p50/p99/p999) read back out of the emitted
/// `hcd-metrics-v1` snapshot. Metrics and histograms are always armed;
/// `--metrics` only controls whether the snapshot is also written out.
fn serve_bench(path: &str, args: &[String], exec: &Executor) -> Result<(), CliError> {
    let g = load(path)?;
    // --tenants / --offered-qps switch to the open-loop multi-tenant
    // driver; everything below is the historical closed loop.
    if flag_value(args, "--tenants")?.is_some() || flag_value(args, "--offered-qps")?.is_some() {
        return serve_bench_open_loop(path, &g, args, exec);
    }
    let cfg = WorkloadConfig {
        seed: num_flag(args, "--seed", 42u64)?,
        ops: num_flag(args, "--ops", 64usize)?,
        batch_size: num_flag(args, "--batch", 32usize)?,
        read_ratio: num_flag(args, "--read-ratio", 0.9f64)?,
        // Leave headroom above the current vertex count so inserts can
        // grow the graph and queries exercise unknown-id paths.
        universe: (g.num_vertices() as VertexId).max(2).saturating_mul(2),
        hot_fraction: num_flag(args, "--hot-fraction", 0.0f64)?,
    };
    if !(0.0..=1.0).contains(&cfg.read_ratio) {
        return Err(usage(format!(
            "bad --read-ratio {} (0..=1)",
            cfg.read_ratio
        )));
    }
    if !(0.0..=1.0).contains(&cfg.hot_fraction) {
        return Err(usage(format!(
            "bad --hot-fraction {} (0..=1)",
            cfg.hot_fraction
        )));
    }
    let arm_cache = has_flag(args, "--cache");
    let durable_dir = flag_value(args, "--durable")?;
    let metrics_path = flag_value(args, "--metrics")?;
    let trace_path = flag_value(args, "--trace")?;
    let events_path = flag_value(args, "--events")?;
    let stats_interval = num_flag(args, "--stats-interval", 0usize)?;
    // The latency report is part of the bench output, so histograms
    // (and the metrics they are drained through) are armed
    // unconditionally — `--metrics` only adds the file write.
    exec.set_metrics_enabled(true);
    exec.arm_histograms();
    if trace_path.is_some() {
        exec.arm_trace();
    }
    let mut recovery: Option<RecoveryReport> = None;
    let mut service = match &durable_dir {
        None => HcdService::try_new(&g, exec).map_err(par_err)?,
        Some(dir) => {
            let dir = std::path::Path::new(dir);
            let has_state = hcd::serve::checkpoint::list_checkpoints(dir)
                .map(|c| !c.is_empty())
                .unwrap_or(false);
            if has_state {
                let (svc, report) = HcdService::recover(dir, DurabilityConfig::default(), exec)
                    .map_err(recover_err)?;
                println!(
                    "recovered        = checkpoint seq {} + {} replayed wal record(s){}",
                    report.checkpoint_seq,
                    report.replayed,
                    if report.tail_was_truncated() {
                        " (torn tail truncated)"
                    } else {
                        ""
                    }
                );
                println!("replayed records = {}", report.replayed);
                println!("bytes scanned    = {}", report.bytes_scanned);
                println!("skipped ckpts    = {}", report.checkpoints_skipped);
                println!(
                    "recovery wall    = {:.3}ms",
                    report.wall_ns as f64 / 1_000_000.0
                );
                recovery = Some(report);
                svc
            } else {
                HcdService::try_new_durable(&g, dir, DurabilityConfig::default(), exec)
                    .map_err(serve_err)?
            }
        }
    };
    if arm_cache {
        service = service.with_cache(CacheConfig::default());
    }
    if let Some(p) = &events_path {
        let mut log = EventLog::create(p)
            .map_err(|e| CliError::Runtime(format!("cannot create event log {p}: {e}")))?;
        if let Some(r) = &recovery {
            log.recovery(r);
        }
        service.attach_event_log(log);
    }
    let start = std::time::Instant::now();
    let run_result = run_workload_with(&service, &cfg, exec, stats_interval, |done, s| {
        // Periodic in-flight report: peek (not drain) the histograms so
        // the final snapshot still covers the whole run.
        let mut parts: Vec<String> = Vec::new();
        for h in exec.histogram_snapshots() {
            if h.count > 0 && (h.name.starts_with("serve.query.") || h.name == "serve.apply") {
                parts.push(format!(
                    "{} p99={}",
                    h.name.trim_start_matches("serve."),
                    fmt_ns(h.quantile(0.99) as f64)
                ));
            }
        }
        println!(
            "in-flight        = op {done}/{} gen {} | {}",
            cfg.ops,
            s.final_generation,
            parts.join(" | ")
        );
    })
    .map_err(serve_err);
    let elapsed = start.elapsed();
    // Drain the executor exactly once; the same JSON document feeds the
    // latency report below and the optional --metrics file, and — like
    // `with_metrics` — is written even when the run failed.
    let json = exec.take_metrics().to_json();
    let mut doc_result: Result<(), CliError> = Ok(());
    if let Some(p) = &metrics_path {
        doc_result = doc_result.and(write_doc("metrics", p, &json));
    }
    if let Some(p) = &trace_path {
        let trace_json = exec.take_trace().to_chrome_json();
        doc_result = doc_result.and(write_doc("trace", p, &trace_json));
    }
    // A run failure takes precedence over an observability-write failure.
    let summary = run_result?;
    doc_result?;
    println!("graph            = {path}");
    if let Some(dir) = &durable_dir {
        println!("durable dir      = {dir}");
    }
    println!("ops              = {}", cfg.ops);
    println!("batch size       = {}", cfg.batch_size);
    println!("read ratio       = {}", cfg.read_ratio);
    println!("queries          = {}", summary.queries);
    println!("single queries   = {}", summary.single_queries);
    println!("query batches    = {}", summary.query_batches);
    println!("update batches   = {}", summary.update_batches);
    println!("no-op batches    = {}", summary.noop_update_batches);
    println!("updates applied  = {}", summary.updates_applied);
    println!("updates skipped  = {}", summary.updates_skipped);
    println!("positive answers = {}", summary.positive_answers);
    println!("final generation = {}", summary.final_generation);
    println!("elapsed          = {:.3}s", elapsed.as_secs_f64());
    if let Some(stats) = service.cache_stats() {
        println!(
            "cache            = hits {} misses {} evictions {} entries {} bytes {}",
            stats.hits, stats.misses, stats.evictions, stats.entries, stats.bytes
        );
    }
    // The latency report is read back out of the emitted JSON snapshot
    // (not the live executor), so what is printed is exactly what a
    // metrics-diff against the same file would gate on.
    let snap = Snapshot::parse(&json)
        .map_err(|e| CliError::Runtime(format!("emitted metrics snapshot did not parse: {e}")))?;
    print_serve_latency(&snap);
    if let Some(p) = &events_path {
        let lines = std::fs::read_to_string(p).map_or(0, |s| s.lines().count());
        println!("events           = {lines} line(s) -> {p}");
    }
    // The run itself succeeded; surface a tail truncation as the
    // distinct warning exit code after everything is printed.
    if let Some(r) = recovery {
        if r.tail_was_truncated() {
            return Err(CliError::TornTail(format!(
                "recovered after truncating {} byte(s) of torn WAL tail",
                r.truncated_bytes
            )));
        }
    }
    Ok(())
}

/// The open-loop multi-tenant `serve-bench` mode (`--tenants` /
/// `--offered-qps`). Registers N tenant copies of the graph in one
/// `ServiceRegistry` (each with its own epoch cell, `serve.<tenant>.*`
/// counter namespace, optional per-tenant cache, and — with
/// `--durable` — its own WAL subdirectory), then offers load at a
/// fixed virtual rate through each tenant's bounded ingress queue.
/// Reports offered rate, achieved throughput, shed fraction, cache
/// hits, and p50/p99 from the shared histogram layer. The arrival
/// schedule and every shed decision are pure functions of the seed and
/// knobs under `--mode seq -p 1`; a fully-shed run exits 5.
fn serve_bench_open_loop(
    path: &str,
    g: &CsrGraph,
    args: &[String],
    exec: &Executor,
) -> Result<(), CliError> {
    let tenants: usize = num_flag(args, "--tenants", 2usize)?;
    if tenants == 0 || tenants > 64 {
        return Err(usage(format!("bad --tenants {tenants} (1..=64)")));
    }
    let olcfg = OpenLoopConfig {
        seed: num_flag(args, "--seed", 42u64)?,
        offered_qps: num_flag(args, "--offered-qps", 10_000u64)?,
        ticks: num_flag(args, "--ticks", 1000u64)?,
        drain_batch: num_flag(args, "--batch", 32usize)?,
        watermark: num_flag(args, "--watermark", 256usize)?,
        deadline_ms: match flag_value(args, "--deadline-ms")? {
            None => None,
            Some(v) => Some(
                v.parse()
                    .map_err(|e| usage(format!("bad --deadline-ms: {e}")))?,
            ),
        },
        update_every: num_flag(args, "--update-every", 100u64)?,
        // Same headroom rule as the closed loop.
        universe: (g.num_vertices() as VertexId).max(2).saturating_mul(2),
        hot_fraction: num_flag(args, "--hot-fraction", 0.5f64)?,
    };
    if olcfg.offered_qps == 0 {
        return Err(usage("--offered-qps must be > 0"));
    }
    if olcfg.ticks == 0 {
        return Err(usage("--ticks must be > 0"));
    }
    if !(0.0..=1.0).contains(&olcfg.hot_fraction) {
        return Err(usage(format!(
            "bad --hot-fraction {} (0..=1)",
            olcfg.hot_fraction
        )));
    }
    let no_cache = has_flag(args, "--no-cache");
    let durable_dir = flag_value(args, "--durable")?;
    let metrics_path = flag_value(args, "--metrics")?;
    exec.set_metrics_enabled(true);
    exec.arm_histograms();
    let mut reg = match &durable_dir {
        Some(dir) => ServiceRegistry::with_base_dir(dir),
        None => ServiceRegistry::new(),
    };
    let tcfg = TenantConfig {
        cache: (!no_cache).then(CacheConfig::default),
        durability: durable_dir.as_ref().map(|_| DurabilityConfig::default()),
    };
    let names: Vec<String> = (0..tenants).map(|i| format!("t{i}")).collect();
    for name in &names {
        reg.try_register(name, g, &tcfg, exec)
            .map_err(|e| CliError::Runtime(format!("cannot register tenant {name}: {e}")))?;
    }
    println!("graph            = {path}");
    if let Some(dir) = &durable_dir {
        println!("durable dir      = {dir} (one subdirectory per tenant)");
    }
    println!("tenants          = {tenants}");
    println!(
        "offered          = {} qps x {:.3} virtual s per tenant",
        olcfg.offered_qps,
        olcfg.ticks as f64 / 1000.0
    );
    println!("drain batch      = {}", olcfg.drain_batch);
    println!("watermark        = {}", olcfg.watermark);
    println!(
        "deadline         = {}",
        olcfg
            .deadline_ms
            .map_or("none".to_string(), |ms| format!("{ms}ms"))
    );
    println!(
        "cache            = {}",
        if no_cache { "disarmed" } else { "armed" }
    );
    let start = std::time::Instant::now();
    let mut rows: Vec<(String, OpenLoopSummary, Option<CacheStats>)> = Vec::new();
    for (i, name) in names.iter().enumerate() {
        let svc = reg.get(name).expect("registered above");
        let ingress = IngressQueue::for_tenant(
            AdmissionConfig {
                watermark: olcfg.watermark,
                default_deadline: None,
            },
            name,
        );
        // Per-tenant seed offset: distinct but reproducible streams.
        let cfg = OpenLoopConfig {
            seed: olcfg.seed.wrapping_add(i as u64),
            ..olcfg
        };
        let s = run_open_loop(&svc, &ingress, &cfg, exec).map_err(serve_err)?;
        rows.push((name.clone(), s, svc.cache_stats()));
    }
    let elapsed = start.elapsed();
    // One drain feeds both the latency report and the optional file,
    // exactly like the closed loop.
    let json = exec.take_metrics().to_json();
    if let Some(p) = &metrics_path {
        write_doc("metrics", p, &json)?;
    }
    let (mut offered, mut answered, mut shed) = (0u64, 0u64, 0u64);
    for (name, s, cache) in &rows {
        offered += s.offered;
        answered += s.answered;
        shed += s.shed();
        let cache_col = cache.map_or("-".to_string(), |c| {
            format!("hits {}/{}", c.hits, c.hits + c.misses)
        });
        println!(
            "tenant {name:<10}= offered {} answered {} shed {} ({:.2}%) maxdepth {} gen {} cache {}",
            s.offered,
            s.answered,
            s.shed(),
            100.0 * s.shed_fraction(),
            s.max_depth,
            s.final_generation,
            cache_col
        );
    }
    let virtual_secs = olcfg.ticks as f64 / 1000.0;
    println!("offered total    = {offered}");
    println!("answered total   = {answered}");
    println!(
        "achieved         = {:.1} qps per tenant (virtual time)",
        answered as f64 / (tenants as f64 * virtual_secs)
    );
    println!(
        "shed fraction    = {:.4}",
        if offered == 0 {
            0.0
        } else {
            shed as f64 / offered as f64
        }
    );
    println!("elapsed          = {:.3}s (wall)", elapsed.as_secs_f64());
    let snap = Snapshot::parse(&json)
        .map_err(|e| CliError::Runtime(format!("emitted metrics snapshot did not parse: {e}")))?;
    print_serve_latency(&snap);
    if offered > 0 && answered == 0 {
        return Err(CliError::Saturated);
    }
    Ok(())
}

/// `wal-inspect <dir|wal.log>` — scans a write-ahead log (read-only)
/// and reports its records and tail state. Exit 0 for a clean log, 4
/// for a torn tail, 1 for mid-log corruption.
fn wal_inspect(path: &str) -> Result<(), CliError> {
    use hcd::serve::wal::scan_wal_file;
    let p = std::path::Path::new(path);
    let wal_path = if p.is_dir() {
        p.join(WAL_FILE_NAME)
    } else {
        p.to_path_buf()
    };
    if p.is_dir() {
        let ckpts = hcd::serve::checkpoint::list_checkpoints(p)
            .map_err(|e| CliError::Runtime(format!("cannot list {path}: {e}")))?;
        let seqs: Vec<String> = ckpts.iter().map(|(s, _)| s.to_string()).collect();
        println!("checkpoints      = [{}]", seqs.join(", "));
    }
    let scan = scan_wal_file(&wal_path)
        .map_err(|e| CliError::Runtime(format!("cannot read {}: {e}", wal_path.display())))?;
    println!("wal              = {}", wal_path.display());
    println!("records          = {}", scan.records.len());
    let updates: usize = scan.records.iter().map(|r| r.updates.len()).sum();
    println!("updates          = {updates}");
    if let (Some(first), Some(last)) = (scan.records.first(), scan.records.last()) {
        println!("seq range        = {}..={}", first.seq, last.seq);
    }
    println!("valid bytes      = {}", scan.valid_len());
    // One trailing machine-grepable roll-up of everything above.
    let payload_bytes: u64 = scan
        .records
        .iter()
        .map(|r| hcd::serve::wal::encode_payload(r.seq, &r.updates).len() as u64)
        .sum();
    let seq_range = match (scan.records.first(), scan.records.last()) {
        (Some(first), Some(last)) => format!("seq {}..={}", first.seq, last.seq),
        _ => "seq -".to_string(),
    };
    let tail_word = match scan.tail {
        TailStatus::Clean => "clean",
        TailStatus::TornTail { .. } => "torn",
        TailStatus::Corrupt { .. } => "corrupt",
    };
    let summary = format!(
        "summary          = {} record(s), {} payload byte(s), {}, tail {}",
        scan.records.len(),
        payload_bytes,
        seq_range,
        tail_word
    );
    match scan.tail {
        TailStatus::Clean => {
            println!("tail             = clean");
            println!("{summary}");
            Ok(())
        }
        TailStatus::TornTail {
            torn_bytes,
            valid_len,
        } => {
            println!("tail             = torn ({torn_bytes} byte(s) past offset {valid_len})");
            println!("{summary}");
            Err(CliError::TornTail(format!(
                "torn WAL tail: {torn_bytes} byte(s) would be truncated on recovery"
            )))
        }
        TailStatus::Corrupt { offset, reason } => {
            println!("tail             = corrupt at byte {offset}: {reason}");
            println!("{summary}");
            Err(CliError::Runtime(format!(
                "corrupt WAL record at byte {offset}: {reason}"
            )))
        }
    }
}

fn gen(model: &str, out: &str, seed: Option<String>) -> Result<(), CliError> {
    let seed: u64 = seed
        .map(|s| s.parse().map_err(|e| usage(format!("bad --seed: {e}"))))
        .transpose()?
        .unwrap_or(42);
    let g = match model {
        "rmat" => rmat(14, 8, None, seed),
        "ba" => barabasi_albert(10_000, 4, seed),
        "er" => gnp(10_000, 0.001, seed),
        "ws" => watts_strogatz(10_000, 8, 0.05, seed),
        "tree" => core_tree(3, 4, 16, seed),
        other => {
            return Err(usage(format!(
                "unknown model {other:?} (rmat|ba|er|ws|tree)"
            )))
        }
    };
    let file = std::fs::File::create(out)
        .map_err(|e| CliError::Runtime(format!("cannot create {out}: {e}")))?;
    hcd::graph::io::write_edge_list(&g, file).map_err(|e| CliError::Runtime(e.to_string()))?;
    println!(
        "wrote {} ({} vertices, {} edges)",
        out,
        g.num_vertices(),
        g.num_edges()
    );
    Ok(())
}
