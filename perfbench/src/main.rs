//! Wall-clock benchmark of the hcd build and serve paths.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload build-lj|serve-random|all \
//!     [--seed N] [--seconds S] [--trace 0|1] [--doctor-fingerprint]
//! ```
//!
//! Each run generates its inputs from the seed, sets up, runs a build
//! phase and a serve phase for `--seconds` in total, checks every output,
//! and prints one `metric` line per metric followed, as its last line,
//! by a JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` arms the
//! library's metrics and histograms and reports the per-layer metrics.
//! The exit code is 0 only when every check passed.

mod buildpath;
mod catalogue;
mod inputs;
mod servepath;
mod stats;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use hcd::par::{Executor, RunMetrics};
use hcd::serve::{CacheConfig, DurabilityConfig, HcdService};

use inputs::{Inputs, Workload, WORKLOADS};
use stats::{hist_mean_ns, hist_quantile_ns, median, quantile};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Share of the run given to the mirror replay in traced runs.
const MIRROR_SHARE: f64 = 0.25;
/// Share of the build phase given to the sequential baseline in traced runs.
const SEQUENTIAL_SHARE: f64 = 0.1;
/// Default seed: with it `build-lj` builds the LiveJournal stand-in.
const DEFAULT_SEED: u64 = 0x17;

const USAGE: &str = "usage: hcd-perfbench --workload <build-lj|serve-random|all> \
                     [--seed N] [--seconds S] [--trace 0|1] [--doctor-fingerprint]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    doctor: bool,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 55.0,
        trace: false,
        doctor: false,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = parse_u64(&value()?).ok_or("--seed takes an integer")?,
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or("--seconds takes a positive number")?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--doctor-fingerprint" => args.doctor = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload != "all" && inputs::workload(&args.workload).is_none() {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

/// One reported value.
struct Value {
    name: &'static str,
    value: f64,
    samples: usize,
}

/// A run's outcome: its metrics and the tally of checked operations.
#[derive(Default)]
struct Report {
    values: Vec<Value>,
    /// Values printed as `metric` lines but left out of the result
    /// object: user-facing figures too unsteady on a shared host to
    /// gate, each with its unit.
    ungated: Vec<(Value, &'static str)>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Report {
    fn put(&mut self, name: &'static str, value: f64, samples: usize) {
        self.values.push(Value {
            name,
            value,
            samples,
        });
    }

    fn put_ungated(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        let v = Value {
            name,
            value,
            samples,
        };
        self.ungated.push((v, unit));
    }

    fn tally(&mut self, attempted: u64, failed: u64, errors: Vec<String>) {
        self.attempted += attempted;
        self.failed += failed;
        self.errors.extend(errors);
    }

    /// One `metric` line per value (name, value, unit, sample count),
    /// then the result object as the last line.
    fn print(&self) {
        for v in &self.values {
            let unit = catalogue::unit_of(v.name).expect("every reported metric is catalogued");
            let explains = catalogue::END_TO_END
                .iter()
                .find(|m| m.name == v.name)
                .map(|m| format!("; {} is better, bound {}", m.better, m.bound))
                .or_else(|| {
                    catalogue::PER_LAYER
                        .iter()
                        .find(|l| l.name == v.name)
                        .map(|l| format!("; {} is better, moves {} on {}", l.better, l.moves, l.on))
                })
                .unwrap_or_default();
            println!(
                "metric {} = {} {unit} (n={}){explains}",
                v.name, v.value, v.samples
            );
        }
        for (v, unit) in &self.ungated {
            println!(
                "metric {} = {} {unit} (n={}); not gated, see perfbench/README.md",
                v.name, v.value, v.samples
            );
        }
        println!(
            "metric fail_frac = {} ratio (n={})",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.attempted
        );
        for e in self.errors.iter().take(20) {
            println!("check failed: {e}");
        }
        let metrics: Vec<String> = self
            .values
            .iter()
            .map(|v| {
                let unit = catalogue::unit_of(v.name).expect("catalogued");
                let value = if v.value.is_finite() {
                    v.value.to_string()
                } else {
                    "null".into()
                };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
                    v.name
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }

    fn correct(&self) -> bool {
        self.failed == 0
            && self.errors.is_empty()
            && self.values.iter().all(|v| v.value.is_finite())
    }
}

/// `nproc`, CPU model, compiler and commit, printed with every result so
/// results from different machines are never compared unawares.
fn machine_line() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "machine nproc={nproc} cpu={cpu:?} rustc={:?} commit={}",
        env!("PERFBENCH_RUSTC_VERSION"),
        git_commit().unwrap_or_else(|| "unknown".into())
    )
}

/// The commit checked out in the working directory, read from `.git`
/// directly (a checkout without `.git` reports none).
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(hash.trim().to_string());
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()?
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split(' ').next())
        .map(str::to_string)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn run(w: &Workload, args: &Args) -> Report {
    let mut report = Report::default();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let build_budget = Duration::from_secs_f64(args.seconds * w.build_share);
    let serve_budget = Duration::from_secs_f64(args.seconds * (1.0 - w.build_share));
    // Far more batches than a run applies: the writer must not run dry.
    let max_batches = (serve_budget.as_secs_f64() * 1000.0).ceil() as usize + 64;
    let inputs = Inputs::generate(w, args.seed, serve_budget.as_secs_f64(), max_batches);
    let reference = match buildpath::Reference::compute(&inputs.edge_list) {
        Ok(r) => r,
        Err(e) => {
            report.tally(1, 1, vec![e]);
            return report;
        }
    };
    let dir = PathBuf::from(".bench_state").join(format!("{}-{}", w.name, std::process::id()));

    // Set-up: the build executor plus one warm-up iteration, then the
    // durable service with its cache armed. Repeated; the median is
    // reported.
    let mut build_phase = buildpath::Phase::default();
    let mut setup_s = Vec::new();
    let mut state = None;
    for _ in 0..SETUP_REPS {
        drop(state.take());
        let t = Instant::now();
        let exec = if w.parallel_build {
            Executor::assist(nproc)
        } else {
            Executor::sequential()
        };
        let warm = buildpath::iteration(&inputs.edge_list, &exec, &reference);
        // Sequential, so the executor plus the writer and reader threads
        // stay within the two cores of the smallest reference machine.
        let writer_exec = Executor::sequential();
        let svc = HcdService::try_new_durable(
            &inputs.serve_graph,
            &dir,
            DurabilityConfig::default(),
            &writer_exec,
        );
        setup_s.push(t.elapsed().as_secs_f64());
        build_phase.tally(warm);
        match svc {
            Ok(svc) => state = Some((exec, writer_exec, svc.with_cache(CacheConfig::default()))),
            Err(e) => {
                report.tally(1, 1, vec![format!("service set-up: {e}")]);
                let _ = std::fs::remove_dir_all(&dir);
                return report;
            }
        }
    }
    let (exec, writer_exec, svc) = state.expect("at least one set-up ran");
    report.tally(
        build_phase.attempted,
        build_phase.failed,
        build_phase.errors,
    );

    let build = buildpath::run(
        &inputs.edge_list,
        &exec,
        &reference,
        build_budget,
        args.trace,
    );
    drop(exec);
    report.tally(build.attempted, build.failed, build.errors.clone());

    let (writes, reads) = servepath::run(&svc, &writer_exec, &inputs, serve_budget, args.trace);
    let serve_metrics = writer_exec.take_metrics();
    let cache_hit_frac = svc.cache_stats().map_or(f64::NAN, |c| {
        c.hits as f64 / (c.hits + c.misses).max(1) as f64
    });
    report.tally(
        writes.submitted as u64,
        writes.failed,
        writes.errors.clone(),
    );
    report.tally(reads.attempted, reads.failed, reads.errors.clone());
    let (checked, errors) = servepath::verify_samples(&reads.samples);
    report.tally(checked, errors.len() as u64, errors);
    let fin = servepath::check_final(&svc, &inputs, writes.submitted, args.doctor);
    report.tally(1, u64::from(fin.is_err()), fin.err().into_iter().collect());
    drop(svc);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(".bench_state");

    if args.trace {
        let seq = buildpath::sequential_build_ms(
            &inputs.edge_list,
            build_budget.mul_f64(SEQUENTIAL_SHARE),
        );
        let mirror = servepath::replay_mirror(
            &inputs.serve_graph,
            &inputs.batches[..writes.submitted],
            Duration::from_secs_f64(args.seconds * MIRROR_SHARE),
        );
        report.tally(
            mirror.apply_ms.len() as u64,
            mirror.failed,
            mirror.errors.clone(),
        );
        let seq = seq.unwrap_or_else(|e| {
            report.tally(1, 1, vec![e]);
            Vec::new()
        });
        per_layer(
            &mut report,
            &build,
            &seq,
            &writes,
            &reads,
            &serve_metrics,
            cache_hit_frac,
            &mirror,
        );
    } else {
        end_to_end(&mut report, &setup_s, &build, &writes, &reads);
    }
    report
}

/// The median over the seconds of the serve phase of each second's
/// `q`-quantile read latency (`by_second` holds one group of latencies
/// per second). A pooled quantile moves with every second the host ran
/// fast or slow; this one moves only when most seconds do. Seconds with
/// too few reads for the quantile are skipped.
fn windowed(by_second: &[Vec<f64>], q: f64) -> f64 {
    let min_reads = (10.0 / (1.0 - q)).ceil() as usize;
    let per_second: Vec<f64> = by_second
        .iter()
        .filter(|lat| lat.len() >= min_reads)
        .map(|lat| quantile(lat, q))
        .collect();
    median(&per_second)
}

fn end_to_end(
    report: &mut Report,
    setup_s: &[f64],
    build: &buildpath::Phase,
    writes: &servepath::Writes,
    reads: &servepath::Reads,
) {
    let spans = &build.plain;
    let series = |f: fn(&buildpath::Spans) -> f64| spans.iter().map(f).collect::<Vec<_>>();
    report.put("setup_s", median(setup_s), setup_s.len());
    report.put("peak_rss_mb", peak_rss_mb(), 1);
    report.put(
        "build_ms.p50",
        median(&series(|s| s.build_ms())),
        spans.len(),
    );
    report.put(
        "search_a_ms.p50",
        median(&series(|s| s.search_a_ms())),
        spans.len(),
    );
    report.put(
        "search_b_ms.p50",
        median(&series(|s| s.pbks_b)),
        spans.len(),
    );
    let n = writes.write_ms.len();
    report.put("write_ms.p50", median(&writes.write_ms), n);
    report.put(
        "ingest_edges_per_s",
        writes.applied_updates as f64 / writes.wall.as_secs_f64(),
        n,
    );
    report.put(
        "read_us.core.p50",
        windowed(&reads.core_us_by_second, 0.5),
        reads.read_us[0].len(),
    );
    report.put_ungated(
        "read_us.p90",
        windowed(&reads.read_us_by_second, 0.9),
        "us",
        reads.count(),
    );
    report.put_ungated("write_ms.p95", quantile(&writes.write_ms, 0.95), "ms", n);
    let all_reads: Vec<f64> = reads.read_us.concat();
    report.put_ungated("read_us.p50", median(&all_reads), "us", all_reads.len());
    report.put_ungated(
        "read_us.p99",
        windowed(&reads.read_us_by_second, 0.99),
        "us",
        all_reads.len(),
    );
}

/// `(traced − plain) ÷ plain` of two medians.
fn overhead(traced: &[f64], plain: &[f64]) -> f64 {
    (median(traced) - median(plain)) / median(plain)
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    report: &mut Report,
    build: &buildpath::Phase,
    seq_build_ms: &[f64],
    writes: &servepath::Writes,
    reads: &servepath::Reads,
    serve: &RunMetrics,
    cache_hit_frac: f64,
    mirror: &servepath::Mirror,
) {
    let traced = &build.traced;
    let iters = traced.len();
    let per_iter = |total: u64| total as f64 / iters.max(1) as f64;
    let span = |f: fn(&buildpath::Spans) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let plain_build: Vec<f64> = build.plain.iter().map(|s| s.build_ms()).collect();
    let traced_build: Vec<f64> = traced.iter().map(|s| s.build_ms()).collect();
    let c = build.counters;
    report.put("graph.load_ms", span(|s| s.load), iters);
    report.put("decomp.pkc_ms", span(|s| s.pkc), iters);
    report.put("decomp.pkc_waves", per_iter(c.pkc_waves), iters);
    report.put("core.rank_ms", span(|s| s.rank), iters);
    report.put("core.phcd_ms", span(|s| s.phcd), iters);
    report.put("unionfind.find_hops", per_iter(c.find_hops), iters);
    report.put("unionfind.cas_retries", per_iter(c.cas_retries), iters);
    report.put("search.preprocess_ms", span(|s| s.preprocess), iters);
    report.put("search.pbks_a_ms", span(|s| s.pbks_a), iters);
    report.put("search.pbks_b_ms", span(|s| s.pbks_b), iters);
    report.put("search.triangle_probes", per_iter(c.triangle_probes), iters);
    report.put("par.seq_build_ms", median(seq_build_ms), seq_build_ms.len());
    report.put(
        "par.speedup",
        median(seq_build_ms) / median(&plain_build),
        plain_build.len(),
    );
    report.put("par.dispatch_ms", per_iter(c.dispatch_ns) / 1e6, iters);
    report.put("par.region_calls", per_iter(c.region_calls), iters);

    let batches = mirror.apply_ms.len();
    let ratio = |num: u64, den: u64| num as f64 / den.max(1) as f64;
    report.put("dynamic.apply_ms", median(&mirror.apply_ms), batches);
    report.put(
        "dynamic.affected_frac",
        ratio(mirror.affected, mirror.n_sum),
        batches,
    );
    report.put(
        "dynamic.traversal_per_m",
        ratio(mirror.traversal, mirror.m_sum),
        batches,
    );
    report.put(
        "dynamic.changed_per_affected",
        ratio(mirror.changed, mirror.affected),
        batches,
    );
    report.put("dynamic.to_csr_ms", median(&mirror.to_csr_ms), batches);
    report.put(
        "dynamic.decomposition_ms",
        median(&mirror.decomposition_ms),
        batches,
    );
    report.put("core.repair_ms", median(&mirror.repair_ms), batches);
    report.put("core.rebuild_ms", median(&mirror.rebuild_ms), batches);

    let hist = |name: &str| serve.get_histogram(name);
    let hist_q = |name: &str, q: f64| hist(name).map_or(f64::NAN, |h| hist_quantile_ns(h, q));
    let count = |name: &str| hist(name).map_or(0, |h| h.count as usize);
    let traced_batches = count("serve.apply");
    report.put(
        "serve.wal_append_us",
        hist_q("serve.wal.append", 0.5) / 1e3,
        count("serve.wal.append"),
    );
    report.put(
        "serve.wal_fsync_us",
        hist_q("serve.wal.fsync", 0.5) / 1e3,
        count("serve.wal.fsync"),
    );
    report.put(
        "serve.ckpt_write_ms",
        hist_q("serve.ckpt.write", 0.5) / 1e6,
        count("serve.ckpt.write"),
    );
    report.put(
        "serve.publish_us",
        hist_q("serve.publish", 0.99) / 1e3,
        count("serve.publish"),
    );
    // Per batch: the mean of serve.apply minus what the library's own
    // timers inside it cover, all taken from the same live batches: WAL
    // append with its fsync, the rebuild region (to_csr, decomposition,
    // repair), publish, checkpoint, and the dynamic maintenance regions.
    // The timers do not overlap, so the rest is never negative; it is
    // batch maintenance outside its regions plus the service's own glue.
    // Mirror spans would not do: they time another run of the batches.
    let hist_ns = |name: &str| hist(name).map_or(0, |h| h.sum_ns);
    let region_ns = |name: &str| {
        serve
            .regions
            .iter()
            .find(|r| r.name == name)
            .map_or(0, |r| r.wall_ns)
    };
    let timed_ns = hist_ns("serve.wal.append")
        + hist_ns("serve.publish")
        + hist_ns("serve.ckpt.write")
        + region_ns("serve.rebuild")
        + region_ns("dynamic.peel")
        + region_ns("dynamic.promote");
    let stages = timed_ns as f64 / traced_batches.max(1) as f64 / 1e6;
    report.put(
        "serve.unattributed_ms",
        hist_mean_ns(hist("serve.apply")) / 1e6 - stages,
        traced_batches,
    );
    report.put("serve.cache_hit_frac", cache_hit_frac, reads.count());
    let names = [
        "serve.query_us.core",
        "serve.query_us.position",
        "serve.query_us.member",
        "serve.query_us.same",
    ];
    for (name, spans) in names.into_iter().zip(&reads.span_us) {
        report.put(name, median(spans), spans.len());
    }
    let write_ms = |traced: bool| {
        let rows = writes.write_ms.iter().zip(&writes.traced);
        rows.filter(|&(_, &t)| t == traced)
            .map(|(&ms, _)| ms)
            .collect::<Vec<_>>()
    };
    // The checkpoint tail (one batch in 8), over the untraced batches.
    let plain_writes = write_ms(false);
    report.put(
        "write_ms.p95",
        quantile(&plain_writes, 0.95),
        plain_writes.len(),
    );
    report.put(
        "read_us.p90",
        windowed(&reads.read_us_by_second, 0.9),
        reads.count(),
    );
    report.put(
        "read_us.p99",
        windowed(&reads.read_us_by_second, 0.99),
        reads.count(),
    );
    report.put(
        "bench.gen_late_us.p99",
        quantile(&reads.late_us, 0.99),
        reads.late_us.len(),
    );
    report.put(
        "bench.trace_overhead_frac.build",
        overhead(&traced_build, &plain_build),
        iters + plain_build.len(),
    );
    report.put(
        "bench.trace_overhead_frac.write",
        overhead(&write_ms(true), &write_ms(false)),
        writes.write_ms.len(),
    );
}

/// Runs every workload as its own process (so each reports its own peak
/// memory), forwarding their output; fails if any of them failed.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = 0;
    for w in &WORKLOADS {
        println!("workload {}", w.name);
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.doctor {
            cmd.arg("--doctor-fingerprint");
        }
        if !cmd.status().is_ok_and(|s| s.success()) {
            failed += 1;
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{}}}}",
        failed == 0,
        WORKLOADS.len()
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv = std::env::args().skip(1);
    let args = match parse_args(argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("{}", machine_line());
    if args.workload == "all" {
        return run_all(&args);
    }
    let w = inputs::workload(&args.workload).expect("validated by parse_args");
    println!(
        "workload {} seed={} seconds={} trace={}: {}",
        w.name, args.seed, args.seconds, args.trace as u8, w.why
    );
    let report = run(&w, &args);
    report.print();
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inputs::GraphSpec;

    fn tiny(name: &'static str, trace: bool, doctor: bool) -> (Workload, Args) {
        let w = Workload {
            name,
            build_graph: GraphSpec::Rmat {
                scale: 9,
                edge_factor: 6,
            },
            serve_graph: GraphSpec::Ba { n: 400, m: 3 },
            build_share: 0.3,
            // Traced runs cover the sequential build, untraced the pool.
            parallel_build: !trace,
            why: "tiny",
        };
        let args = Args {
            workload: name.into(),
            seed: 5,
            seconds: 2.0,
            trace,
            doctor,
        };
        (w, args)
    }

    #[test]
    fn tiny_runs_pass_their_checks_and_report_every_metric() {
        for (name, trace) in [("tiny", false), ("tiny-traced", true)] {
            let (w, args) = tiny(name, trace, false);
            let report = run(&w, &args);
            assert!(report.correct(), "{name}: {:?}", report.errors);
            assert!(report.attempted > 0);
            let got: Vec<&str> = report.values.iter().map(|v| v.name).collect();
            let want: Vec<&str> = if trace {
                catalogue::PER_LAYER.iter().map(|m| m.name).collect()
            } else {
                catalogue::END_TO_END.iter().map(|m| m.name).collect()
            };
            assert_eq!(got, want);
        }
    }

    #[test]
    fn a_doctored_fingerprint_fails_the_run() {
        let (w, args) = tiny("tiny-doctored", false, true);
        let report = run(&w, &args);
        assert!(!report.correct());
        assert!(report.errors.iter().any(|e| e.contains("fingerprint")));
    }
}
