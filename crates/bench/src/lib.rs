//! Shared harness for the table/figure benchmark targets.
//!
//! Every `benches/*.rs` target regenerates one table or figure of the
//! paper. Configuration comes from the environment:
//!
//! * `HCD_BENCH_SCALE` — `tiny` | `small` (default) | `full`: stand-in
//!   dataset sizes.
//! * `HCD_BENCH_MODE` — `sim` (default) | `assist`: how parallel
//!   runtimes are obtained. `sim` uses the work-span simulation of
//!   `hcd-par` (required on single-core machines, see DESIGN.md
//!   substitution 1); `assist` measures wall time on real threads of
//!   the work-assisting pool.
//! * `HCD_BENCH_DATASETS` — comma-separated abbreviations to restrict
//!   the dataset list.
//! * `HCD_BENCH_REPS` — repetitions per measurement (default 1; the
//!   minimum is reported).
//! * `HCD_BENCH_METRICS` — base path for per-region observability
//!   snapshots: executors from [`executor`] run with region metering
//!   enabled, and targets call [`dump_metrics`] to write
//!   `<base>.<label>.json` (schema `hcd-metrics-v1`) per measurement.
//! * `HCD_BENCH_TRACE` — base path for per-thread span timelines:
//!   executors from [`executor`] run with tracing armed, and targets
//!   call [`dump_trace`] to write `<base>.<label>.json` (schema
//!   `hcd-trace-v1`, Chrome trace-event JSON) per measurement.

use std::time::{Duration, Instant};

use hcd_datasets::{Dataset, Scale, DATASETS};
use hcd_par::{Executor, RunMetrics, Trace};

/// The thread counts swept in the paper's figures.
pub const THREAD_SWEEP: [usize; 5] = [1, 5, 10, 20, 40];

/// The six datasets the paper plots in its figures.
pub const FIGURE_DATASETS: [&str; 6] = ["LJ", "H", "O", "FS", "SK", "UK"];

/// How parallel runtimes are measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchMode {
    /// Work-span simulation (single-core friendly).
    Sim,
    /// Real wall time on the work-assisting self-scheduling pool.
    Assist,
}

impl BenchMode {
    /// Reads `HCD_BENCH_MODE`.
    pub fn from_env() -> BenchMode {
        match std::env::var("HCD_BENCH_MODE").as_deref() {
            Ok("assist") => BenchMode::Assist,
            _ => BenchMode::Sim,
        }
    }
}

/// Repetitions per measurement (minimum is reported).
pub fn reps() -> usize {
    std::env::var("HCD_BENCH_REPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&r| r >= 1)
        .unwrap_or(1)
}

/// An executor for `p` logical threads under the ambient bench mode.
/// `p == 1` always runs truly sequentially. With `HCD_BENCH_METRICS`
/// set, the executor records per-region metrics (see [`dump_metrics`]).
pub fn executor(p: usize) -> Executor {
    let exec = if p == 1 {
        Executor::sequential()
    } else {
        match BenchMode::from_env() {
            BenchMode::Sim => Executor::simulated(p),
            BenchMode::Assist => Executor::assist(p),
        }
    };
    if metrics_base().is_some() {
        exec.set_metrics_enabled(true);
    }
    if trace_base().is_some() {
        exec.arm_trace();
    }
    exec
}

/// The `HCD_BENCH_METRICS` base path, if observability is requested.
pub fn metrics_base() -> Option<String> {
    std::env::var("HCD_BENCH_METRICS")
        .ok()
        .filter(|s| !s.is_empty())
}

/// The `HCD_BENCH_TRACE` base path, if span timelines are requested.
pub fn trace_base() -> Option<String> {
    std::env::var("HCD_BENCH_TRACE")
        .ok()
        .filter(|s| !s.is_empty())
}

/// Sanitizes a measurement label into a filename fragment.
fn safe_label(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Drains the executor's accumulated region metrics and, when
/// `HCD_BENCH_METRICS` is set, writes them to `<base>.<label>.json`
/// (label sanitized to `[A-Za-z0-9._-]`). Always returns the snapshot,
/// so targets can also inspect imbalance ratios programmatically.
pub fn dump_metrics(exec: &Executor, label: &str) -> RunMetrics {
    let m = exec.take_metrics();
    if let Some(base) = metrics_base() {
        let path = format!("{base}.{}.json", safe_label(label));
        if let Err(e) = std::fs::write(&path, m.to_json()) {
            eprintln!("warning: cannot write metrics to {path}: {e}");
        }
    }
    m
}

/// Drains the executor's trace buffers and, when `HCD_BENCH_TRACE` is
/// set, writes the Chrome trace-event JSON to `<base>.<label>.json`
/// (label sanitized as in [`dump_metrics`]). Taking a trace disarms the
/// session, so when the env var is set the executor is re-armed for the
/// next measurement — mirroring how metering stays enabled across
/// [`dump_metrics`] calls. Always returns the trace, so targets can
/// also inspect the event stream programmatically.
pub fn dump_trace(exec: &Executor, label: &str) -> Trace {
    let t = exec.take_trace();
    if let Some(base) = trace_base() {
        let path = format!("{base}.{}.json", safe_label(label));
        if let Err(e) = std::fs::write(&path, t.to_chrome_json()) {
            eprintln!("warning: cannot write trace to {path}: {e}");
        }
        exec.arm_trace();
    }
    t
}

/// Runs `f(exec)` and returns its (simulated or wall) duration plus the
/// result. In simulation mode, parallel regions are re-priced at their
/// critical path; in real/sequential mode this is plain wall time.
pub fn time_once<T>(exec: &Executor, f: impl FnOnce(&Executor) -> T) -> (T, Duration) {
    exec.take_sim_stats(); // reset
    let t0 = Instant::now();
    let out = f(exec);
    let wall = t0.elapsed();
    let dur = if exec.is_simulated() {
        exec.take_sim_stats().simulated_time(wall)
    } else {
        wall
    };
    (out, dur)
}

/// Best-of-`reps()` timing.
pub fn time_best<T>(exec: &Executor, mut f: impl FnMut(&Executor) -> T) -> (T, Duration) {
    let (mut out, mut best) = time_once(exec, &mut f);
    for _ in 1..reps() {
        let (o, d) = time_once(exec, &mut f);
        if d < best {
            best = d;
            out = o;
        }
    }
    (out, best)
}

/// The dataset list honoring `HCD_BENCH_DATASETS`, restricted to
/// `wanted` when that is non-empty.
pub fn datasets(wanted: &[&str]) -> Vec<&'static Dataset> {
    let filter = std::env::var("HCD_BENCH_DATASETS").ok();
    DATASETS
        .iter()
        .filter(|d| {
            let in_wanted = wanted.is_empty() || wanted.contains(&d.abbrev);
            let in_env = filter
                .as_deref()
                .map_or(true, |f| f.split(',').any(|a| a.trim() == d.abbrev));
            in_wanted && in_env
        })
        .collect()
}

/// The ambient scale.
pub fn scale() -> Scale {
    Scale::from_env()
}

/// Prints the standard header every target emits.
pub fn banner(what: &str) {
    println!("==========================================================");
    println!("{what}");
    println!(
        "scale={:?} mode={:?} reps={}",
        scale(),
        BenchMode::from_env(),
        reps()
    );
    println!("==========================================================");
}

/// Formats a duration in seconds with three significant decimals.
pub fn secs(d: Duration) -> String {
    format!("{:.4}", d.as_secs_f64())
}

/// A speedup ratio `base / other`, guarded against zero.
pub fn ratio(base: Duration, other: Duration) -> f64 {
    let o = other.as_secs_f64();
    if o <= 0.0 {
        f64::NAN
    } else {
        base.as_secs_f64() / o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn executor_p1_is_sequential() {
        assert_eq!(executor(1).mode_name(), "seq");
    }

    #[test]
    fn time_once_sim_reprices() {
        let exec = Executor::simulated(4);
        let (sum, d) = time_once(&exec, |e| {
            let acc = std::sync::atomic::AtomicU64::new(0);
            e.region("test")
                .try_for_each_index(10_000, |i| {
                    acc.fetch_add(i as u64, std::sync::atomic::Ordering::Relaxed);
                    Ok(())
                })
                .unwrap();
            acc.into_inner()
        });
        assert_eq!(sum, 10_000u64 * 9_999 / 2);
        assert!(d > Duration::ZERO);
    }

    #[test]
    fn dataset_filter() {
        let all = datasets(&[]);
        assert_eq!(all.len(), 10);
        let figs = datasets(&FIGURE_DATASETS);
        assert_eq!(figs.len(), 6);
    }

    #[test]
    fn dump_metrics_returns_snapshot_without_env() {
        let exec = Executor::sequential().with_metrics();
        exec.region("bench.test")
            .try_for_each_chunk(
                8,
                || (),
                |_, _, range| {
                    std::hint::black_box(range.len());
                    Ok(())
                },
            )
            .unwrap();
        let m = dump_metrics(&exec, "unit");
        assert!(m.get("bench.test").is_some());
        // Drained: a second dump is empty.
        assert!(dump_metrics(&exec, "unit").is_empty());
    }

    #[test]
    fn dump_trace_returns_events_without_env() {
        let exec = Executor::sequential().with_trace();
        exec.region("bench.trace")
            .try_for_each_chunk(
                8,
                || (),
                |_, _, range| {
                    std::hint::black_box(range.len());
                    Ok(())
                },
            )
            .unwrap();
        let t = dump_trace(&exec, "unit");
        assert!(
            t.events
                .iter()
                .any(|e| e.kind == hcd_par::EventKind::RegionEnter),
            "span events recorded"
        );
        // Drained and (without HCD_BENCH_TRACE) left disarmed.
        assert!(dump_trace(&exec, "unit").events.is_empty());
        assert!(!exec.trace_armed());
    }

    #[test]
    fn ratio_guards_zero() {
        assert!(ratio(Duration::from_secs(1), Duration::ZERO).is_nan());
        assert_eq!(ratio(Duration::from_secs(2), Duration::from_secs(1)), 2.0);
    }
}
