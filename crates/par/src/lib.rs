//! Parallel execution substrate.
//!
//! The paper evaluates its algorithms with OpenMP static loops on a
//! 40-core machine. This crate reproduces that execution model in Rust
//! with a single abstraction, [`Executor`], offering three modes:
//!
//! * **Sequential** — everything runs inline on the calling thread; the
//!   determinism oracle every other mode is checked against.
//! * **Simulated** — each region is split into `p` chunks and
//!   executed serially, timing every chunk; the simulated parallel
//!   runtime charges `max(chunk times)` per region plus all time spent
//!   outside regions. This is the standard self-relative simulated-speedup
//!   methodology, used here because the reproduction environment has a
//!   single core (see DESIGN.md, substitution 1). It preserves the two
//!   effects that shape the paper's speedup curves — serial sections
//!   (Amdahl) and load imbalance across chunks — while not modeling memory
//!   or atomic contention.
//! * **Assist** — the real-thread mode, for multicore machines and for
//!   concurrency testing: work-assisting self-scheduling (see
//!   [`Executor::assist`]) on a persistent pool. The region publishes its
//!   loop descriptor (region id, atomic next-chunk cursor, chunk table)
//!   into a shared fixed-size assist array; every worker claims chunks
//!   from the cursor, and idle pool workers join the busiest live loop
//!   instead of parking. Chunk *tables* are unchanged, but chunk stats
//!   record per-worker participation spans, so the recorded imbalance
//!   ratio reflects scheduler-achieved per-worker balance.
//!
//! All modes use identical chunk boundaries, so an algorithm's
//! behaviour (including any tie-breaking that depends on the work
//! partition) is mode-independent.
//!
//! # Observability
//!
//! Every region is opened through [`Executor::region`], which gives it a
//! static name:
//!
//! ```
//! # use hcd_par::Executor;
//! let exec = Executor::sequential().with_metrics();
//! exec.region("demo.sum").try_for_each_index(100, |_| Ok(()))?;
//! let metrics = exec.take_metrics();
//! assert_eq!(metrics.regions[0].name, "demo.sum");
//! # Ok::<(), hcd_par::ParError>(())
//! ```
//!
//! With metrics enabled, each region execution records wall time,
//! per-chunk durations (min/max/sum → a load-imbalance ratio), chunk
//! counts, checkpoint polls, and failure/fault events into a
//! [`RunMetrics`] snapshot ([`Executor::take_metrics`]); see the
//! [`metrics`] module. With histograms armed, each region execution is
//! also one wall-time sample of the histogram named after the region.
//! Disabled (the default), the cost is one relaxed atomic load per
//! arming flag per region.
//!
//! # Failure model
//!
//! Every [`Region`] entry point is fallible (`try_for_each_chunk`,
//! `try_for_each_index`, `try_map_chunks`, and the weighted variants):
//! chunk bodies return `Result<_, ParError>` and run under
//! `catch_unwind`, and so does every algorithm built on them, down to
//! its one `try_*` entry point.
//!
//! * a **panic** in any chunk is caught at the chunk boundary and
//!   surfaces as [`ParError::Panicked`] — the pool survives and the
//!   executor stays usable;
//! * a [`CancelToken`] or [`Deadline`] installed on the executor is
//!   checked before every chunk (and inside long chunk bodies at coarse
//!   strides via [`Executor::checkpoint`]), aborting the region with
//!   [`ParError::Cancelled`] / [`ParError::DeadlineExceeded`];
//! * a [`FaultPlan`] deterministically injects panics, delays, or
//!   cancellations at chosen `(region, chunk)` sites, for testing that
//!   algorithms either complete correctly or fail cleanly.
//!
//! The first failure wins; remaining chunks of the region are skipped as
//! soon as they observe it (chunks already running finish normally —
//! cancellation is cooperative). No entry point turns a `ParError` back
//! into a panic: a caller that wants one writes `.unwrap()` or
//! `.expect(..)` itself.

use std::collections::HashMap;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

mod assist;
pub mod chunks;
pub mod diff;
pub mod epoch;
pub mod error;
pub mod fault;
pub mod hist;
pub mod intern;
pub mod metrics;
pub mod trace;

pub use chunks::{split_even, split_weighted};
pub use diff::{diff_metrics, DiffEntry, DiffOptions, DiffReport, Snapshot, SnapshotHistogram};
pub use epoch::EpochCell;
pub use error::{BuildError, ParError};
pub use fault::{CancelToken, CrashPoint, Deadline, Fault, FaultPlan};
pub use hist::{HistogramSnapshot, LatencyTimer};
pub use intern::intern;
pub use metrics::{CounterValue, RegionMetrics, RunMetrics, METRICS_SCHEMA};
pub use trace::{EventKind, Trace, TraceEvent, DEFAULT_EVENT_CAPACITY, TRACE_SCHEMA};

use metrics::{nanos, ChunkStats, Registry};
use trace::TraceCtl;

/// Suggested number of innermost-loop iterations between
/// [`Executor::checkpoint`] calls inside long chunk bodies. Coarse enough
/// to be free, fine enough that cancellation/deadlines take effect within
/// one stride.
pub const CHECKPOINT_STRIDE: usize = 2048;

/// Accumulated accounting of a simulated run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SimStats {
    /// Sum over regions of the maximum chunk time (the simulated cost of
    /// the parallel regions).
    pub charged: Duration,
    /// Sum over regions of all chunk times (what the regions actually
    /// cost on the measuring wall clock, since chunks run serially).
    pub measured: Duration,
    /// Number of parallel regions executed.
    pub regions: usize,
}

impl SimStats {
    /// Converts a measured wall time of the whole algorithm into the
    /// simulated parallel time: serial sections are kept at face value,
    /// parallel regions are re-priced at their critical path.
    pub fn simulated_time(&self, wall: Duration) -> Duration {
        wall.saturating_sub(self.measured) + self.charged
    }
}

enum Mode {
    Sequential,
    Simulated {
        workers: usize,
        stats: Mutex<SimStats>,
    },
    Assist {
        pool: assist::AssistPool,
        workers: usize,
    },
}

/// Cancellation, deadline, and fault-injection state shared by all
/// regions of an executor. Interior-mutable so a long-lived executor can
/// be re-armed between runs.
#[derive(Default)]
struct Ctrl {
    cancel: Mutex<Option<CancelToken>>,
    deadline: Mutex<Option<Deadline>>,
    plan: Mutex<Option<FaultPlan>>,
    /// Regions executed since the fault plan was installed; numbers the
    /// injection sites.
    region: AtomicUsize,
    /// Per-point poll counts since the fault plan was installed; numbers
    /// the crash-point occurrences the same way `region` numbers chunk
    /// sites.
    crash_polls: Mutex<HashMap<CrashPoint, usize>>,
    /// Simulated crashes that actually fired since the plan was
    /// installed (harnesses use this to tell "crash happened" from
    /// "write failed for a real reason").
    crashes_fired: AtomicU64,
}

/// A static-chunked parallel-for executor (see crate docs).
pub struct Executor {
    mode: Mode,
    ctrl: Ctrl,
    metrics: Registry,
    trace: TraceCtl,
}

impl Executor {
    /// Inline sequential execution (one chunk per region).
    pub fn sequential() -> Self {
        Executor {
            mode: Mode::Sequential,
            ctrl: Ctrl::default(),
            metrics: Registry::default(),
            trace: TraceCtl::default(),
        }
    }

    /// Deterministic work-span simulation of `workers` threads.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`. Use [`Executor::try_simulated`] for a
    /// fallible version.
    pub fn simulated(workers: usize) -> Self {
        match Self::try_simulated(workers) {
            Ok(exec) => exec,
            Err(e) => panic!("worker count must be positive: {e}"),
        }
    }

    /// Fallible version of [`Executor::simulated`].
    pub fn try_simulated(workers: usize) -> Result<Self, BuildError> {
        if workers == 0 {
            return Err(BuildError::ZeroWorkers);
        }
        Ok(Executor {
            mode: Mode::Simulated {
                workers,
                stats: Mutex::new(SimStats::default()),
            },
            ctrl: Ctrl::default(),
            metrics: Registry::default(),
            trace: TraceCtl::default(),
        })
    }

    /// Work-assisting self-scheduling execution with `workers` logical
    /// workers on a dedicated pool (see the crate docs and the assist
    /// module): chunk tables stay identical to the other modes, but
    /// chunks are claimed dynamically through a published loop
    /// descriptor and idle workers join the busiest live loop.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0` or the pool threads cannot be spawned.
    /// Use [`Executor::try_assist`] for a fallible version.
    pub fn assist(workers: usize) -> Self {
        match Self::try_assist(workers) {
            Ok(exec) => exec,
            Err(BuildError::ZeroWorkers) => panic!("worker count must be positive"),
            Err(e @ BuildError::Pool(_)) => panic!("{e}"),
        }
    }

    /// Fallible version of [`Executor::assist`].
    pub fn try_assist(workers: usize) -> Result<Self, BuildError> {
        let pool = assist::AssistPool::new(workers)?;
        Ok(Executor {
            mode: Mode::Assist { pool, workers },
            ctrl: Ctrl::default(),
            metrics: Registry::default(),
            trace: TraceCtl::default(),
        })
    }

    /// The number of logical workers `p`.
    pub fn num_workers(&self) -> usize {
        match &self.mode {
            Mode::Sequential => 1,
            Mode::Simulated { workers, .. } => *workers,
            Mode::Assist { workers, .. } => *workers,
        }
    }

    /// Whether this executor is in simulation mode.
    pub fn is_simulated(&self) -> bool {
        matches!(self.mode, Mode::Simulated { .. })
    }

    /// Human-readable mode name for harness output.
    pub fn mode_name(&self) -> &'static str {
        match self.mode {
            Mode::Sequential => "seq",
            Mode::Simulated { .. } => "sim",
            Mode::Assist { .. } => "assist",
        }
    }

    /// Returns and resets the simulation accounting. Zeroed stats are
    /// returned for non-simulated modes.
    pub fn take_sim_stats(&self) -> SimStats {
        match &self.mode {
            Mode::Simulated { stats, .. } => std::mem::take(&mut *stats.lock()),
            _ => SimStats::default(),
        }
    }

    // --- observability -----------------------------------------------

    /// A named handle for opening parallel regions: all region entry
    /// points exist on the returned [`Region`] and record their metrics
    /// under `name` when metrics are enabled. Names are dotted
    /// `component.step` identifiers (`"phcd.union"`,
    /// `"pbks.triangles"`) restricted to `[a-z0-9._-]` by convention.
    pub fn region(&self, name: &'static str) -> Region<'_> {
        Region { exec: self, name }
    }

    /// Enables metrics recording (builder form).
    pub fn with_metrics(self) -> Self {
        self.set_metrics_enabled(true);
        self
    }

    /// Enables or disables metrics recording on a live executor.
    /// Disabled recording costs one relaxed atomic load per region.
    pub fn set_metrics_enabled(&self, on: bool) {
        self.metrics.set_metrics_enabled(on);
    }

    /// Whether metrics recording is enabled.
    pub fn metrics_enabled(&self) -> bool {
        self.metrics.metrics_enabled()
    }

    /// Returns and resets the recorded region metrics, counters and
    /// histograms. Empty unless metrics were enabled or histograms
    /// armed, and something was recorded. The arming flags themselves
    /// are untouched, so a long-lived executor keeps recording.
    pub fn take_metrics(&self) -> RunMetrics {
        self.metrics.take()
    }

    /// Arms latency-histogram recording: [`Executor::observe_ns`] and
    /// [`Executor::time`] start recording into named log2-bucketed
    /// histograms (see the [`hist`] module), and every region execution
    /// records its wall time into the histogram named after the region.
    /// [`Executor::take_metrics`] drains them into
    /// [`RunMetrics::histograms`]. Disarmed (the default), each observe
    /// costs one relaxed atomic load and [`Executor::time`] never reads
    /// the clock. Histogram arming is independent of
    /// [`Executor::set_metrics_enabled`] so overhead can be measured in
    /// isolation.
    pub fn arm_histograms(&self) {
        self.set_histograms_armed(true);
    }

    /// Builder form of [`Executor::arm_histograms`].
    pub fn with_histograms(self) -> Self {
        self.arm_histograms();
        self
    }

    /// Enables or disables histogram recording on a live executor.
    pub fn set_histograms_armed(&self, on: bool) {
        self.metrics.set_histograms_armed(on);
    }

    /// Whether latency histograms are armed.
    pub fn histograms_armed(&self) -> bool {
        self.metrics.histograms_armed()
    }

    /// Records one nanosecond latency sample into the histogram named
    /// `name` (no-op when disarmed).
    #[inline]
    pub fn observe_ns(&self, name: &'static str, ns: u64) {
        self.metrics.observe(name, ns);
    }

    /// Records a [`Duration`] latency sample (no-op when disarmed).
    #[inline]
    pub fn observe(&self, name: &'static str, elapsed: Duration) {
        self.metrics.observe(name, nanos(elapsed));
    }

    /// Starts a drop-to-record latency timer for `name`: the span from
    /// this call to the drop of the returned guard is recorded into the
    /// named histogram. When disarmed, no clock is read and drop is
    /// free.
    #[inline]
    pub fn time(&self, name: &'static str) -> LatencyTimer<'_> {
        LatencyTimer::start(&self.metrics, name)
    }

    /// Copies the live histograms without resetting them — the
    /// in-flight view used by `serve-bench --stats-interval`. Empty
    /// when disarmed or nothing was recorded.
    pub fn histogram_snapshots(&self) -> Vec<HistogramSnapshot> {
        self.metrics.snapshot()
    }

    /// Arms timeline tracing with the default per-thread event capacity
    /// ([`DEFAULT_EVENT_CAPACITY`]); see the [`trace`] module. Until
    /// [`Executor::take_trace`] is called, every region records span
    /// events (region enter/exit, chunk begin/end, checkpoint polls,
    /// injected faults) and [`Executor::gauge`] samples into per-thread
    /// ring buffers. Disarmed (the default), the cost is one relaxed
    /// atomic load per region and nothing per chunk.
    pub fn arm_trace(&self) {
        self.trace.arm(DEFAULT_EVENT_CAPACITY);
    }

    /// Arms timeline tracing with an explicit per-thread event capacity
    /// (rounded up to at least 16). When a thread records more events
    /// than this, the oldest are overwritten and counted in
    /// [`Trace::dropped`].
    pub fn arm_trace_with_capacity(&self, events_per_thread: usize) {
        self.trace.arm(events_per_thread);
    }

    /// Builder form of [`Executor::arm_trace`].
    pub fn with_trace(self) -> Self {
        self.arm_trace();
        self
    }

    /// Whether a trace session is currently armed.
    pub fn trace_armed(&self) -> bool {
        self.trace.armed()
    }

    /// Disarms tracing and returns the collected timeline (empty if
    /// tracing was never armed). Call only at quiescence — after all
    /// regions have returned.
    pub fn take_trace(&self) -> Trace {
        self.trace.take()
    }

    /// Adds `delta` to the named monotone counter (e.g. union-find CAS
    /// retries). Recorded into [`RunMetrics::counters`] when metrics are
    /// enabled; free (one relaxed load) otherwise. Thread-safe, but
    /// intended to be called from region drivers / algorithm code that
    /// flushes thread-local tallies, not per element.
    pub fn add_counter(&self, name: &'static str, delta: u64) {
        if self.metrics.metrics_enabled() && delta > 0 {
            self.metrics.update_counter(name, delta, "sum");
        }
    }

    /// Records a point sample of the named gauge (e.g. the peeling
    /// frontier size of the current wave). The metrics snapshot keeps the
    /// high-water mark; an armed trace additionally records every sample
    /// as a counter-track point, so the timeline shows the full curve.
    pub fn gauge(&self, name: &'static str, value: u64) {
        if self.metrics.metrics_enabled() {
            self.metrics.update_counter(name, value, "max");
        }
        if let Some(session) = self.trace.session() {
            session.record(EventKind::Counter, name, u32::MAX, value);
        }
    }

    // --- failure-model control plane ---------------------------------

    /// Installs (or replaces) the cancellation token on a live executor.
    pub fn set_cancel(&self, token: CancelToken) {
        *self.ctrl.cancel.lock() = Some(token);
    }

    /// Removes the cancellation token.
    pub fn clear_cancel(&self) {
        *self.ctrl.cancel.lock() = None;
    }

    /// Installs (or replaces) the deadline on a live executor.
    pub fn set_deadline(&self, deadline: Deadline) {
        *self.ctrl.deadline.lock() = Some(deadline);
    }

    /// Removes the deadline.
    pub fn clear_deadline(&self) {
        *self.ctrl.deadline.lock() = None;
    }

    /// Installs (or replaces) the fault plan and restarts region
    /// numbering, crash-point occurrence numbering, and the fired-crash
    /// count at zero, so plan sites address the next run.
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        *self.ctrl.plan.lock() = Some(plan);
        // Relaxed (both stores): plans are installed between runs, so no
        // region races the reset, and neither counter publishes other data.
        self.ctrl.region.store(0, Ordering::Relaxed);
        self.ctrl.crash_polls.lock().clear();
        self.ctrl.crashes_fired.store(0, Ordering::Relaxed);
    }

    /// Removes the fault plan (region numbering keeps advancing; install
    /// a new plan to reset it).
    pub fn clear_fault_plan(&self) {
        *self.ctrl.plan.lock() = None;
    }

    /// Polls a simulated process-crash site. IO code (WAL append,
    /// checkpoint publish) calls this at each crash-able boundary;
    /// `true` means the installed [`FaultPlan`] scheduled a crash at
    /// this occurrence of `point`, and the caller must abandon the
    /// operation mid-flight exactly as a killed process would (no
    /// cleanup, no rollback). Occurrences are numbered per point from
    /// the moment the plan is installed. Without a plan (or with a plan
    /// that schedules no crashes) this is a cheap no-op returning
    /// `false`.
    pub fn crash_point(&self, point: CrashPoint) -> bool {
        let plan = self.ctrl.plan.lock();
        let Some(plan) = plan.as_ref() else {
            return false;
        };
        if !plan.has_crashes() {
            return false;
        }
        let mut polls = self.ctrl.crash_polls.lock();
        let occurrence = polls.entry(point).or_insert(0);
        let fire = plan.crash_at(point, *occurrence);
        *occurrence += 1;
        if fire {
            // Relaxed: a standalone tally, bumped under the plan mutex.
            self.ctrl.crashes_fired.fetch_add(1, Ordering::Relaxed);
            self.add_counter("fault.crashes", 1);
        }
        fire
    }

    /// Number of simulated crashes that fired since the current fault
    /// plan was installed.
    pub fn crashes_fired(&self) -> u64 {
        // Relaxed: the harness reads the tally after the crashing call
        // returned on its own thread; it guards no other data.
        self.ctrl.crashes_fired.load(Ordering::Relaxed)
    }

    /// Cooperative cancellation point for long chunk bodies: checks the
    /// installed [`CancelToken`] and [`Deadline`]. Call every
    /// [`CHECKPOINT_STRIDE`] innermost iterations and propagate the error
    /// with `?`. Polls are counted against the running region when
    /// metrics are enabled.
    pub fn checkpoint(&self) -> Result<(), ParError> {
        self.metrics.note_checkpoint();
        if let Some(session) = self.trace.session() {
            session.record(EventKind::Checkpoint, "checkpoint", u32::MAX, 0);
        }
        if let Some(token) = self.ctrl.cancel.lock().as_ref() {
            if token.is_cancelled() {
                return Err(ParError::Cancelled);
            }
        }
        if let Some(deadline) = *self.ctrl.deadline.lock() {
            if deadline.expired() {
                return Err(ParError::DeadlineExceeded);
            }
        }
        Ok(())
    }

    /// Runs one region: checks cancellation/deadline before each chunk,
    /// applies any injected faults, contains panics, and records the
    /// first failure. Chunks observe a failure flag and skip once it is
    /// set; in assist mode, chunks already running complete normally.
    ///
    /// When metrics are enabled (or the mode is simulated, which always
    /// needs chunk clocks for `SimStats`), every chunk is timed; the same
    /// measurements feed both accountings, so `RunMetrics::chunk_max_ns`
    /// and `SimStats::charged` agree exactly. When histograms are armed,
    /// the region's wall time from the same `region_t0` clock is one
    /// sample of the histogram named after the region, whether the
    /// region succeeded or not.
    fn try_run_ranges<S, MkS, F>(
        &self,
        name: &'static str,
        ranges: Vec<Range<usize>>,
        make_scratch: MkS,
        body: F,
    ) -> Result<(), ParError>
    where
        S: Send,
        MkS: Fn() -> S + Sync,
        F: Fn(usize, &mut S, Range<usize>) -> Result<(), ParError> + Sync,
    {
        // Relaxed: the RMW alone makes region numbers unique; they only
        // address fault-plan sites.
        let region = self.ctrl.region.fetch_add(1, Ordering::Relaxed);
        // Snapshot the control plane once per region so chunk execution
        // never takes the ctrl locks.
        let cancel = self.ctrl.cancel.lock().clone();
        let deadline = *self.ctrl.deadline.lock();
        let plan = self.ctrl.plan.lock().clone();
        let metering = self.metrics.metrics_enabled();
        let sampling = self.metrics.histograms_armed();
        let timed = metering || self.is_simulated();
        let cstats = ChunkStats::new();
        let cp_mark = self.metrics.checkpoint_mark();
        // One relaxed load when disarmed; the Arc is cloned once per
        // region (never per chunk) when armed.
        let tracer = self.trace.session();
        if let Some(t) = &tracer {
            t.record(EventKind::RegionEnter, name, u32::MAX, 0);
        }
        let region_t0 = Instant::now();

        let first_err: Mutex<Option<ParError>> = Mutex::new(None);
        let tripped = AtomicBool::new(false);
        let record = |e: ParError| {
            let mut slot = first_err.lock();
            if slot.is_none() {
                *slot = Some(e);
            }
            // Release/Acquire: the flag is only a skip hint; the error
            // itself travels under the `first_err` mutex, read after the
            // region joins.
            tripped.store(true, Ordering::Release);
        };

        let run_chunk_inner = |w: usize, range: Range<usize>| {
            if tripped.load(Ordering::Acquire) {
                return;
            }
            if let Some(token) = &cancel {
                if token.is_cancelled() {
                    record(ParError::Cancelled);
                    return;
                }
            }
            if let Some(d) = &deadline {
                if d.expired() {
                    record(ParError::DeadlineExceeded);
                    return;
                }
            }
            let injected = plan.as_ref().and_then(|p| p.get(region, w));
            if injected.is_some() {
                if metering {
                    cstats.note_fault();
                }
                if let Some(t) = &tracer {
                    t.record(EventKind::Fault, name, w as u32, 0);
                }
            }
            match injected {
                Some(Fault::Delay(micros)) => std::thread::sleep(Duration::from_micros(micros)),
                Some(Fault::Cancel) => {
                    // As if an external caller cancelled mid-region: trip
                    // the shared token (so sibling regions see it too) and
                    // abort this one.
                    if let Some(token) = &cancel {
                        token.cancel();
                    }
                    record(ParError::Cancelled);
                    return;
                }
                _ => {}
            }
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                if injected == Some(Fault::Panic) {
                    panic!("injected fault: panic at region {region} chunk {w}");
                }
                let mut s = make_scratch();
                body(w, &mut s, range)
            }));
            match outcome {
                Ok(Ok(())) => {}
                Ok(Err(e)) => record(e),
                Err(payload) => record(ParError::Panicked {
                    worker: w,
                    payload: error::payload_to_string(&*payload),
                }),
            }
        };
        let run_chunk = |w: usize, range: Range<usize>| {
            if let Some(t) = &tracer {
                t.record(EventKind::ChunkBegin, name, w as u32, 0);
            }
            if timed {
                let t0 = Instant::now();
                run_chunk_inner(w, range);
                cstats.record(t0.elapsed());
            } else {
                run_chunk_inner(w, range);
            }
            if let Some(t) = &tracer {
                t.record(EventKind::ChunkEnd, name, w as u32, 0);
            }
        };

        match &self.mode {
            Mode::Sequential => {
                for (w, range) in ranges.into_iter().enumerate() {
                    if range.is_empty() {
                        continue;
                    }
                    run_chunk(w, range);
                }
            }
            Mode::Simulated { stats, .. } => {
                for (w, range) in ranges.into_iter().enumerate() {
                    if range.is_empty() {
                        continue;
                    }
                    run_chunk(w, range);
                }
                // The simulated critical path is re-priced from the same
                // chunk clocks the metrics see.
                let mut st = stats.lock();
                st.charged += cstats.max();
                st.measured += cstats.sum();
                st.regions += 1;
            }
            Mode::Assist { pool, .. } => {
                // Work assisting: publish the loop descriptor and
                // self-schedule chunks; the pool times per-worker
                // participation spans into `cstats` itself (see the
                // assist module docs), so the runner here carries only
                // the trace spans and the chunk body.
                let chunk_runner = |w: usize, range: Range<usize>| {
                    if let Some(t) = &tracer {
                        t.record(EventKind::ChunkBegin, name, w as u32, 0);
                    }
                    run_chunk_inner(w, range);
                    if let Some(t) = &tracer {
                        t.record(EventKind::ChunkEnd, name, w as u32, 0);
                    }
                };
                let outcome = pool.run(region, ranges, &chunk_runner, timed.then_some(&cstats));
                if metering {
                    self.add_counter("par.assist.steals", outcome.steals);
                    self.add_counter("par.assist.claim_cas_retries", outcome.cas_retries);
                }
                if outcome.max_assisting > 0 {
                    self.gauge("par.assist.assisting_threads", outcome.max_assisting as u64);
                }
            }
        }

        let result = first_err.into_inner();
        if let Some(t) = &tracer {
            t.record(
                EventKind::RegionExit,
                name,
                u32::MAX,
                u64::from(result.is_some()),
            );
        }
        if metering || sampling {
            let wall = region_t0.elapsed();
            if sampling {
                self.metrics.record_sample(name, nanos(wall));
            }
            if metering {
                let cp_delta = self.metrics.checkpoint_mark().saturating_sub(cp_mark);
                self.metrics.record_region(
                    name,
                    self.num_workers(),
                    wall,
                    &cstats,
                    cp_delta,
                    result.as_ref(),
                );
            }
        }
        match result {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// A named handle for opening parallel regions on an [`Executor`];
/// created with [`Executor::region`]. Carries the static region name
/// under which executions are recorded into [`RunMetrics`].
#[derive(Clone, Copy)]
pub struct Region<'a> {
    exec: &'a Executor,
    name: &'static str,
}

impl<'a> Region<'a> {
    /// The region's static name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The underlying executor (for [`Executor::checkpoint`] inside
    /// bodies).
    pub fn executor(&self) -> &'a Executor {
        self.exec
    }

    /// A parallel region over `0..n`, split into `p` even chunks, with a
    /// per-chunk scratch value.
    ///
    /// `body(worker, scratch, range)` is invoked once per non-empty chunk;
    /// `worker` is the chunk index in `0..p`. Chunk boundaries are
    /// identical in every mode. Panics are contained at chunk boundaries
    /// and the first failure aborts the region (see crate docs, failure
    /// model).
    pub fn try_for_each_chunk<S, MkS, F>(
        &self,
        n: usize,
        make_scratch: MkS,
        body: F,
    ) -> Result<(), ParError>
    where
        S: Send,
        MkS: Fn() -> S + Sync,
        F: Fn(usize, &mut S, Range<usize>) -> Result<(), ParError> + Sync,
    {
        let ranges = split_even(n, self.exec.num_workers());
        self.exec
            .try_run_ranges(self.name, ranges, make_scratch, body)
    }

    /// Like [`Region::try_for_each_chunk`], but chunk boundaries balance
    /// *weight* instead of count: `weight_prefix` is the prefix-sum array
    /// of per-item costs (length `n + 1`; it may be a window into a larger
    /// prefix array). Use this for skewed workloads — e.g. adjacency scans
    /// over power-law graphs, where equal-count chunks would leave one
    /// worker holding all the hubs.
    pub fn try_for_each_chunk_weighted<S, MkS, F>(
        &self,
        weight_prefix: &[u64],
        make_scratch: MkS,
        body: F,
    ) -> Result<(), ParError>
    where
        S: Send,
        MkS: Fn() -> S + Sync,
        F: Fn(usize, &mut S, Range<usize>) -> Result<(), ParError> + Sync,
    {
        let ranges = chunks::split_weighted(weight_prefix, self.exec.num_workers());
        self.exec
            .try_run_ranges(self.name, ranges, make_scratch, body)
    }

    /// A parallel region over `0..n` without scratch.
    pub fn try_for_each_index<F>(&self, n: usize, body: F) -> Result<(), ParError>
    where
        F: Fn(usize) -> Result<(), ParError> + Sync,
    {
        self.try_for_each_chunk(
            n,
            || (),
            |_, _, range| {
                for i in range {
                    body(i)?;
                }
                Ok(())
            },
        )
    }

    /// A parallel region producing one value per chunk, returned in chunk
    /// order (empty chunks yield no value, so the result has at most `p`
    /// elements). On failure the already-computed chunk values are
    /// dropped.
    pub fn try_map_chunks<T, F>(&self, n: usize, body: F) -> Result<Vec<T>, ParError>
    where
        T: Send,
        F: Fn(usize, Range<usize>) -> Result<T, ParError> + Sync,
    {
        let p = self.exec.num_workers();
        let slots: Vec<Mutex<Option<T>>> = (0..p).map(|_| Mutex::new(None)).collect();
        self.try_for_each_chunk(
            n,
            || (),
            |w, _, range| {
                *slots[w].lock() = Some(body(w, range)?);
                Ok(())
            },
        )?;
        Ok(slots.into_iter().filter_map(|s| s.into_inner()).collect())
    }

    /// Weighted analogue of [`Region::try_map_chunks`]; see
    /// [`Region::try_for_each_chunk_weighted`] for the prefix convention.
    pub fn try_map_chunks_weighted<T, F>(
        &self,
        weight_prefix: &[u64],
        body: F,
    ) -> Result<Vec<T>, ParError>
    where
        T: Send,
        F: Fn(usize, Range<usize>) -> Result<T, ParError> + Sync,
    {
        let p = self.exec.num_workers();
        let slots: Vec<Mutex<Option<T>>> = (0..p).map(|_| Mutex::new(None)).collect();
        self.try_for_each_chunk_weighted(
            weight_prefix,
            || (),
            |w, _, range| {
                *slots[w].lock() = Some(body(w, range)?);
                Ok(())
            },
        )?;
        Ok(slots.into_iter().filter_map(|s| s.into_inner()).collect())
    }
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Executor({}, p={})",
            self.mode_name(),
            self.num_workers()
        )
    }
}

impl std::fmt::Debug for Region<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Region({:?}, {:?})", self.name, self.exec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn sum_with(exec: &Executor, n: usize) -> usize {
        let acc = AtomicUsize::new(0);
        exec.region("test")
            .try_for_each_index(n, |i| {
                acc.fetch_add(i, Ordering::Relaxed);
                Ok(())
            })
            .unwrap();
        acc.into_inner()
    }

    #[test]
    fn all_modes_visit_every_index_once() {
        let n = 1000;
        let expected = n * (n - 1) / 2;
        assert_eq!(sum_with(&Executor::sequential(), n), expected);
        assert_eq!(sum_with(&Executor::simulated(4), n), expected);
        assert_eq!(sum_with(&Executor::assist(4), n), expected);
    }

    #[test]
    fn zero_length_region_is_noop() {
        for exec in [
            Executor::sequential(),
            Executor::simulated(3),
            Executor::assist(2),
        ] {
            assert_eq!(sum_with(&exec, 0), 0);
        }
    }

    #[test]
    fn worker_counts() {
        assert_eq!(Executor::sequential().num_workers(), 1);
        assert_eq!(Executor::simulated(7).num_workers(), 7);
        assert_eq!(Executor::assist(5).num_workers(), 5);
        assert!(Executor::simulated(7).is_simulated());
        assert!(!Executor::assist(2).is_simulated());
        assert_eq!(Executor::assist(2).mode_name(), "assist");
    }

    #[test]
    fn map_chunks_returns_in_chunk_order() {
        let exec = Executor::simulated(4);
        let starts = exec
            .region("test")
            .try_map_chunks(10, |_, range| Ok(range.start))
            .unwrap();
        assert_eq!(starts.len(), 4);
        let mut sorted = starts.clone();
        sorted.sort_unstable();
        assert_eq!(starts, sorted);
    }

    #[test]
    fn map_chunks_skips_empty_chunks() {
        let exec = Executor::assist(8);
        let vals = exec
            .region("test")
            .try_map_chunks(3, |_, range| Ok(range.len()))
            .unwrap();
        assert_eq!(vals.iter().sum::<usize>(), 3);
        assert!(vals.len() <= 3);
    }

    #[test]
    fn scratch_is_per_chunk() {
        let exec = Executor::assist(4);
        let totals = Mutex::new(Vec::new());
        exec.region("test")
            .try_for_each_chunk(
                100,
                || 0usize,
                |_, scratch, range| {
                    for _ in range {
                        *scratch += 1;
                    }
                    totals.lock().push(*scratch);
                    Ok(())
                },
            )
            .unwrap();
        let totals = totals.into_inner();
        assert_eq!(totals.iter().sum::<usize>(), 100);
        assert_eq!(totals.len(), 4);
    }

    #[test]
    fn sim_stats_accumulate_and_reset() {
        let exec = Executor::simulated(4);
        exec.region("test")
            .try_for_each_index(100, |_| {
                std::hint::black_box(0);
                Ok(())
            })
            .unwrap();
        let st = exec.take_sim_stats();
        assert_eq!(st.regions, 1);
        assert!(st.measured >= st.charged);
        // Reset worked:
        assert_eq!(exec.take_sim_stats(), SimStats::default());
    }

    #[test]
    fn sim_time_reprices_regions() {
        let st = SimStats {
            charged: Duration::from_millis(10),
            measured: Duration::from_millis(40),
            regions: 1,
        };
        let wall = Duration::from_millis(100);
        assert_eq!(st.simulated_time(wall), Duration::from_millis(70));
        // Saturation: measured can exceed wall only through clock noise;
        // never panic.
        let st2 = SimStats {
            charged: Duration::ZERO,
            measured: Duration::from_millis(200),
            regions: 1,
        };
        assert_eq!(st2.simulated_time(wall), Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_workers_rejected() {
        Executor::simulated(0);
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn executors() -> Vec<Executor> {
        vec![
            Executor::sequential(),
            Executor::simulated(4),
            Executor::assist(4),
        ]
    }

    #[test]
    fn try_constructors() {
        assert!(matches!(
            Executor::try_simulated(0),
            Err(BuildError::ZeroWorkers)
        ));
        assert!(matches!(
            Executor::try_assist(0),
            Err(BuildError::ZeroWorkers)
        ));
        assert_eq!(Executor::try_simulated(3).unwrap().num_workers(), 3);
        assert_eq!(Executor::try_assist(3).unwrap().num_workers(), 3);
    }

    #[test]
    fn panic_in_chunk_is_contained_in_all_modes() {
        for exec in executors() {
            let err = exec
                .region("test")
                .try_for_each_chunk(
                    100,
                    || (),
                    |w, _, _range| {
                        if w == 0 {
                            panic!("chunk exploded");
                        }
                        Ok(())
                    },
                )
                .unwrap_err();
            match err {
                ParError::Panicked { worker, payload } => {
                    assert_eq!(worker, 0, "{}", exec.mode_name());
                    assert!(payload.contains("chunk exploded"));
                }
                other => panic!("expected Panicked, got {other:?}"),
            }
            // The executor survives and runs a clean region afterwards.
            let acc = AtomicUsize::new(0);
            exec.region("test")
                .try_for_each_index(50, |_| {
                    acc.fetch_add(1, Ordering::Relaxed);
                    Ok(())
                })
                .unwrap();
            assert_eq!(acc.into_inner(), 50, "{}", exec.mode_name());
        }
    }

    #[test]
    fn body_error_aborts_region_with_first_error() {
        for exec in executors() {
            let last = exec.num_workers() - 1;
            let err = exec
                .region("test")
                .try_for_each_chunk(
                    100,
                    || (),
                    |w, _, _range| {
                        if w == last {
                            return Err(ParError::Cancelled);
                        }
                        Ok(())
                    },
                )
                .unwrap_err();
            assert_eq!(err, ParError::Cancelled, "{}", exec.mode_name());
        }
    }

    #[test]
    fn cancel_token_aborts_before_chunks() {
        for exec in executors() {
            let token = CancelToken::new();
            exec.set_cancel(token.clone());
            token.cancel();
            let ran = AtomicUsize::new(0);
            let err = exec
                .region("test")
                .try_for_each_index(1000, |_| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    Ok(())
                })
                .unwrap_err();
            assert_eq!(err, ParError::Cancelled, "{}", exec.mode_name());
            assert_eq!(ran.into_inner(), 0, "{}", exec.mode_name());
            // Clearing the token restores normal operation.
            exec.clear_cancel();
            exec.region("test")
                .try_for_each_index(10, |_| Ok(()))
                .unwrap();
        }
    }

    #[test]
    fn expired_deadline_aborts_region() {
        for exec in executors() {
            exec.set_deadline(Deadline::from_now(Duration::ZERO));
            let err = exec
                .region("test")
                .try_for_each_index(1000, |_| Ok(()))
                .unwrap_err();
            assert_eq!(err, ParError::DeadlineExceeded, "{}", exec.mode_name());
            exec.clear_deadline();
            exec.region("test")
                .try_for_each_index(10, |_| Ok(()))
                .unwrap();
        }
    }

    #[test]
    fn checkpoint_observes_cancel_and_deadline() {
        let exec = Executor::sequential();
        assert_eq!(exec.checkpoint(), Ok(()));
        let token = CancelToken::new();
        exec.set_cancel(token.clone());
        assert_eq!(exec.checkpoint(), Ok(()));
        token.cancel();
        assert_eq!(exec.checkpoint(), Err(ParError::Cancelled));
        exec.clear_cancel();
        exec.set_deadline(Deadline::from_now(Duration::ZERO));
        assert_eq!(exec.checkpoint(), Err(ParError::DeadlineExceeded));
        exec.clear_deadline();
        assert_eq!(exec.checkpoint(), Ok(()));
    }

    #[test]
    fn injected_panic_fires_at_planned_site_only() {
        for exec in executors() {
            exec.set_fault_plan(FaultPlan::new().inject(1, 0, Fault::Panic));
            // Region 0: clean.
            exec.region("test")
                .try_for_each_index(10, |_| Ok(()))
                .unwrap();
            // Region 1, chunk 0: injected panic.
            let err = exec
                .region("test")
                .try_for_each_index(10, |_| Ok(()))
                .unwrap_err();
            match err {
                ParError::Panicked { worker, payload } => {
                    assert_eq!(worker, 0, "{}", exec.mode_name());
                    assert!(payload.contains("injected fault"), "{payload}");
                }
                other => panic!("expected Panicked, got {other:?}"),
            }
            // Region 2: the plan has no site here; clean again.
            exec.region("test")
                .try_for_each_index(10, |_| Ok(()))
                .unwrap();
            exec.clear_fault_plan();
        }
    }

    #[test]
    fn injected_cancel_trips_the_shared_token() {
        let exec = Executor::assist(4);
        let token = CancelToken::new();
        exec.set_cancel(token.clone());
        exec.set_fault_plan(FaultPlan::new().inject(0, 0, Fault::Cancel));
        let err = exec
            .region("test")
            .try_for_each_index(100, |_| Ok(()))
            .unwrap_err();
        assert_eq!(err, ParError::Cancelled);
        assert!(token.is_cancelled());
    }

    #[test]
    fn injected_delay_does_not_fail_the_region() {
        let exec = Executor::simulated(4);
        exec.set_fault_plan(FaultPlan::new().inject(0, 2, Fault::Delay(100)));
        let acc = AtomicUsize::new(0);
        exec.region("test")
            .try_for_each_index(100, |_| {
                acc.fetch_add(1, Ordering::Relaxed);
                Ok(())
            })
            .unwrap();
        assert_eq!(acc.into_inner(), 100);
        // The straggler chunk was charged to the simulated critical path.
        assert!(exec.take_sim_stats().charged >= Duration::from_micros(100));
    }

    #[test]
    fn installing_a_plan_resets_region_numbering() {
        let exec = Executor::sequential();
        exec.region("test")
            .try_for_each_index(5, |_| Ok(()))
            .unwrap();
        exec.region("test")
            .try_for_each_index(5, |_| Ok(()))
            .unwrap();
        // Region counter is at 2, but a fresh plan re-zeroes it, so a
        // region-0 site still fires.
        exec.set_fault_plan(FaultPlan::new().inject(0, 0, Fault::Panic));
        assert!(exec
            .region("test")
            .try_for_each_index(5, |_| Ok(()))
            .is_err());
    }

    #[test]
    fn crash_points_fire_at_scheduled_occurrence_only() {
        let exec = Executor::sequential();
        // No plan installed: polls are free and never fire.
        assert!(!exec.crash_point(CrashPoint::WalPreAppend));
        assert_eq!(exec.crashes_fired(), 0);

        exec.set_fault_plan(FaultPlan::new().crash(CrashPoint::WalMidRecord, 1));
        assert!(!exec.crash_point(CrashPoint::WalMidRecord)); // occurrence 0
        assert!(exec.crash_point(CrashPoint::WalMidRecord)); // occurrence 1
        assert!(!exec.crash_point(CrashPoint::WalMidRecord)); // occurrence 2
                                                              // Other points have independent occurrence counters.
        assert!(!exec.crash_point(CrashPoint::WalPreAppend));
        assert_eq!(exec.crashes_fired(), 1);

        // Installing a fresh plan resets occurrence numbering and the
        // fired count.
        exec.set_fault_plan(FaultPlan::new().crash(CrashPoint::CkptPostRename, 0));
        assert_eq!(exec.crashes_fired(), 0);
        assert!(exec.crash_point(CrashPoint::CkptPostRename));
        assert_eq!(exec.crashes_fired(), 1);
        exec.clear_fault_plan();
        assert!(!exec.crash_point(CrashPoint::CkptPostRename));
    }

    #[test]
    fn fired_crashes_are_counted_in_metrics() {
        let exec = Executor::sequential().with_metrics();
        exec.set_fault_plan(FaultPlan::new().crash(CrashPoint::WalPreFsync, 0));
        assert!(exec.crash_point(CrashPoint::WalPreFsync));
        let m = exec.take_metrics();
        assert_eq!(m.get_counter("fault.crashes").unwrap().value, 1);
    }

    #[test]
    fn try_map_chunks_propagates_failure() {
        for exec in executors() {
            let last = exec.num_workers() - 1;
            let err = exec
                .region("test")
                .try_map_chunks(100, |w, range| {
                    if w == last {
                        panic!("mapper died");
                    }
                    Ok(range.len())
                })
                .unwrap_err();
            assert!(matches!(err, ParError::Panicked { worker, .. } if worker == last));
            // Clean run afterwards returns complete results.
            let lens = exec
                .region("test")
                .try_map_chunks(100, |_, range| Ok(range.len()))
                .unwrap();
            assert_eq!(lens.iter().sum::<usize>(), 100);
        }
    }
}

#[cfg(test)]
mod metrics_tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn executors() -> Vec<Executor> {
        vec![
            Executor::sequential(),
            Executor::simulated(4),
            Executor::assist(4),
        ]
    }

    #[test]
    fn disabled_by_default_and_empty() {
        for exec in executors() {
            assert!(!exec.metrics_enabled());
            exec.region("x")
                .try_for_each_index(100, |_| Ok(()))
                .unwrap();
            assert!(exec.take_metrics().is_empty(), "{}", exec.mode_name());
        }
    }

    #[test]
    fn named_regions_are_recorded_in_execution_order() {
        for exec in executors() {
            exec.set_metrics_enabled(true);
            exec.region("a.first")
                .try_for_each_index(50, |_| Ok(()))
                .unwrap();
            exec.region("b.second")
                .try_for_each_index(50, |_| Ok(()))
                .unwrap();
            exec.region("a.first")
                .try_for_each_index(50, |_| Ok(()))
                .unwrap();
            let m = exec.take_metrics();
            let names: Vec<_> = m.regions.iter().map(|r| r.name).collect();
            assert_eq!(names, vec!["a.first", "b.second"], "{}", exec.mode_name());
            let a = m.get("a.first").unwrap();
            assert_eq!(a.invocations, 2);
            // (In assist mode `chunks` counts per-worker participation
            // spans — still at least one per invocation.)
            assert!(a.chunks >= 2, "{}", exec.mode_name());
            assert!(a.wall_ns > 0);
            assert!(a.chunk_max_ns <= a.chunk_sum_ns);
            assert!(a.chunk_min_ns <= a.chunk_max_ns);
            // take() reset the snapshot but kept recording enabled.
            assert!(exec.metrics_enabled());
            assert!(exec.take_metrics().is_empty());
        }
    }

    #[test]
    fn simulated_charged_equals_metrics_chunk_max() {
        let exec = Executor::simulated(4).with_metrics();
        for round in 0..3 {
            exec.region("work.round")
                .try_for_each_index(5_000, |i| {
                    std::hint::black_box(i * round);
                    Ok(())
                })
                .unwrap();
        }
        let sim = exec.take_sim_stats();
        let m = exec.take_metrics();
        // The two accountings share chunk clocks: exact agreement.
        assert_eq!(m.total_charged(), sim.charged);
        assert_eq!(
            Duration::from_nanos(m.regions.iter().map(|r| r.chunk_sum_ns).sum()),
            sim.measured
        );
        assert_eq!(
            m.regions
                .iter()
                .map(|r| r.invocations as usize)
                .sum::<usize>(),
            sim.regions
        );
    }

    #[test]
    fn checkpoint_polls_are_attributed_to_the_running_region() {
        let exec = Executor::sequential().with_metrics();
        exec.region("polling")
            .try_for_each_chunk(
                10,
                || (),
                |_, _, range| {
                    for _ in range {
                        exec.checkpoint()?;
                    }
                    Ok(())
                },
            )
            .unwrap();
        exec.region("silent")
            .try_for_each_index(10, |_| Ok(()))
            .unwrap();
        let m = exec.take_metrics();
        assert_eq!(m.get("polling").unwrap().checkpoints, 10);
        assert_eq!(m.get("silent").unwrap().checkpoints, 0);
    }

    #[test]
    fn failures_and_faults_are_counted() {
        for exec in executors() {
            exec.set_metrics_enabled(true);
            // Injected panic.
            exec.set_fault_plan(FaultPlan::new().inject(0, 0, Fault::Panic));
            let _ = exec.region("faulty").try_for_each_index(100, |_| Ok(()));
            exec.clear_fault_plan();
            // Cancellation observed at a chunk boundary.
            let token = CancelToken::new();
            exec.set_cancel(token.clone());
            token.cancel();
            let _ = exec.region("aborted").try_for_each_index(100, |_| Ok(()));
            exec.clear_cancel();
            // Expired deadline.
            exec.set_deadline(Deadline::from_now(Duration::ZERO));
            let _ = exec.region("late").try_for_each_index(100, |_| Ok(()));
            exec.clear_deadline();

            let m = exec.take_metrics();
            let mode = exec.mode_name();
            let faulty = m.get("faulty").unwrap();
            assert_eq!(faulty.panicked, 1, "{mode}");
            assert_eq!(faulty.faults_injected, 1, "{mode}");
            assert_eq!(m.get("aborted").unwrap().cancelled, 1, "{mode}");
            assert_eq!(m.get("late").unwrap().deadline_exceeded, 1, "{mode}");
        }
    }

    #[test]
    fn imbalance_reflects_skewed_chunks() {
        // 4 chunks, one of which sleeps: the imbalance ratio must rise
        // well above 1.
        let exec = Executor::simulated(4).with_metrics();
        exec.region("skewed")
            .try_for_each_chunk(
                4,
                || (),
                |w, _, _range| {
                    if w == 0 {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Ok(())
                },
            )
            .unwrap();
        let m = exec.take_metrics();
        let r = m.get("skewed").unwrap();
        assert_eq!(r.chunks, 4);
        assert!(r.imbalance() > 2.0, "imbalance {}", r.imbalance());
    }

    #[test]
    fn overhead_free_disabled_path_still_computes() {
        // Sanity: metrics disabled, named regions still execute correctly.
        let exec = Executor::assist(4);
        let acc = AtomicUsize::new(0);
        exec.region("quiet")
            .try_for_each_index(1000, |i| {
                acc.fetch_add(i, Ordering::Relaxed);
                Ok(())
            })
            .unwrap();
        assert_eq!(acc.into_inner(), 1000 * 999 / 2);
        assert!(exec.take_metrics().is_empty());
    }

    #[test]
    fn counters_and_gauges_record_into_metrics() {
        let exec = Executor::sequential().with_metrics();
        exec.add_counter("uf.cas_retries", 3);
        exec.add_counter("uf.cas_retries", 4);
        exec.add_counter("noop", 0); // zero deltas are dropped
        exec.gauge("pkc.frontier", 10);
        exec.gauge("pkc.frontier", 90);
        exec.gauge("pkc.frontier", 40);
        let m = exec.take_metrics();
        assert_eq!(m.get_counter("uf.cas_retries").unwrap().value, 7);
        assert_eq!(m.get_counter("uf.cas_retries").unwrap().kind, "sum");
        assert_eq!(m.get_counter("pkc.frontier").unwrap().value, 90);
        assert_eq!(m.get_counter("pkc.frontier").unwrap().kind, "max");
        assert!(m.get_counter("noop").is_none());
        // Disabled: counters are not recorded.
        let quiet = Executor::sequential();
        quiet.add_counter("x", 5);
        quiet.gauge("y", 5);
        assert!(quiet.take_metrics().is_empty());
    }

    #[test]
    fn every_region_invocation_is_one_histogram_sample() {
        for exec in executors() {
            let mode = exec.mode_name();
            exec.set_metrics_enabled(true);
            exec.arm_histograms();
            for _ in 0..3 {
                exec.region("sampled")
                    .try_for_each_index(100, |_| Ok(()))
                    .unwrap();
            }
            let token = CancelToken::new();
            exec.set_cancel(token.clone());
            token.cancel();
            let err = exec.region("sampled").try_for_each_index(100, |_| Ok(()));
            assert_eq!(err, Err(ParError::Cancelled), "{mode}");
            exec.clear_cancel();
            let m = exec.take_metrics();
            let region = m.get("sampled").unwrap();
            let hist = m.get_histogram("sampled").unwrap();
            assert_eq!((region.invocations, region.cancelled), (4, 1), "{mode}");
            assert_eq!(hist.count, region.invocations, "{mode}");
            assert_eq!(hist.sum_ns, region.wall_ns, "{mode}");
        }
    }

    #[test]
    fn armed_histograms_sample_regions_without_metrics() {
        for exec in executors() {
            let mode = exec.mode_name();
            exec.arm_histograms();
            exec.region("hist.only")
                .try_for_each_index(100, |_| Ok(()))
                .unwrap();
            exec.region("hist.only")
                .try_for_each_index(100, |_| Ok(()))
                .unwrap();
            let m = exec.take_metrics();
            assert!(m.regions.is_empty() && m.counters.is_empty(), "{mode}");
            assert_eq!(m.get_histogram("hist.only").unwrap().count, 2, "{mode}");
        }
    }

    #[test]
    fn region_handle_is_reusable_and_copy() {
        let exec = Executor::sequential().with_metrics();
        let region = exec.region("copy.me");
        let other = region; // Copy
        region.try_for_each_index(5, |_| Ok(())).unwrap();
        other.try_for_each_index(5, |_| Ok(())).unwrap();
        assert_eq!(region.name(), "copy.me");
        assert_eq!(region.executor().num_workers(), 1);
        let m = exec.take_metrics();
        assert_eq!(m.get("copy.me").unwrap().invocations, 2);
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn executors() -> Vec<Executor> {
        vec![
            Executor::sequential(),
            Executor::simulated(4),
            Executor::assist(4),
        ]
    }

    #[test]
    fn disarmed_by_default_and_empty() {
        for exec in executors() {
            assert!(!exec.trace_armed());
            exec.region("quiet")
                .try_for_each_index(100, |_| Ok(()))
                .unwrap();
            assert!(exec.take_trace().is_empty(), "{}", exec.mode_name());
        }
    }

    #[test]
    fn armed_trace_records_region_and_chunk_spans() {
        for exec in executors() {
            exec.arm_trace();
            exec.region("traced.region")
                .try_for_each_index(1000, |_| Ok(()))
                .unwrap();
            exec.gauge("demo.gauge", 42);
            let trace = exec.take_trace();
            let mode = exec.mode_name();
            assert!(!exec.trace_armed(), "{mode}");
            assert_eq!(trace.dropped, 0, "{mode}");
            let enters: Vec<_> = trace.of_kind(EventKind::RegionEnter).collect();
            let exits: Vec<_> = trace.of_kind(EventKind::RegionExit).collect();
            assert_eq!(enters.len(), 1, "{mode}");
            assert_eq!(exits.len(), 1, "{mode}");
            assert_eq!(enters[0].name, "traced.region");
            assert_eq!(exits[0].value, 0, "clean region, {mode}");
            let begins = trace.of_kind(EventKind::ChunkBegin).count();
            let ends = trace.of_kind(EventKind::ChunkEnd).count();
            assert_eq!(begins, ends, "{mode}");
            assert_eq!(begins, exec.num_workers().min(1000), "{mode}");
            // Assist regions additionally sample the assisting-thread
            // gauge into the counter track once per region.
            let expected_counters = if mode == "assist" { 2 } else { 1 };
            assert_eq!(
                trace.of_kind(EventKind::Counter).count(),
                expected_counters,
                "{mode}"
            );
            // The executor is reusable; a fresh arm starts clean.
            exec.arm_trace();
            assert!(exec.trace_armed());
            assert!(exec.take_trace().is_empty(), "{mode}");
        }
    }

    #[test]
    fn chunk_spans_nest_inside_region_spans_per_mode() {
        for exec in executors() {
            exec.arm_trace();
            exec.region("nested")
                .try_for_each_index(100, |_| Ok(()))
                .unwrap();
            let trace = exec.take_trace();
            let enter = trace.of_kind(EventKind::RegionEnter).next().unwrap().ts_ns;
            let exit = trace.of_kind(EventKind::RegionExit).next().unwrap().ts_ns;
            for e in trace
                .of_kind(EventKind::ChunkBegin)
                .chain(trace.of_kind(EventKind::ChunkEnd))
            {
                assert!(
                    enter <= e.ts_ns && e.ts_ns <= exit,
                    "{}: chunk event at {} outside region [{enter}, {exit}]",
                    exec.mode_name(),
                    e.ts_ns
                );
            }
        }
    }

    #[test]
    fn faults_and_failures_appear_in_the_trace() {
        let exec = Executor::simulated(4);
        exec.arm_trace();
        exec.set_fault_plan(FaultPlan::new().inject(0, 1, Fault::Panic));
        let err = exec.region("faulty").try_for_each_index(100, |_| Ok(()));
        assert!(err.is_err());
        let trace = exec.take_trace();
        let faults: Vec<_> = trace.of_kind(EventKind::Fault).collect();
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].worker, 1);
        assert_eq!(faults[0].name, "faulty");
        let exit = trace.of_kind(EventKind::RegionExit).next().unwrap();
        assert_eq!(exit.value, 1, "failed region flagged");
        exec.clear_fault_plan();
    }

    #[test]
    fn checkpoints_are_traced_when_armed() {
        let exec = Executor::sequential();
        exec.arm_trace();
        exec.region("polling")
            .try_for_each_chunk(
                8,
                || (),
                |_, _, range| {
                    for _ in range {
                        exec.checkpoint()?;
                    }
                    Ok(())
                },
            )
            .unwrap();
        let trace = exec.take_trace();
        assert_eq!(trace.of_kind(EventKind::Checkpoint).count(), 8);
    }

    #[test]
    fn disarmed_tracing_leaves_sim_charged_identical_to_metrics() {
        // Acceptance gate: with tracing disarmed, the chunk hot path is
        // byte-for-byte PR 2's — the simulated charged time still equals
        // the metrics critical path exactly, which could not hold if the
        // disarmed path did per-chunk work outside the shared clocks.
        let exec = Executor::simulated(4).with_metrics();
        assert!(!exec.trace_armed());
        for _ in 0..5 {
            exec.region("hot.loop")
                .try_for_each_index(10_000, |i| {
                    std::hint::black_box(i);
                    Ok(())
                })
                .unwrap();
        }
        let sim = exec.take_sim_stats();
        let m = exec.take_metrics();
        assert_eq!(m.total_charged(), sim.charged);
        assert_eq!(
            Duration::from_nanos(m.regions.iter().map(|r| r.chunk_sum_ns).sum()),
            sim.measured
        );
    }

    #[test]
    fn armed_tracing_preserves_accounting_consistency() {
        // Tracing adds time (inside the chunk clocks), but both
        // accountings share those clocks, so they must still agree.
        let exec = Executor::simulated(4).with_metrics();
        exec.arm_trace();
        exec.region("traced.hot")
            .try_for_each_index(10_000, |i| {
                std::hint::black_box(i);
                Ok(())
            })
            .unwrap();
        let sim = exec.take_sim_stats();
        let m = exec.take_metrics();
        assert_eq!(m.total_charged(), sim.charged);
        assert!(!exec.take_trace().is_empty());
    }

    #[test]
    fn bounded_buffers_drop_oldest_but_count_them() {
        let exec = Executor::sequential();
        exec.arm_trace_with_capacity(16);
        for _ in 0..100 {
            exec.region("wrap")
                .try_for_each_index(1, |_| Ok(()))
                .unwrap();
        }
        let trace = exec.take_trace();
        // 100 regions x 4 events (enter, chunk begin/end, exit) = 400.
        assert_eq!(trace.events.len(), 16);
        assert_eq!(trace.dropped, 384);
    }

    #[test]
    fn chrome_export_of_real_run_is_well_formed() {
        let exec = Executor::assist(3);
        exec.arm_trace();
        let acc = AtomicUsize::new(0);
        exec.region("export.me")
            .try_for_each_index(300, |_| {
                acc.fetch_add(1, Ordering::Relaxed);
                Ok(())
            })
            .unwrap();
        exec.gauge("export.gauge", 7);
        let json = exec.take_trace().to_chrome_json();
        assert!(json.contains("\"schema\": \"hcd-trace-v1\""));
        assert!(json.contains("\"export.me\""));
        assert!(json.contains("\"worker-"));
        assert!(json.contains("\"ph\": \"C\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
