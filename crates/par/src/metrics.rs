//! Region-level observability for the parallel runtime, and the one
//! named-metric registry behind it.
//!
//! Every parallel region opened through [`Executor::region`] carries a
//! static name (`"phcd.union"`, `"pbks.triangles"`, …). When metrics are
//! enabled on the executor, each region execution records its wall time,
//! per-chunk durations (min / max / sum, from which a load-imbalance
//! ratio follows), chunk counts, checkpoint polls, and any
//! cancellation / deadline / panic / injected-fault events into a
//! [`RunMetrics`] snapshot retrievable with
//! [`Executor::take_metrics`]. When histograms are armed, each region
//! execution — failed ones included — is also one wall-time sample of
//! the latency histogram with the region's name, so every region has a
//! p50 and a p99 beside its sums.
//!
//! Region aggregates, sum / max counters and latency histograms share
//! one registry keyed by (interned) name, with no cap on distinct names.
//!
//! Cost model: when disabled (the default), the only overhead per region
//! is one relaxed atomic load per arming flag; per chunk, nothing. When
//! enabled, each chunk pays two `Instant::now()` calls and a handful of
//! relaxed atomic updates on stack-local accumulators; each region pays
//! one short registry write lock to fold its totals into the per-name
//! slot. In simulated mode the chunk clocks are shared with the
//! `SimStats` accounting, so the two views are always consistent: per
//! region, the duration charged to `SimStats::charged` *is* the
//! `chunk_max` recorded here.
//!
//! [`Executor::region`]: crate::Executor::region
//! [`Executor::take_metrics`]: crate::Executor::take_metrics

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

use parking_lot::RwLock;

use crate::hist::{HistogramSnapshot, LatencyHistogram};
use crate::trace::escape_json;
use crate::ParError;

/// Aggregated statistics for all executions of one named region.
///
/// A region name is typically executed many times (e.g. `phcd.union`
/// once per k-shell level); the counters here sum over all executions
/// ("invocations") observed since the last [`take_metrics`] call.
///
/// [`take_metrics`]: crate::Executor::take_metrics
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionMetrics {
    /// The static region name passed to [`Executor::region`].
    ///
    /// [`Executor::region`]: crate::Executor::region
    pub name: &'static str,
    /// Number of times a region with this name was executed.
    pub invocations: u64,
    /// The executor's worker count `p` (1 in sequential mode): the
    /// number of workers each invocation could have kept busy.
    pub workers: u64,
    /// Total non-empty chunks executed across all invocations (in
    /// assist mode: per-worker participation spans).
    pub chunks: u64,
    /// Wall time of the region bodies, summed over invocations
    /// (includes the scheduling barrier, so `wall_ns >= chunk_max_ns`
    /// in sequential/simulated modes and `>=` the critical path in
    /// assist mode).
    pub wall_ns: u64,
    /// Sum of all chunk durations (the region's total work).
    pub chunk_sum_ns: u64,
    /// Sum over invocations of the *maximum* chunk duration — the
    /// critical path a perfectly synchronized parallel machine would
    /// pay. In simulated mode this equals the region's contribution to
    /// [`SimStats::charged`](crate::SimStats::charged).
    pub chunk_max_ns: u64,
    /// Sum over invocations of the *minimum* chunk duration.
    pub chunk_min_ns: u64,
    /// [`Executor::checkpoint`](crate::Executor::checkpoint) polls
    /// observed while this region was running.
    pub checkpoints: u64,
    /// Invocations that ended in [`ParError::Cancelled`].
    pub cancelled: u64,
    /// Invocations that ended in [`ParError::DeadlineExceeded`].
    pub deadline_exceeded: u64,
    /// Invocations that ended in [`ParError::Panicked`].
    pub panicked: u64,
    /// Faults injected into chunks of this region by a
    /// [`FaultPlan`](crate::FaultPlan).
    pub faults_injected: u64,
}

impl RegionMetrics {
    /// A zeroed aggregate for `name` (useful for tests and synthetic
    /// snapshots; the registry creates these internally).
    pub fn new(name: &'static str) -> Self {
        RegionMetrics {
            name,
            invocations: 0,
            workers: 0,
            chunks: 0,
            wall_ns: 0,
            chunk_sum_ns: 0,
            chunk_max_ns: 0,
            chunk_min_ns: 0,
            checkpoints: 0,
            cancelled: 0,
            deadline_exceeded: 0,
            panicked: 0,
            faults_injected: 0,
        }
    }

    /// Load-imbalance ratio: critical path over the ideal per-worker
    /// share, `chunk_max / (chunk_sum / (invocations × p))`. Workers
    /// that ran nothing count as zero, so `1.0` is a perfectly balanced
    /// region and `p` means one worker did all the work while `p − 1`
    /// idled. The divisor never drops below the spans that actually
    /// ran (an assist owner plus `p` pool workers can be `p + 1`), so
    /// the ratio stays `>= 1`; with `workers == 0` (never recorded) it
    /// is the per-span ratio `chunk_max / (chunk_sum / chunks)`. Returns
    /// `1.0` for degenerate (no-work) regions.
    pub fn imbalance(&self) -> f64 {
        if self.chunks == 0 || self.chunk_sum_ns == 0 {
            return 1.0;
        }
        let slots = (self.invocations * self.workers).max(self.chunks);
        let mean = self.chunk_sum_ns as f64 / slots as f64;
        self.chunk_max_ns as f64 / (self.invocations as f64 * mean)
    }

    /// Total wall time as a [`Duration`].
    pub fn wall(&self) -> Duration {
        Duration::from_nanos(self.wall_ns)
    }

    /// Critical-path time (summed max chunk) as a [`Duration`].
    pub fn charged(&self) -> Duration {
        Duration::from_nanos(self.chunk_max_ns)
    }
}

/// One named algorithm counter (see [`Executor::add_counter`] and
/// [`Executor::gauge`]): a monotone sum (`kind == "sum"`, e.g. union-find
/// CAS retries) or a high-water mark (`kind == "max"`, e.g. peak peeling
/// frontier).
///
/// [`Executor::add_counter`]: crate::Executor::add_counter
/// [`Executor::gauge`]: crate::Executor::gauge
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterValue {
    /// Counter name, dotted like region names (`"uf.cas_retries"`).
    pub name: &'static str,
    /// Accumulated value (sum or max depending on `kind`).
    pub value: u64,
    /// `"sum"` or `"max"`.
    pub kind: &'static str,
}

/// A snapshot of all region metrics recorded since the last
/// [`take_metrics`](crate::Executor::take_metrics) call, in first-seen
/// (execution) order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunMetrics {
    /// Per-region aggregates, ordered by first execution.
    pub regions: Vec<RegionMetrics>,
    /// Named algorithm counters, ordered by first update.
    pub counters: Vec<CounterValue>,
    /// Latency-histogram snapshots (armed via
    /// [`arm_histograms`](crate::Executor::arm_histograms)), sorted by
    /// name.
    pub histograms: Vec<HistogramSnapshot>,
}

/// Version tag of the JSON document emitted by [`RunMetrics::to_json`].
pub const METRICS_SCHEMA: &str = "hcd-metrics-v1";

impl RunMetrics {
    /// The aggregate for `name`, if that region ever ran.
    pub fn get(&self, name: &str) -> Option<&RegionMetrics> {
        self.regions.iter().find(|r| r.name == name)
    }

    /// The counter named `name`, if it was ever updated.
    pub fn get_counter(&self, name: &str) -> Option<&CounterValue> {
        self.counters.iter().find(|c| c.name == name)
    }

    /// The histogram snapshot named `name`, if it recorded anything.
    pub fn get_histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Whether nothing was recorded (metrics disabled or no regions ran).
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty() && self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Sum of critical-path (max-chunk) time over all regions — in
    /// simulated mode identical to
    /// [`SimStats::charged`](crate::SimStats::charged).
    pub fn total_charged(&self) -> Duration {
        Duration::from_nanos(self.regions.iter().map(|r| r.chunk_max_ns).sum())
    }

    /// Sum of region wall time over all regions.
    pub fn total_wall(&self) -> Duration {
        Duration::from_nanos(self.regions.iter().map(|r| r.wall_ns).sum())
    }

    /// Serializes the snapshot as a stable, self-describing JSON
    /// document (schema [`METRICS_SCHEMA`]):
    ///
    /// ```json
    /// {
    ///   "schema": "hcd-metrics-v1",
    ///   "total_wall_ns": 123,
    ///   "total_charged_ns": 45,
    ///   "regions": [
    ///     {
    ///       "name": "phcd.union", "invocations": 3, "workers": 4, "chunks": 12,
    ///       "wall_ns": 100, "chunk_sum_ns": 90, "chunk_max_ns": 30,
    ///       "chunk_min_ns": 10, "imbalance": 1.33, "checkpoints": 5,
    ///       "cancelled": 0, "deadline_exceeded": 0, "panicked": 0,
    ///       "faults_injected": 0
    ///     }
    ///   ],
    ///   "counters": [
    ///     {"name": "uf.cas_retries", "kind": "sum", "value": 17}
    ///   ],
    ///   "histograms": {
    ///     "version": 1, "sub_bits": 2,
    ///     "entries": [
    ///       {"name": "serve.query.core", "count": 12, "sum_ns": 3456,
    ///        "min_ns": 100, "max_ns": 900, "p50_ns": 224, "p90_ns": 544,
    ///        "p99_ns": 900, "p999_ns": 900, "buckets": [[30, 7], [38, 5]]}
    ///     ]
    ///   }
    /// }
    /// ```
    ///
    /// The `histograms` section is always present (empty `entries` when
    /// nothing was armed). Its `version` guards the entry layout and
    /// `sub_bits` names the bucket scheme so a reader can reconstruct
    /// bucket bounds from the sparse `[index, count]` pairs; the
    /// emitted `p*_ns` fields are precomputed from the same buckets and
    /// carry the documented ±12.5 % bucket-granularity error, while
    /// `count`/`sum_ns`/`min_ns`/`max_ns` are exact.
    ///
    /// Region and counter names are restricted to `[a-z0-9._-]` by
    /// convention, but any name is emitted faithfully with standard JSON
    /// string escaping, so the document stays well-formed regardless.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + 256 * self.regions.len());
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{METRICS_SCHEMA}\",\n"));
        out.push_str(&format!(
            "  \"total_wall_ns\": {},\n",
            self.total_wall().as_nanos()
        ));
        out.push_str(&format!(
            "  \"total_charged_ns\": {},\n",
            self.total_charged().as_nanos()
        ));
        out.push_str("  \"regions\": [");
        for (i, r) in self.regions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let name = escape_json(r.name);
            out.push_str(&format!(
                "\n    {{\"name\": \"{}\", \"invocations\": {}, \"workers\": {}, \"chunks\": {}, \
                 \"wall_ns\": {}, \"chunk_sum_ns\": {}, \"chunk_max_ns\": {}, \
                 \"chunk_min_ns\": {}, \"imbalance\": {:.4}, \"checkpoints\": {}, \
                 \"cancelled\": {}, \"deadline_exceeded\": {}, \"panicked\": {}, \
                 \"faults_injected\": {}}}",
                name,
                r.invocations,
                r.workers,
                r.chunks,
                r.wall_ns,
                r.chunk_sum_ns,
                r.chunk_max_ns,
                r.chunk_min_ns,
                r.imbalance(),
                r.checkpoints,
                r.cancelled,
                r.deadline_exceeded,
                r.panicked,
                r.faults_injected,
            ));
        }
        if !self.regions.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");
        out.push_str("  \"counters\": [");
        for (i, c) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"name\": \"{}\", \"kind\": \"{}\", \"value\": {}}}",
                escape_json(c.name),
                c.kind,
                c.value,
            ));
        }
        if !self.counters.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");
        out.push_str("  \"histograms\": {\n");
        out.push_str("    \"version\": 1,\n");
        out.push_str(&format!("    \"sub_bits\": {},\n", crate::hist::SUB_BITS));
        out.push_str("    \"entries\": [");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let buckets: Vec<String> = h
                .buckets
                .iter()
                .map(|&(idx, c)| format!("[{idx}, {c}]"))
                .collect();
            out.push_str(&format!(
                "\n      {{\"name\": \"{}\", \"count\": {}, \"sum_ns\": {},                  \"min_ns\": {}, \"max_ns\": {}, \"p50_ns\": {}, \"p90_ns\": {},                  \"p99_ns\": {}, \"p999_ns\": {}, \"buckets\": [{}]}}",
                escape_json(h.name),
                h.count,
                h.sum_ns,
                h.min_ns,
                h.max_ns,
                h.quantile(0.50),
                h.quantile(0.90),
                h.quantile(0.99),
                h.quantile(0.999),
                buckets.join(", "),
            ));
        }
        if !self.histograms.is_empty() {
            out.push_str("\n    ");
        }
        out.push_str("]\n  }\n}\n");
        out
    }
}

/// Stack-local per-chunk accumulators for one region execution. Chunks
/// update these with relaxed atomics: they race only on `fetch_*`
/// RMWs, which never lose an update at any ordering, and the region
/// driver reads them only after the region's barrier (the sequential
/// loop, or the assist pool's join), which orders every chunk's
/// updates before the reads. The driver folds them into the registry.
#[derive(Debug)]
pub(crate) struct ChunkStats {
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
    min_ns: AtomicU64,
    faults: AtomicU64,
}

impl ChunkStats {
    pub(crate) fn new() -> Self {
        ChunkStats {
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
            faults: AtomicU64::new(0),
        }
    }

    pub(crate) fn record(&self, d: Duration) {
        let ns = nanos(d);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
        self.min_ns.fetch_min(ns, Ordering::Relaxed);
    }

    pub(crate) fn note_fault(&self) {
        self.faults.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn chunks(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub(crate) fn sum(&self) -> Duration {
        Duration::from_nanos(self.sum_ns.load(Ordering::Relaxed))
    }

    pub(crate) fn max(&self) -> Duration {
        Duration::from_nanos(self.max_ns.load(Ordering::Relaxed))
    }

    fn min_ns_or_zero(&self) -> u64 {
        match self.min_ns.load(Ordering::Relaxed) {
            u64::MAX => 0,
            v => v,
        }
    }

    fn faults_injected(&self) -> u64 {
        self.faults.load(Ordering::Relaxed)
    }
}

/// A duration in whole nanoseconds, saturating at `u64::MAX`.
pub(crate) fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// One name's entry in the [`Registry`]: whichever kinds of telemetry
/// were recorded under it since the last take.
struct Slot {
    /// Creation rank: regions and counters are emitted in this order.
    rank: usize,
    region: Option<RegionMetrics>,
    counter: Option<CounterValue>,
    hist: Option<LatencyHistogram>,
}

/// The per-executor named-metric registry: the metrics and histogram
/// arming flags, a global checkpoint-poll counter (attributed to the
/// currently running region — regions of one executor never overlap),
/// and one slot per name holding that name's region aggregate, counter
/// and latency histogram.
///
/// Histogram samples take the lock shared, so concurrent recorders
/// proceed in parallel on their own shards; region folds, counter
/// updates, first-time registrations and [`Registry::take`] take it
/// exclusively.
#[derive(Default)]
pub(crate) struct Registry {
    metrics: AtomicBool,
    histograms: AtomicBool,
    checkpoint_polls: AtomicUsize,
    slots: RwLock<HashMap<&'static str, Slot>>,
}

// The flags and the poll counter are Relaxed: a flag publishes no data
// (a region that misses a concurrent toggle records, or skips, one more
// sample), and the poll counter is an RMW tally read by the region
// driver after the region's barrier. Slot contents are ordered by the
// lock.
impl Registry {
    pub(crate) fn metrics_enabled(&self) -> bool {
        self.metrics.load(Ordering::Relaxed)
    }

    pub(crate) fn set_metrics_enabled(&self, on: bool) {
        self.metrics.store(on, Ordering::Relaxed);
    }

    pub(crate) fn histograms_armed(&self) -> bool {
        self.histograms.load(Ordering::Relaxed)
    }

    pub(crate) fn set_histograms_armed(&self, on: bool) {
        self.histograms.store(on, Ordering::Relaxed);
    }

    /// Called from [`Executor::checkpoint`](crate::Executor::checkpoint);
    /// a single relaxed increment when enabled, nothing otherwise.
    pub(crate) fn note_checkpoint(&self) {
        if self.metrics_enabled() {
            self.checkpoint_polls.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Snapshot of the global checkpoint counter, taken before and after
    /// a region to attribute the delta to it.
    pub(crate) fn checkpoint_mark(&self) -> usize {
        self.checkpoint_polls.load(Ordering::Relaxed)
    }

    /// Runs `f` on the slot named `name` under the exclusive lock,
    /// creating the slot on first use.
    fn with_slot(&self, name: &'static str, f: impl FnOnce(&mut Slot)) {
        let mut slots = self.slots.write();
        let rank = slots.len();
        f(slots.entry(name).or_insert_with(|| Slot {
            rank,
            region: None,
            counter: None,
            hist: None,
        }))
    }

    /// Folds one region execution on a `workers`-wide executor into its
    /// named slot.
    pub(crate) fn record_region(
        &self,
        name: &'static str,
        workers: usize,
        wall: Duration,
        chunks: &ChunkStats,
        checkpoint_delta: usize,
        outcome: Option<&ParError>,
    ) {
        self.with_slot(name, |slot| {
            let r = slot.region.get_or_insert_with(|| RegionMetrics::new(name));
            r.invocations += 1;
            r.workers = r.workers.max(workers as u64);
            r.chunks += chunks.chunks();
            r.wall_ns += nanos(wall);
            r.chunk_sum_ns += nanos(chunks.sum());
            r.chunk_max_ns += nanos(chunks.max());
            r.chunk_min_ns += chunks.min_ns_or_zero();
            r.checkpoints += checkpoint_delta as u64;
            r.faults_injected += chunks.faults_injected();
            match outcome {
                Some(ParError::Cancelled) => r.cancelled += 1,
                Some(ParError::DeadlineExceeded) => r.deadline_exceeded += 1,
                Some(ParError::Panicked { .. }) => r.panicked += 1,
                None => {}
            }
        });
    }

    /// Folds a delta into the named counter. `kind` must be `"sum"`
    /// (add) or `"max"` (high-water mark); a name keeps the kind of its
    /// first update.
    pub(crate) fn update_counter(&self, name: &'static str, value: u64, kind: &'static str) {
        self.with_slot(name, |slot| match &mut slot.counter {
            Some(c) if c.kind == "max" => c.value = c.value.max(value),
            Some(c) => c.value = c.value.saturating_add(value),
            None => slot.counter = Some(CounterValue { name, value, kind }),
        });
    }

    /// Records `ns` into the histogram named `name` when histograms are
    /// armed; otherwise returns after one relaxed load.
    #[inline]
    pub(crate) fn observe(&self, name: &'static str, ns: u64) {
        if self.histograms_armed() {
            self.record_sample(name, ns);
        }
    }

    /// Records `ns` into the histogram named `name`, armed or not.
    pub(crate) fn record_sample(&self, name: &'static str, ns: u64) {
        if let Some(h) = self.slots.read().get(name).and_then(|s| s.hist.as_ref()) {
            h.record(ns);
            return;
        }
        self.with_slot(name, |slot| {
            slot.hist
                .get_or_insert_with(LatencyHistogram::new)
                .record(ns);
        });
    }

    /// Copies every histogram without resetting — the in-flight view
    /// behind `serve-bench --stats-interval`. Sorted by name.
    pub(crate) fn snapshot(&self) -> Vec<HistogramSnapshot> {
        let mut out: Vec<HistogramSnapshot> = self
            .slots
            .read()
            .iter()
            .filter_map(|(&name, s)| s.hist.as_ref().map(|h| h.snapshot(name)))
            .collect();
        out.sort_by(|a, b| a.name.cmp(b.name));
        out
    }

    /// Returns and resets everything recorded: regions and counters in
    /// the order their names were first recorded, histograms sorted by
    /// name. The arming flags are left untouched so a long-lived
    /// executor keeps recording.
    pub(crate) fn take(&self) -> RunMetrics {
        let slots = std::mem::take(&mut *self.slots.write());
        self.checkpoint_polls.store(0, Ordering::Relaxed);
        let mut slots: Vec<(&'static str, Slot)> = slots.into_iter().collect();
        slots.sort_by_key(|(_, s)| s.rank);
        let mut m = RunMetrics::default();
        for (name, s) in slots {
            m.regions.extend(s.region);
            m.counters.extend(s.counter);
            m.histograms.extend(s.hist.map(|h| h.snapshot(name)));
        }
        m.histograms.sort_by(|a, b| a.name.cmp(b.name));
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region(name: &'static str) -> RegionMetrics {
        RegionMetrics {
            invocations: 2,
            workers: 4,
            chunks: 8,
            wall_ns: 1_000,
            chunk_sum_ns: 800,
            chunk_max_ns: 300,
            chunk_min_ns: 50,
            checkpoints: 4,
            ..RegionMetrics::new(name)
        }
    }

    #[test]
    fn imbalance_ratio() {
        let mut r = region("x");
        // mean chunk = 100ns, per-invocation max = 150ns => 1.5.
        r.invocations = 2;
        r.chunks = 8;
        r.chunk_sum_ns = 800;
        r.chunk_max_ns = 300;
        assert!((r.imbalance() - 1.5).abs() < 1e-9);
        // Degenerate regions report perfectly balanced.
        let empty = RegionMetrics::new("e");
        assert_eq!(empty.imbalance(), 1.0);
    }

    #[test]
    fn imbalance_edge_cases() {
        // Zero chunks recorded (region never ran a chunk): balanced by
        // definition, not NaN from 0/0.
        let mut r = RegionMetrics::new("z");
        r.invocations = 3;
        assert_eq!(r.imbalance(), 1.0);

        // Chunks ran but all completed in under a nanosecond of
        // accumulated time: same degenerate guard.
        r.chunks = 4;
        r.chunk_sum_ns = 0;
        assert_eq!(r.imbalance(), 1.0);

        // A single chunk IS the critical path and the mean: exactly 1.0.
        let mut single = RegionMetrics::new("s");
        single.invocations = 1;
        single.chunks = 1;
        single.chunk_sum_ns = 777;
        single.chunk_max_ns = 777;
        assert!((single.imbalance() - 1.0).abs() < 1e-12);

        // All chunks equal: max == mean, perfectly balanced regardless
        // of chunk count.
        let mut even = RegionMetrics::new("v");
        even.invocations = 1;
        even.chunks = 10;
        even.chunk_sum_ns = 1_000;
        even.chunk_max_ns = 100;
        assert!((even.imbalance() - 1.0).abs() < 1e-12);

        // Worst case: one chunk did everything in a 4-chunk region.
        let mut skew = RegionMetrics::new("w");
        skew.invocations = 1;
        skew.chunks = 4;
        skew.chunk_sum_ns = 400;
        skew.chunk_max_ns = 400;
        assert!((skew.imbalance() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn imbalance_counts_idle_workers() {
        // One participant did all the work on a 4-worker executor: the
        // three idle workers count as zero, so the ratio reads 4.0.
        let rec = Registry::default();
        let spans = ChunkStats::new();
        spans.record(Duration::from_nanos(1_000));
        rec.record_region("lone", 4, Duration::from_nanos(1_100), &spans, 0, None);
        let m = rec.take();
        let lone = m.get("lone").unwrap();
        assert_eq!((lone.workers, lone.chunks), (4, 1));
        assert!(
            (lone.imbalance() - 4.0).abs() < 1e-12,
            "{}",
            lone.imbalance()
        );

        // Two of four workers splitting the work evenly: 2.0.
        let mut half = lone.clone();
        half.chunks = 2;
        half.chunk_max_ns = 500;
        assert!((half.imbalance() - 2.0).abs() < 1e-12);

        // An assist owner plus all `p` pool workers can record `p + 1`
        // spans; a perfectly even split still reads 1.0, never below.
        let mut crowded = lone.clone();
        crowded.chunks = 5;
        crowded.chunk_max_ns = 200;
        assert!((crowded.imbalance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn json_shape_is_stable() {
        let rm = RunMetrics {
            regions: vec![region("phcd.union"), region("pbks.triangles")],
            counters: vec![CounterValue {
                name: "uf.cas_retries",
                value: 17,
                kind: "sum",
            }],
            ..RunMetrics::default()
        };
        let json = rm.to_json();
        assert!(json.contains("\"schema\": \"hcd-metrics-v1\""));
        assert!(json.contains("\"histograms\": {"));
        assert!(json.contains("\"sub_bits\": 2"));
        assert!(json.contains("\"name\": \"phcd.union\""));
        assert!(json.contains("\"chunk_max_ns\": 300"));
        assert!(json.contains("\"workers\": 4"));
        assert!(json.contains("\"imbalance\": 1.5000"));
        assert!(json.contains("\"total_charged_ns\": 600"));
        assert!(json.contains("\"name\": \"uf.cas_retries\", \"kind\": \"sum\", \"value\": 17"));
        // Balanced brackets / braces (cheap well-formedness check).
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn json_escapes_names() {
        // Names outside the [a-z0-9._-] convention must survive as valid
        // JSON string literals, not corrupt the document.
        let rm = RunMetrics {
            regions: vec![RegionMetrics::new("we\"ird\\na\nme")],
            counters: vec![CounterValue {
                name: "c\"tr",
                value: 1,
                kind: "sum",
            }],
            ..RunMetrics::default()
        };
        let json = rm.to_json();
        assert!(json.contains(r#""we\"ird\\na\nme""#), "{json}");
        assert!(json.contains(r#""c\"tr""#), "{json}");
        // Every quote in the document is either structural or escaped:
        // the name fields parse back out intact.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn empty_metrics_json() {
        let json = RunMetrics::default().to_json();
        assert!(json.contains("\"regions\": []"));
        assert!(json.contains("\"total_wall_ns\": 0"));
    }

    #[test]
    fn registry_accumulates_and_resets() {
        let rec = Registry::default();
        rec.set_metrics_enabled(true);
        let cs = ChunkStats::new();
        cs.record(Duration::from_nanos(100));
        cs.record(Duration::from_nanos(300));
        cs.note_fault();
        rec.record_region("a", 4, Duration::from_nanos(500), &cs, 3, None);
        rec.record_region(
            "a",
            4,
            Duration::from_nanos(100),
            &ChunkStats::new(),
            0,
            Some(&ParError::Cancelled),
        );
        let m = rec.take();
        assert_eq!(m.regions.len(), 1);
        let a = m.get("a").unwrap();
        assert_eq!(a.invocations, 2);
        assert_eq!(a.workers, 4);
        assert_eq!(a.chunks, 2);
        assert_eq!(a.chunk_sum_ns, 400);
        assert_eq!(a.chunk_max_ns, 300);
        assert_eq!(a.chunk_min_ns, 100);
        assert_eq!(a.checkpoints, 3);
        assert_eq!(a.cancelled, 1);
        assert_eq!(a.faults_injected, 1);
        // Reset:
        assert!(rec.take().is_empty());
    }

    #[test]
    fn counters_sum_and_max_fold_correctly() {
        let rec = Registry::default();
        rec.update_counter("uf.find_hops", 10, "sum");
        rec.update_counter("uf.find_hops", 5, "sum");
        rec.update_counter("pkc.frontier", 100, "max");
        rec.update_counter("pkc.frontier", 40, "max");
        rec.update_counter("pkc.frontier", 250, "max");
        let m = rec.take();
        assert_eq!(m.get_counter("uf.find_hops").unwrap().value, 15);
        let frontier = m.get_counter("pkc.frontier").unwrap();
        assert_eq!(frontier.value, 250);
        assert_eq!(frontier.kind, "max");
        assert!(rec.take().is_empty());
    }

    #[test]
    fn chunk_stats_min_of_no_chunks_is_zero() {
        let cs = ChunkStats::new();
        assert_eq!(cs.min_ns_or_zero(), 0);
        assert_eq!(cs.chunks(), 0);
        assert_eq!(cs.max(), Duration::ZERO);
    }

    fn armed_registry() -> Registry {
        let reg = Registry::default();
        reg.set_histograms_armed(true);
        reg
    }

    #[test]
    fn registry_records_forty_distinct_histogram_names() {
        let reg = armed_registry();
        let names: Vec<&'static str> = (0..40)
            .map(|i| crate::intern(&format!("reg.h{i:02}")))
            .collect();
        for (i, &name) in names.iter().enumerate() {
            reg.observe(name, i as u64 + 1);
        }
        let hists = reg.take().histograms;
        let got: Vec<&str> = hists.iter().map(|h| h.name).collect();
        assert_eq!(got, names, "every name recorded, sorted by name");
        assert!(hists.iter().all(|h| h.count == 1));
    }

    #[test]
    fn one_name_holds_a_region_a_counter_and_a_histogram() {
        let reg = armed_registry();
        reg.record_region("x", 1, Duration::from_nanos(5), &ChunkStats::new(), 0, None);
        reg.update_counter("x", 2, "sum");
        reg.observe("x", 5);
        let m = reg.take();
        assert_eq!(m.get("x").unwrap().invocations, 1);
        assert_eq!(m.get_counter("x").unwrap().value, 2);
        assert_eq!(m.get_histogram("x").unwrap().count, 1);
    }

    #[test]
    fn histogram_take_resets_and_snapshot_peeks() {
        let reg = armed_registry();
        reg.observe("a", 5);
        assert_eq!(reg.snapshot()[0].count, 1);
        assert_eq!(reg.snapshot()[0].count, 1, "peek does not reset");
        assert_eq!(reg.take().histograms[0].count, 1);
        assert!(reg.take().is_empty(), "second take sees nothing");
        reg.observe("a", 7);
        let hists = reg.take().histograms;
        assert_eq!(hists.len(), 1);
        assert_eq!(hists[0].count, 1, "pre-take samples are gone");
    }

    #[test]
    fn disarmed_histograms_record_nothing() {
        let reg = Registry::default();
        reg.observe("a", 5);
        assert!(reg.take().is_empty());
        reg.set_histograms_armed(true);
        reg.set_histograms_armed(false);
        reg.observe("a", 5);
        assert!(reg.take().is_empty(), "mid-run disarm drops samples");
    }
}
