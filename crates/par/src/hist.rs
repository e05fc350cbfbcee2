//! Sharded log2-bucketed latency histograms.
//!
//! The serving layer needs latency *distributions* — p50/p99/p999 —
//! not just the wall-time sums of region aggregates. This module
//! provides a fixed-footprint histogram tuned for that job:
//!
//! - **Bucketing.** Values (nanoseconds) map to power-of-two groups
//!   with [`SUB_BUCKETS`] linear sub-buckets per group (HdrHistogram
//!   style). With `SUB_BITS = 2` a bucket spans at most 1/4 of its
//!   lower bound, so any reported quantile is within **±12.5 %** of a
//!   true sample value (half the bucket width relative to the bucket
//!   floor); `count`, `sum`, `min` and `max` are exact. The full
//!   `u64` nanosecond range fits in [`NUM_BUCKETS`] (= 252) buckets.
//! - **Recording.** Each histogram holds [`NUM_SHARDS`] shards of
//!   relaxed atomics; a thread picks its shard from a thread-local id,
//!   so concurrent recorders on different threads almost never touch
//!   the same cache lines and never lose an increment. Recording is
//!   wait-free: two relaxed `fetch_add`s plus min/max CAS loops.
//! - **Naming and arming.** Histograms live in the executor's one
//!   named-metric registry (`metrics.rs`) beside region aggregates and
//!   counters, under the same interned names and without a name cap.
//!   Disarmed, a call site costs exactly one relaxed atomic load, the
//!   same discipline as the metrics and trace layers.
//! - **Merging.** Snapshots from shards (or from separate processes)
//!   merge by adding per-bucket counts; quantiles extracted from a
//!   merged snapshot equal quantiles of the combined value stream up
//!   to the bucket granularity above, because a value's bucket index
//!   is a pure function of the value.
//!
//! Snapshots travel inside [`crate::metrics::RunMetrics`] and are
//! emitted as the `histograms` section of the `hcd-metrics-v1` JSON
//! document (see `metrics.rs`).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::metrics::{nanos, Registry};

/// Linear-refinement bits per power-of-two group: each group splits
/// into `2^SUB_BITS` equal sub-buckets.
pub const SUB_BITS: u32 = 2;
/// Sub-buckets per power-of-two group (`2^SUB_BITS`).
pub const SUB_BUCKETS: usize = 1 << SUB_BITS;
/// Total buckets covering all of `u64`: values `0..SUB_BUCKETS` get an
/// exact bucket each; every group `[2^h, 2^(h+1))` for
/// `h in SUB_BITS..64` contributes `SUB_BUCKETS` refined buckets.
pub const NUM_BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB_BUCKETS;
/// Shards per histogram. Threads hash onto shards by a process-wide
/// thread counter, so up to this many recorders proceed with zero
/// cache-line contention.
pub const NUM_SHARDS: usize = 8;

/// Maps a nanosecond value to its bucket index. Pure, monotone
/// (non-decreasing), total over `u64`.
#[inline]
pub fn bucket_index(ns: u64) -> usize {
    if ns < SUB_BUCKETS as u64 {
        return ns as usize;
    }
    let h = 63 - ns.leading_zeros(); // ns >= SUB_BUCKETS so h >= SUB_BITS
    let group = (h - SUB_BITS + 1) as usize;
    let sub = ((ns >> (h - SUB_BITS)) & (SUB_BUCKETS as u64 - 1)) as usize;
    group * SUB_BUCKETS + sub
}

/// Inclusive lower bound of bucket `i` (the smallest value that maps
/// to it).
#[inline]
pub fn bucket_lo(i: usize) -> u64 {
    if i < SUB_BUCKETS {
        return i as u64;
    }
    let group = i / SUB_BUCKETS;
    let sub = (i % SUB_BUCKETS) as u64;
    let h = group as u32 + SUB_BITS - 1;
    (SUB_BUCKETS as u64 + sub) << (h - SUB_BITS)
}

/// Width of bucket `i` in nanoseconds (number of distinct values it
/// absorbs).
#[inline]
pub fn bucket_width(i: usize) -> u64 {
    if i < SUB_BUCKETS {
        return 1;
    }
    let h = (i / SUB_BUCKETS) as u32 + SUB_BITS - 1;
    1u64 << (h - SUB_BITS)
}

/// Representative (midpoint) value of bucket `i`, used when a quantile
/// lands inside it. Strictly increasing in `i`.
#[inline]
pub fn bucket_mid(i: usize) -> u64 {
    bucket_lo(i) + (bucket_width(i) - 1) / 2
}

// --- shards ------------------------------------------------------------

struct Shard {
    buckets: Vec<AtomicU64>, // NUM_BUCKETS long
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64, // u64::MAX when empty
    max: AtomicU64,
}

impl Shard {
    fn new() -> Self {
        Shard {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    // Relaxed throughout: each field is its own location and an RMW
    // never loses an update at any ordering. Readers order themselves
    // through the registry lock: `Registry::take` holds it exclusively,
    // so every finished sample is visible; `Registry::snapshot` shares
    // it with recorders, so an in-flight peek may see a sample's count
    // before its bucket.
    #[inline]
    fn record(&self, ns: u64) {
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(ns, Ordering::Relaxed);
        self.min.fetch_min(ns, Ordering::Relaxed);
        self.max.fetch_max(ns, Ordering::Relaxed);
    }

    /// Adds this shard's contents to `snap`.
    fn add_to(&self, snap: &mut HistogramSnapshot) {
        let count = self.count.load(Ordering::Relaxed);
        if count == 0 {
            return;
        }
        snap.count += count;
        snap.sum_ns += self.sum.load(Ordering::Relaxed);
        snap.min_ns = snap.min_ns.min(self.min.load(Ordering::Relaxed));
        snap.max_ns = snap.max_ns.max(self.max.load(Ordering::Relaxed));
        for (i, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c > 0 {
                snap.add_bucket(i, c);
            }
        }
    }
}

/// A sharded latency histogram (one named series). A shard
/// is allocated by the first thread that records into it, so a
/// histogram only one thread feeds costs one shard, not
/// [`NUM_SHARDS`].
pub(crate) struct LatencyHistogram {
    shards: [OnceLock<Shard>; NUM_SHARDS],
}

impl LatencyHistogram {
    pub(crate) fn new() -> Self {
        LatencyHistogram {
            shards: std::array::from_fn(|_| OnceLock::new()),
        }
    }

    /// Records one nanosecond sample on the calling thread's shard.
    #[inline]
    pub(crate) fn record(&self, ns: u64) {
        self.shards[shard_id()].get_or_init(Shard::new).record(ns);
    }

    /// Copies the shards, merged, into a snapshot named `name`.
    pub(crate) fn snapshot(&self, name: &'static str) -> HistogramSnapshot {
        let mut snap = HistogramSnapshot::empty(name);
        for s in self.shards.iter().filter_map(OnceLock::get) {
            s.add_to(&mut snap);
        }
        snap.finish()
    }
}

/// Returns this thread's shard index. Assigned round-robin from a
/// process-wide counter on first use, so a fixed pool of worker
/// threads spreads evenly over the shards.
#[inline]
fn shard_id() -> usize {
    // Relaxed: only the RMW's atomicity matters (it spreads threads
    // over shards); nothing is published through the counter.
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: usize = NEXT.fetch_add(1, Ordering::Relaxed) % NUM_SHARDS;
    }
    SHARD.with(|s| *s)
}

// --- snapshots ---------------------------------------------------------

/// A point-in-time, merge-stable copy of one histogram. Buckets are
/// sparse `(index, count)` pairs sorted by index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Dotted series name (`serve.query.core`, `serve.wal.fsync`, …).
    pub name: &'static str,
    /// Exact number of recorded samples.
    pub count: u64,
    /// Exact sum of all samples in nanoseconds.
    pub sum_ns: u64,
    /// Exact smallest sample (0 when empty).
    pub min_ns: u64,
    /// Exact largest sample (0 when empty).
    pub max_ns: u64,
    /// Sparse non-empty buckets as `(bucket_index, count)`, ascending.
    pub buckets: Vec<(usize, u64)>,
}

impl HistogramSnapshot {
    fn empty(name: &'static str) -> Self {
        HistogramSnapshot {
            name,
            count: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
            buckets: Vec::new(),
        }
    }

    fn add_bucket(&mut self, index: usize, count: u64) {
        match self.buckets.binary_search_by_key(&index, |&(i, _)| i) {
            Ok(pos) => self.buckets[pos].1 += count,
            Err(pos) => self.buckets.insert(pos, (index, count)),
        }
    }

    /// Normalises the empty-histogram sentinel (`min = u64::MAX`) away.
    fn finish(mut self) -> Self {
        if self.count == 0 {
            self.min_ns = 0;
        }
        self
    }

    /// Extracts the `q`-quantile (`q in [0, 1]`) as a nanosecond value.
    ///
    /// The returned value is the representative (midpoint) of the
    /// bucket holding the sample of rank `ceil(q * count)`, clamped to
    /// the exact observed `[min, max]` range — so it is monotone
    /// non-decreasing in `q`, exact at the extremes, and within the
    /// documented ±12.5 % bucket granularity everywhere else. Returns
    /// 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(i, c) in &self.buckets {
            seen += c;
            if seen >= rank {
                return bucket_mid(i).clamp(self.min_ns, self.max_ns);
            }
        }
        self.max_ns
    }

    /// Mean sample in nanoseconds (exact, since `sum` and `count`
    /// are). Returns 0 for an empty histogram.
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }

    /// Folds `other` into `self`. Because bucket indices are a pure
    /// function of the sample value, quantiles of the merged snapshot
    /// equal quantiles of the concatenated sample streams (up to
    /// bucket granularity); `count`/`sum`/`min`/`max` merge exactly.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min_ns = other.min_ns;
            self.max_ns = other.max_ns;
        } else {
            self.min_ns = self.min_ns.min(other.min_ns);
            self.max_ns = self.max_ns.max(other.max_ns);
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        for &(i, c) in &other.buckets {
            self.add_bucket(i, c);
        }
    }
}

// --- timing handle -----------------------------------------------------

/// A drop-to-record latency timer: measures from creation to drop and
/// records into the executor's registry. When histograms are disarmed
/// the constructor takes no clock reading and drop is free.
pub struct LatencyTimer<'a> {
    reg: &'a Registry,
    name: &'static str,
    start: Option<Instant>,
}

impl<'a> LatencyTimer<'a> {
    /// Starts a timer for `name` (reads the clock only when armed).
    pub(crate) fn start(reg: &'a Registry, name: &'static str) -> Self {
        let start = reg.histograms_armed().then(Instant::now);
        LatencyTimer { reg, name, start }
    }

    /// Discards the timer without recording.
    pub fn cancel(mut self) {
        self.start = None;
    }
}

impl Drop for LatencyTimer<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.reg.observe(self.name, nanos(start.elapsed()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_round_trips_bounds() {
        for i in 0..NUM_BUCKETS {
            let lo = bucket_lo(i);
            assert_eq!(bucket_index(lo), i, "lo of bucket {i}");
            let hi = lo + (bucket_width(i) - 1);
            assert_eq!(bucket_index(hi), i, "hi of bucket {i}");
            let mid = bucket_mid(i);
            assert_eq!(bucket_index(mid), i, "mid of bucket {i}");
            if i + 1 < NUM_BUCKETS {
                assert_eq!(bucket_lo(i + 1), hi + 1, "buckets {i},{} tile", i + 1);
            }
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
        assert_eq!(bucket_index(0), 0);
    }

    #[test]
    fn bucket_relative_error_is_bounded() {
        // Half the bucket width relative to the bucket floor is the
        // worst-case quantile error; the scheme promises <= 12.5 %.
        for i in SUB_BUCKETS..NUM_BUCKETS {
            let lo = bucket_lo(i) as f64;
            let half = bucket_width(i) as f64 / 2.0;
            assert!(half / lo <= 0.125 + 1e-12, "bucket {i}: {}", half / lo);
        }
    }

    fn hist_of(values: &[u64]) -> HistogramSnapshot {
        let h = LatencyHistogram::new();
        for &v in values {
            h.record(v);
        }
        h.snapshot("t")
    }

    fn armed() -> Registry {
        let reg = Registry::default();
        reg.set_histograms_armed(true);
        reg
    }

    #[test]
    fn quantiles_hit_exact_extremes() {
        let s = hist_of(&[17, 1_000, 999_999, 123_456_789]);
        assert_eq!(s.count, 4);
        assert_eq!(s.sum_ns, 17 + 1_000 + 999_999 + 123_456_789);
        assert_eq!(s.min_ns, 17);
        assert_eq!(s.max_ns, 123_456_789);
        assert_eq!(s.quantile(0.0), 17, "q=0 clamps to min");
        assert_eq!(s.quantile(1.0), 123_456_789, "q=1 clamps to max");
    }

    #[test]
    fn quantile_is_within_documented_error() {
        let values: Vec<u64> = (0..1000).map(|i| 1000 + i * 977).collect();
        let s = hist_of(&values);
        for q in [0.1, 0.5, 0.9, 0.99] {
            let rank = ((q * values.len() as f64).ceil() as usize).max(1);
            let exact = values[rank - 1] as f64;
            let got = s.quantile(q) as f64;
            assert!(
                (got - exact).abs() / exact <= 0.125,
                "q={q}: got {got}, exact {exact}"
            );
        }
    }

    #[test]
    fn disarmed_timer_records_nothing() {
        let reg = Registry::default();
        {
            let _t = LatencyTimer::start(&reg, "b");
        }
        reg.set_histograms_armed(true);
        assert!(reg.take().histograms.is_empty());
    }

    #[test]
    fn timer_records_when_armed() {
        let reg = armed();
        {
            let _t = LatencyTimer::start(&reg, "timed");
        }
        let snaps = reg.take().histograms;
        assert_eq!(snaps.len(), 1);
        assert_eq!(snaps[0].name, "timed");
        assert_eq!(snaps[0].count, 1);
    }

    #[test]
    fn cancelled_timer_records_nothing() {
        let reg = armed();
        LatencyTimer::start(&reg, "t").cancel();
        assert!(reg.take().histograms.is_empty());
    }

    #[test]
    fn concurrent_recording_is_exact() {
        // Miri explores interleavings, not volume: a few samples per
        // thread cover the registry lock and the shard atomics.
        let (threads, per_thread) = if cfg!(miri) { (3u64, 20) } else { (8, 10_000) };
        let reg = armed();
        std::thread::scope(|s| {
            for t in 0..threads {
                let reg = &reg;
                s.spawn(move || {
                    for i in 0..per_thread {
                        reg.observe("conc", t * per_thread + i + 1);
                    }
                });
            }
        });
        let snaps = reg.take().histograms;
        assert_eq!(snaps.len(), 1);
        let s = &snaps[0];
        let n = threads * per_thread;
        assert_eq!(s.count, n, "count exact under concurrency");
        assert_eq!(s.sum_ns, n * (n + 1) / 2, "sum exact under concurrency");
        assert_eq!(s.min_ns, 1);
        assert_eq!(s.max_ns, n);
        assert_eq!(s.buckets.iter().map(|&(_, c)| c).sum::<u64>(), n);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn quantile_is_monotone_in_q(
                values in proptest::collection::vec(0u64..u64::MAX / 2, 1..200),
                qs in proptest::collection::vec(0u64..1001, 2..20),
            ) {
                let s = hist_of(&values);
                let mut qs: Vec<f64> = qs.iter().map(|&q| q as f64 / 1000.0).collect();
                qs.sort_by(|a, b| a.partial_cmp(b).unwrap());
                let mut last = 0u64;
                for q in qs {
                    let v = s.quantile(q);
                    prop_assert!(v >= last, "quantile({q}) = {v} < {last}");
                    last = v;
                }
            }

            #[test]
            fn merge_equals_combined_stream(
                a in proptest::collection::vec(0u64..1_000_000_000, 0..150),
                b in proptest::collection::vec(0u64..1_000_000_000, 0..150),
            ) {
                let mut merged = hist_of(&a);
                merged.merge(&hist_of(&b));
                let mut both = a.clone();
                both.extend_from_slice(&b);
                let combined = hist_of(&both);
                prop_assert_eq!(merged.count, combined.count);
                prop_assert_eq!(merged.sum_ns, combined.sum_ns);
                prop_assert_eq!(merged.min_ns, combined.min_ns);
                prop_assert_eq!(merged.max_ns, combined.max_ns);
                prop_assert_eq!(&merged.buckets, &combined.buckets);
                for q in [0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
                    prop_assert_eq!(
                        merged.quantile(q),
                        combined.quantile(q),
                        "q={}", q
                    );
                }
            }

            #[test]
            fn count_and_sum_are_exact(
                values in proptest::collection::vec(0u64..1_000_000_000, 0..200),
            ) {
                let s = hist_of(&values);
                prop_assert_eq!(s.count, values.len() as u64);
                prop_assert_eq!(s.sum_ns, values.iter().sum::<u64>());
                if values.is_empty() {
                    prop_assert_eq!(s.min_ns, 0);
                    prop_assert_eq!(s.max_ns, 0);
                } else {
                    prop_assert_eq!(s.min_ns, *values.iter().min().unwrap());
                    prop_assert_eq!(s.max_ns, *values.iter().max().unwrap());
                }
            }

            #[test]
            fn bucket_index_is_monotone(a in any::<u64>(), b in any::<u64>()) {
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                prop_assert!(bucket_index(lo) <= bucket_index(hi));
            }
        }
    }
}
