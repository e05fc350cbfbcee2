//! Timeline tracing for the parallel runtime.
//!
//! Region metrics (see [`metrics`](crate::metrics)) aggregate *how much*
//! each region cost; a trace records *when* everything happened. When a
//! trace is **armed** on an [`Executor`](crate::Executor), every parallel
//! region records span events — region enter/exit, per-chunk begin/end,
//! checkpoint polls, injected faults — plus counter samples
//! ([`Executor::gauge`](crate::Executor::gauge)) into per-thread
//! lock-free ring buffers. [`Executor::take_trace`](crate::Executor::take_trace)
//! disarms the trace, merges the buffers, and returns a [`Trace`] that
//! exports as a Chrome/Perfetto trace-event JSON document (schema
//! [`TRACE_SCHEMA`]).
//!
//! # Cost model
//!
//! Disarmed (the default), the only overhead is one relaxed atomic load
//! per region — identical in shape to the metrics recorder — and *zero*
//! per-chunk atomics. Armed, each event is one `Instant::now()` plus a
//! single-writer ring-buffer append (one relaxed load, one plain write,
//! one release store; no CAS, no locks). Ring buffers are bounded
//! ([`DEFAULT_EVENT_CAPACITY`] events per OS thread): when a buffer
//! wraps, the oldest events are overwritten and counted in
//! [`Trace::dropped`], so tracing can never exhaust memory on a long
//! run.
//!
//! # Track model
//!
//! Events are recorded by the OS thread that produced them, but exported
//! on *logical worker* tracks: chunk `w` of every region lands on track
//! `worker-w` (tid `w + 1`), while region-level enter/exit spans land on
//! the `regions` track (tid 0). This makes the three executor modes
//! directly comparable in a viewer — in simulated mode the worker tracks
//! show the serialized schedule the work-span model re-prices, in assist
//! mode they show real concurrency.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

/// Version tag of the JSON document emitted by [`Trace::to_chrome_json`].
pub const TRACE_SCHEMA: &str = "hcd-trace-v1";

/// Default ring-buffer capacity, in events, per recording OS thread.
pub const DEFAULT_EVENT_CAPACITY: usize = 1 << 16;

/// Worker value used for events not attributed to a chunk (region-level
/// spans, checkpoint polls, counter samples).
const NO_WORKER: u32 = u32::MAX;

/// What a [`TraceEvent`] marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A region started (driver thread, before any chunk runs).
    RegionEnter,
    /// A region completed (after the barrier; `value` = 1 if it failed).
    RegionExit,
    /// A chunk started on some worker.
    ChunkBegin,
    /// A chunk finished on some worker.
    ChunkEnd,
    /// An [`Executor::checkpoint`](crate::Executor::checkpoint) poll.
    Checkpoint,
    /// A [`FaultPlan`](crate::FaultPlan) site fired in this chunk.
    Fault,
    /// A counter sample (`value` = the sampled value).
    Counter,
}

/// One timeline event. `ts_ns` is relative to the arming instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the trace was armed.
    pub ts_ns: u64,
    /// Event kind.
    pub kind: EventKind,
    /// Region or counter name (static, `[a-z0-9._-]` by convention).
    pub name: &'static str,
    /// Chunk/worker index, or `u32::MAX` for unattributed events.
    pub worker: u32,
    /// Kind-specific payload: counter value, region failure flag.
    pub value: u64,
}

impl TraceEvent {
    fn placeholder() -> TraceEvent {
        TraceEvent {
            ts_ns: 0,
            kind: EventKind::Checkpoint,
            name: "",
            worker: NO_WORKER,
            value: 0,
        }
    }
}

/// Single-writer ring buffer: only the owning thread appends; readers
/// (the collector) only run at quiescence, after the trace is disarmed
/// and every region has completed.
struct ThreadBuf {
    slots: Box<[UnsafeCell<TraceEvent>]>,
    /// Total number of events ever written (monotonic; slot index is
    /// `head % slots.len()`).
    head: AtomicUsize,
}

// SAFETY: `slots` is written only by the owning thread (single writer)
// and read only after a happens-before edge: the writer's release store
// of `head` is observed by the collector's acquire load, and collection
// happens after all regions have joined (quiescence).
unsafe impl Sync for ThreadBuf {}
unsafe impl Send for ThreadBuf {}

impl ThreadBuf {
    fn new(capacity: usize) -> ThreadBuf {
        ThreadBuf {
            slots: (0..capacity)
                .map(|_| UnsafeCell::new(TraceEvent::placeholder()))
                .collect(),
            head: AtomicUsize::new(0),
        }
    }

    /// Appends one event; overwrites the oldest slot when full.
    fn push(&self, ev: TraceEvent) {
        let head = self.head.load(Ordering::Relaxed);
        // SAFETY: single writer (the owning thread); see `unsafe impl`.
        unsafe { *self.slots[head % self.slots.len()].get() = ev };
        self.head.store(head + 1, Ordering::Release);
    }

    /// Drains the retained events (oldest first) and the dropped count.
    /// Must only be called at quiescence.
    fn collect(&self) -> (Vec<TraceEvent>, u64) {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len();
        let kept = head.min(cap);
        let dropped = (head - kept) as u64;
        let mut out = Vec::with_capacity(kept);
        // Oldest retained event lives at `head - kept`.
        for i in (head - kept)..head {
            // SAFETY: all writes up to `head` happen-before the acquire
            // load above; no writer is active during collection.
            out.push(unsafe { *self.slots[i % cap].get() });
        }
        (out, dropped)
    }
}

/// Shared state of one armed trace session: the epoch, the per-thread
/// buffer registry, and the session id threads use to detect re-arming.
pub(crate) struct TraceShared {
    id: u64,
    epoch: Instant,
    capacity: usize,
    threads: Mutex<Vec<Arc<ThreadBuf>>>,
}

thread_local! {
    /// This thread's buffer in the most recent session it recorded into.
    static LOCAL_BUF: UnsafeCell<Option<(u64, Arc<ThreadBuf>)>> =
        const { UnsafeCell::new(None) };
}

static SESSION_IDS: AtomicU64 = AtomicU64::new(1);

impl TraceShared {
    fn new(capacity: usize) -> TraceShared {
        TraceShared {
            id: SESSION_IDS.fetch_add(1, Ordering::Relaxed),
            epoch: Instant::now(),
            capacity: capacity.max(16),
            threads: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since this session was armed.
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records one event into the calling thread's buffer, registering
    /// the thread on first contact with this session.
    pub(crate) fn record(&self, kind: EventKind, name: &'static str, worker: u32, value: u64) {
        let ev = TraceEvent {
            ts_ns: self.now_ns(),
            kind,
            name,
            worker,
            value,
        };
        LOCAL_BUF.with(|slot| {
            // SAFETY: the thread-local is only touched by its own thread,
            // and `record` never re-enters itself.
            let cached = unsafe { &mut *slot.get() };
            match cached {
                Some((id, buf)) if *id == self.id => buf.push(ev),
                _ => {
                    let buf = Arc::new(ThreadBuf::new(self.capacity));
                    buf.push(ev);
                    self.threads.lock().push(Arc::clone(&buf));
                    *cached = Some((self.id, buf));
                }
            }
        });
    }

    /// Merges all thread buffers into one timestamp-sorted event list.
    fn collect(&self) -> (Vec<TraceEvent>, u64) {
        let mut events = Vec::new();
        let mut dropped = 0u64;
        for buf in self.threads.lock().iter() {
            let (evs, d) = buf.collect();
            events.extend(evs);
            dropped += d;
        }
        events.sort_by_key(|e| e.ts_ns);
        (events, dropped)
    }
}

/// Per-executor trace control: an armed flag (one relaxed load on the
/// disarmed path) plus the current session.
#[derive(Default)]
pub(crate) struct TraceCtl {
    armed: AtomicBool,
    shared: Mutex<Option<Arc<TraceShared>>>,
}

impl TraceCtl {
    pub(crate) fn armed(&self) -> bool {
        self.armed.load(Ordering::Relaxed)
    }

    /// The active session, if armed: the cheap disarmed path is the
    /// single relaxed load; the mutex is only touched when armed.
    pub(crate) fn session(&self) -> Option<Arc<TraceShared>> {
        if !self.armed() {
            return None;
        }
        self.shared.lock().clone()
    }

    pub(crate) fn arm(&self, capacity: usize) {
        *self.shared.lock() = Some(Arc::new(TraceShared::new(capacity)));
        self.armed.store(true, Ordering::Relaxed);
    }

    pub(crate) fn take(&self) -> Trace {
        self.armed.store(false, Ordering::Relaxed);
        let shared = self.shared.lock().take();
        match shared {
            Some(s) => {
                let (events, dropped) = s.collect();
                Trace { events, dropped }
            }
            None => Trace::default(),
        }
    }
}

/// A collected timeline: all retained events, timestamp-sorted, plus the
/// number of events lost to ring-buffer wrap-around.
#[derive(Debug, Default, Clone)]
pub struct Trace {
    /// Retained events in timestamp order.
    pub events: Vec<TraceEvent>,
    /// Events overwritten by ring-buffer wrap-around before collection.
    pub dropped: u64,
}

impl Trace {
    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events of one kind, in order.
    pub fn of_kind(&self, kind: EventKind) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.kind == kind)
    }

    /// The highest worker index seen, if any chunk event was recorded.
    fn max_worker(&self) -> Option<u32> {
        self.events
            .iter()
            .filter(|e| e.worker != NO_WORKER)
            .map(|e| e.worker)
            .max()
    }

    /// Serializes the timeline as Chrome trace-event JSON (the format
    /// Perfetto and `chrome://tracing` load directly), tagged with
    /// [`TRACE_SCHEMA`]:
    ///
    /// * tid 0 (`regions`) carries region-level `B`/`E` span pairs;
    /// * tid `w + 1` (`worker-w`) carries chunk `B`/`E` span pairs and
    ///   fault instants for chunk `w`;
    /// * checkpoint polls are process-scoped instant events;
    /// * [`Executor::gauge`](crate::Executor::gauge) samples become `C`
    ///   counter events (one counter track per name).
    ///
    /// Timestamps are microseconds with nanosecond precision preserved
    /// in the fraction.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(256 + 128 * self.events.len());
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{TRACE_SCHEMA}\",\n"));
        out.push_str(&format!("  \"droppedEvents\": {},\n", self.dropped));
        out.push_str("  \"displayTimeUnit\": \"ms\",\n");
        out.push_str("  \"traceEvents\": [");
        let mut first = true;
        let mut emit = |line: &str| {
            if first {
                first = false;
            } else {
                out.push(',');
            }
            out.push_str("\n    ");
            out.push_str(line);
        };

        // Metadata: process and per-track thread names.
        emit("{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"args\": {\"name\": \"hcd\"}}");
        emit("{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"args\": {\"name\": \"regions\"}}");
        if let Some(max_w) = self.max_worker() {
            for w in 0..=max_w {
                emit(&format!(
                    "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {}, \
                     \"args\": {{\"name\": \"worker-{w}\"}}}}",
                    w + 1
                ));
            }
        }

        for e in &self.events {
            let ts = micros(e.ts_ns);
            let name = escape_json(e.name);
            let line = match e.kind {
                EventKind::RegionEnter => format!(
                    "{{\"name\": \"{name}\", \"cat\": \"region\", \"ph\": \"B\", \
                     \"ts\": {ts}, \"pid\": 1, \"tid\": 0}}"
                ),
                EventKind::RegionExit => format!(
                    "{{\"name\": \"{name}\", \"cat\": \"region\", \"ph\": \"E\", \
                     \"ts\": {ts}, \"pid\": 1, \"tid\": 0, \
                     \"args\": {{\"failed\": {}}}}}",
                    e.value
                ),
                EventKind::ChunkBegin => format!(
                    "{{\"name\": \"{name}\", \"cat\": \"chunk\", \"ph\": \"B\", \
                     \"ts\": {ts}, \"pid\": 1, \"tid\": {}}}",
                    e.worker + 1
                ),
                EventKind::ChunkEnd => format!(
                    "{{\"name\": \"{name}\", \"cat\": \"chunk\", \"ph\": \"E\", \
                     \"ts\": {ts}, \"pid\": 1, \"tid\": {}}}",
                    e.worker + 1
                ),
                EventKind::Checkpoint => format!(
                    "{{\"name\": \"checkpoint\", \"cat\": \"poll\", \"ph\": \"i\", \
                     \"ts\": {ts}, \"pid\": 1, \"tid\": 0, \"s\": \"p\"}}"
                ),
                EventKind::Fault => format!(
                    "{{\"name\": \"fault:{name}\", \"cat\": \"fault\", \"ph\": \"i\", \
                     \"ts\": {ts}, \"pid\": 1, \"tid\": {}, \"s\": \"t\"}}",
                    e.worker.wrapping_add(1)
                ),
                EventKind::Counter => format!(
                    "{{\"name\": \"{name}\", \"cat\": \"counter\", \"ph\": \"C\", \
                     \"ts\": {ts}, \"pid\": 1, \"args\": {{\"value\": {}}}}}",
                    e.value
                ),
            };
            emit(&line);
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// Formats nanoseconds as microseconds with three decimals (Chrome
/// trace-event `ts`/`dur` unit), without floating-point rounding.
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Escapes a string for embedding in a JSON string literal.
/// Escapes `s` for embedding inside a JSON string literal. Shared by
/// every hand-rolled JSON emitter in the workspace (the workspace is
/// serde-free by design).
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_buffer_keeps_newest_and_counts_drops() {
        let buf = ThreadBuf::new(16);
        for i in 0..40u64 {
            buf.push(TraceEvent {
                ts_ns: i,
                kind: EventKind::Checkpoint,
                name: "x",
                worker: 0,
                value: i,
            });
        }
        let (events, dropped) = buf.collect();
        assert_eq!(events.len(), 16);
        assert_eq!(dropped, 24);
        // The newest 16 survive, oldest first.
        assert_eq!(events.first().unwrap().value, 24);
        assert_eq!(events.last().unwrap().value, 39);
    }

    #[test]
    fn session_merges_multi_thread_buffers_in_time_order() {
        let shared = Arc::new(TraceShared::new(1024));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let s = Arc::clone(&shared);
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        s.record(EventKind::ChunkBegin, "demo", t, 0);
                        s.record(EventKind::ChunkEnd, "demo", t, 0);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let (events, dropped) = shared.collect();
        assert_eq!(events.len(), 400);
        assert_eq!(dropped, 0);
        assert!(events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        assert_eq!(shared.threads.lock().len(), 4);
    }

    #[test]
    fn ctl_arms_and_disarms() {
        let ctl = TraceCtl::default();
        assert!(!ctl.armed());
        assert!(ctl.session().is_none());
        assert!(ctl.take().is_empty());
        ctl.arm(64);
        assert!(ctl.armed());
        ctl.session()
            .unwrap()
            .record(EventKind::RegionEnter, "r", NO_WORKER, 0);
        let trace = ctl.take();
        assert!(!ctl.armed());
        assert_eq!(trace.events.len(), 1);
        assert_eq!(trace.events[0].name, "r");
        // A second take is empty.
        assert!(ctl.take().is_empty());
    }

    #[test]
    fn rearming_starts_a_fresh_session() {
        let ctl = TraceCtl::default();
        ctl.arm(64);
        ctl.session()
            .unwrap()
            .record(EventKind::Checkpoint, "", NO_WORKER, 0);
        assert_eq!(ctl.take().events.len(), 1);
        ctl.arm(64);
        // The thread-local buffer from the first session must not leak
        // events into the second.
        ctl.session()
            .unwrap()
            .record(EventKind::Checkpoint, "", NO_WORKER, 0);
        assert_eq!(ctl.take().events.len(), 1);
    }

    #[test]
    fn chrome_json_has_tracks_spans_and_counters() {
        let trace = Trace {
            events: vec![
                TraceEvent {
                    ts_ns: 1_500,
                    kind: EventKind::RegionEnter,
                    name: "phcd.union",
                    worker: NO_WORKER,
                    value: 0,
                },
                TraceEvent {
                    ts_ns: 2_000,
                    kind: EventKind::ChunkBegin,
                    name: "phcd.union",
                    worker: 2,
                    value: 0,
                },
                TraceEvent {
                    ts_ns: 3_000,
                    kind: EventKind::ChunkEnd,
                    name: "phcd.union",
                    worker: 2,
                    value: 0,
                },
                TraceEvent {
                    ts_ns: 3_500,
                    kind: EventKind::Counter,
                    name: "pkc.frontier",
                    worker: NO_WORKER,
                    value: 77,
                },
                TraceEvent {
                    ts_ns: 4_000,
                    kind: EventKind::RegionExit,
                    name: "phcd.union",
                    worker: NO_WORKER,
                    value: 0,
                },
            ],
            dropped: 3,
        };
        let json = trace.to_chrome_json();
        assert!(json.contains("\"schema\": \"hcd-trace-v1\""));
        assert!(json.contains("\"droppedEvents\": 3"));
        assert!(json.contains("\"worker-2\""));
        assert!(json.contains("\"ph\": \"B\""));
        assert!(json.contains("\"ph\": \"E\""));
        assert!(json.contains("\"ph\": \"C\""));
        assert!(json.contains("\"value\": 77"));
        // ns → µs with the fraction preserved.
        assert!(json.contains("\"ts\": 1.500"));
        assert!(json.contains("\"ts\": 3.500"));
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn escape_json_handles_specials() {
        assert_eq!(escape_json("plain.name"), "plain.name");
        assert_eq!(escape_json("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape_json("x\ny"), "x\\ny");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }

    #[test]
    fn micros_preserves_nanos() {
        assert_eq!(micros(0), "0.000");
        assert_eq!(micros(999), "0.999");
        assert_eq!(micros(1_234_567), "1234.567");
    }
}
