//! Work-assisting self-scheduling pool backing `Mode::Assist`.
//!
//! The static modes pre-assign chunk `w` to worker `w`; on skewed
//! regions the busiest worker's span caps speedup (the imbalance ratio
//! `RunMetrics` measures). Work assisting removes that cap without
//! changing the chunk table: a region *publishes* its loop descriptor —
//! region id, an atomic next-chunk cursor, and the chunk table — into a
//! fixed-size shared **assist array**, then self-schedules chunks from
//! its own loop by claiming cursor positions. Pool workers that have
//! nothing to do scan the array, join the **busiest** live loop (most
//! unclaimed chunks), and claim chunks from the same cursor instead of
//! parking. Greedy self-scheduling bounds the busiest worker's span by
//! `avg + max single chunk`, which static pre-assignment cannot.
//!
//! Everything the executor promises per chunk is preserved, because the
//! chunk *runner* is unchanged — only *which thread* runs a chunk moves:
//!
//! * chunk boundaries are the same `split_even`/`split_weighted` tables
//!   as every other mode, so granularity-dependent algorithm counters
//!   stay mode-independent;
//! * a `(region, chunk)` fault site fires exactly once, because each
//!   cursor position is claimed exactly once;
//! * cancellation/deadline polls, panic containment, and
//!   first-failure-wins all live inside the runner.
//!
//! The one accounting difference: in assist mode `ChunkStats` records
//! per-worker *participation spans* (each participant's total busy time
//! in the region) instead of per-chunk durations. `chunk_sum_ns` is
//! unchanged (spans partition the same work), while the imbalance ratio
//! becomes a measure of scheduler-achieved per-worker balance — the
//! quantity work assisting actually improves.
//!
//! # Memory-safety protocol
//!
//! The chunk runner and the span sink borrow the publishing frame, but
//! pool workers are `'static` threads, so `LoopJob` holds type-erased
//! raw pointers. Soundness rests on a strict quiescence protocol:
//!
//! 1. assistants register (`inside += 1`) *under the slot lock* while
//!    the job is still published;
//! 2. the owner unpublishes the slot (no new registrations), then waits
//!    until `pending == 0 && inside == 0` before returning;
//! 3. assistants touch the borrowed pointers only between registration
//!    and their `inside -= 1` (the span record happens before it).
//!
//! The nightly miri lane (`cargo miri test -p hcd-par --lib assist`)
//! vets this protocol and the claim-cursor atomics.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::error::BuildError;
use crate::metrics::ChunkStats;

/// Capacity of the shared assist array: the maximum number of
/// concurrently published loops (concurrent regions on one executor,
/// e.g. a serving writer rebuilding while readers answer batches, plus
/// nested regions). A region that finds the array full simply runs
/// unassisted — correctness never depends on publication.
pub(crate) const ASSIST_SLOTS: usize = 8;

/// Per-region outcome the executor folds into counters and the
/// assisting-thread gauge.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct RunOutcome {
    /// Non-empty chunks executed by assistants (threads other than the
    /// publishing owner).
    pub(crate) steals: u64,
    /// Failed `compare_exchange` attempts while claiming cursor
    /// positions.
    pub(crate) cas_retries: u64,
    /// High-water mark of threads simultaneously inside the loop
    /// (owner included).
    pub(crate) max_assisting: usize,
}

// --- loop descriptor ---------------------------------------------------

/// Type-erased chunk runner borrowed from the publishing frame. Safe to
/// send to pool workers only under the quiescence protocol (module
/// docs).
struct ErasedRunner(*const (dyn Fn(usize, Range<usize>) + Sync));
unsafe impl Send for ErasedRunner {}
unsafe impl Sync for ErasedRunner {}

/// Erases the borrow's lifetime (a raw `*const dyn` defaults to
/// `+ 'static`, so a plain cast is rejected).
///
/// # Safety
///
/// The caller must keep the referent alive for as long as the returned
/// pointer can be dereferenced — here, until `wait_quiesced` returns.
unsafe fn erase_runner<'a>(
    f: &'a (dyn Fn(usize, Range<usize>) + Sync + 'a),
) -> *const (dyn Fn(usize, Range<usize>) + Sync + 'static) {
    std::mem::transmute(f as *const (dyn Fn(usize, Range<usize>) + Sync + 'a))
}

/// Type-erased span sink (`None` when the region is untimed).
struct ErasedSpans(Option<*const ChunkStats>);
unsafe impl Send for ErasedSpans {}
unsafe impl Sync for ErasedSpans {}

/// One published loop-parallel activity: everything another worker
/// needs to assist it.
struct LoopJob {
    /// Executor-scoped region index (the same number fault sites use).
    #[allow(dead_code)]
    region: usize,
    /// The static chunk table — identical to every other mode.
    ranges: Vec<Range<usize>>,
    /// Next unclaimed cursor position.
    cursor: AtomicUsize,
    /// Chunks (including empty ones) not yet completed.
    pending: AtomicUsize,
    /// Threads currently claiming from this loop (owner included).
    assisting: AtomicUsize,
    max_assisting: AtomicUsize,
    steals: AtomicU64,
    cas_retries: AtomicU64,
    /// Assistants that may still touch the borrowed pointers below.
    inside: AtomicUsize,
    run: ErasedRunner,
    spans: ErasedSpans,
    /// Owner's completion wait: signalled on last-chunk completion and
    /// on every assistant leave.
    done: Mutex<()>,
    done_cv: Condvar,
}

impl LoopJob {
    /// # Safety
    ///
    /// `run` and `spans` must outlive the job's last use: the creator
    /// must not let them die before `wait_quiesced` has returned.
    unsafe fn new(
        region: usize,
        ranges: Vec<Range<usize>>,
        run: &(dyn Fn(usize, Range<usize>) + Sync),
        spans: Option<&ChunkStats>,
    ) -> LoopJob {
        let pending = ranges.len();
        LoopJob {
            region,
            ranges,
            cursor: AtomicUsize::new(0),
            pending: AtomicUsize::new(pending),
            assisting: AtomicUsize::new(0),
            max_assisting: AtomicUsize::new(0),
            steals: AtomicU64::new(0),
            cas_retries: AtomicU64::new(0),
            inside: AtomicUsize::new(0),
            run: ErasedRunner(erase_runner(run)),
            spans: ErasedSpans(spans.map(|s| s as *const _)),
            done: Mutex::new(()),
            done_cv: Condvar::new(),
        }
    }

    /// Unclaimed cursor positions left.
    fn remaining(&self) -> usize {
        self.ranges
            .len()
            .saturating_sub(self.cursor.load(Ordering::Relaxed))
    }

    /// Claims the next cursor position, or `None` when the loop is
    /// exhausted. A CAS loop (not `fetch_add`) so the cursor never
    /// overshoots the table and contention is observable as retries.
    fn claim(&self) -> Option<usize> {
        let mut cur = self.cursor.load(Ordering::Relaxed);
        loop {
            if cur >= self.ranges.len() {
                return None;
            }
            match self.cursor.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some(cur),
                Err(actual) => {
                    self.cas_retries.fetch_add(1, Ordering::Relaxed);
                    cur = actual;
                }
            }
        }
    }

    /// Marks one claimed chunk complete; wakes the owner on the last.
    /// The `AcqRel` decrement is what publishes chunk results to the
    /// owner's `Acquire` read in `wait_quiesced`.
    fn complete_one(&self) {
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _g = self.done.lock().unwrap();
            self.done_cv.notify_all();
        }
    }

    /// Claims and runs chunks until the cursor is exhausted, recording
    /// this thread's participation span. `owner` distinguishes the
    /// publisher (its claims are not steals) from assistants.
    fn drain(&self, owner: bool) {
        let now = self.assisting.fetch_add(1, Ordering::Relaxed) + 1;
        self.max_assisting.fetch_max(now, Ordering::Relaxed);
        let mut span_ns = 0u64;
        let mut ran = false;
        while let Some(i) = self.claim() {
            let range = self.ranges[i].clone();
            if range.is_empty() {
                // Empty chunks are skipped in every mode: no runner
                // call, no fault site, no trace span.
                self.complete_one();
                continue;
            }
            if !owner {
                self.steals.fetch_add(1, Ordering::Relaxed);
            }
            // Safety: quiescence protocol (module docs) — the referent
            // is alive until the owner has seen us leave.
            let run = unsafe { &*self.run.0 };
            if self.spans.0.is_some() {
                let t0 = Instant::now();
                run(i, range);
                span_ns = span_ns
                    .saturating_add(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
            } else {
                run(i, range);
            }
            ran = true;
            self.complete_one();
        }
        self.assisting.fetch_sub(1, Ordering::Relaxed);
        if ran {
            if let Some(spans) = self.spans.0 {
                // Safety: as above; recorded before the assistant's
                // `leave`, so it happens-before the owner's return.
                unsafe { (*spans).record(Duration::from_nanos(span_ns.max(1))) };
            }
        }
    }

    /// Assistant exit: the last borrowed-pointer touch was before this.
    fn leave(&self) {
        if self.inside.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _g = self.done.lock().unwrap();
            self.done_cv.notify_all();
        }
    }

    /// Owner-side barrier: returns once every chunk is complete and no
    /// assistant can still touch the borrowed pointers.
    fn wait_quiesced(&self) {
        let mut g = self.done.lock().unwrap();
        while self.pending.load(Ordering::Acquire) != 0 || self.inside.load(Ordering::Acquire) != 0
        {
            g = self.done_cv.wait(g).unwrap();
        }
    }
}

// --- the shared assist array and worker pool ---------------------------

struct Slot {
    job: Mutex<Option<Arc<LoopJob>>>,
}

struct Shared {
    slots: Vec<Slot>,
    shutdown: AtomicBool,
    /// Park gate: a version counter bumped (under the lock) on every
    /// publish, cascade wake, and shutdown, so a worker that scanned
    /// emptily can detect a publish that raced with its decision to
    /// park.
    gate: Mutex<u64>,
    gate_cv: Condvar,
}

impl Shared {
    fn new() -> Shared {
        Shared {
            slots: (0..ASSIST_SLOTS)
                .map(|_| Slot {
                    job: Mutex::new(None),
                })
                .collect(),
            shutdown: AtomicBool::new(false),
            gate: Mutex::new(0),
            gate_cv: Condvar::new(),
        }
    }

    /// Publishes a loop into a free slot, waking one parked worker.
    /// `None` (array full) means the owner runs unassisted.
    fn publish(&self, job: &Arc<LoopJob>) -> Option<usize> {
        for (i, slot) in self.slots.iter().enumerate() {
            let mut g = slot.job.lock().unwrap();
            if g.is_none() {
                *g = Some(Arc::clone(job));
                drop(g);
                self.wake_one();
                return Some(i);
            }
        }
        None
    }

    fn unpublish(&self, slot: usize) {
        *self.slots[slot].job.lock().unwrap() = None;
    }

    fn wake_one(&self) {
        let mut v = self.gate.lock().unwrap();
        *v += 1;
        self.gate_cv.notify_one();
    }

    fn wake_all(&self) {
        let mut v = self.gate.lock().unwrap();
        *v += 1;
        self.gate_cv.notify_all();
    }

    /// Scans the assist array and joins the busiest live loop (most
    /// unclaimed chunks), registering under the slot lock so the owner
    /// cannot miss this assistant when it unpublishes.
    fn pick_and_enter(&self) -> Option<Arc<LoopJob>> {
        loop {
            let mut best: Option<(usize, usize)> = None; // (remaining, slot)
            for (i, slot) in self.slots.iter().enumerate() {
                let g = slot.job.lock().unwrap();
                if let Some(job) = g.as_ref() {
                    let rem = job.remaining();
                    if rem > 0 && best.map_or(true, |(brem, _)| rem > brem) {
                        best = Some((rem, i));
                    }
                }
            }
            let (_, i) = best?;
            let g = self.slots[i].job.lock().unwrap();
            if let Some(job) = g.as_ref() {
                if job.remaining() > 0 {
                    job.inside.fetch_add(1, Ordering::AcqRel);
                    return Some(Arc::clone(job));
                }
            }
            // The chosen loop drained or was unpublished between the two
            // passes; rescan (terminates: either a candidate survives or
            // the scan comes up empty and we park).
        }
    }
}

fn worker_main(shared: Arc<Shared>) {
    let mut last_seen = *shared.gate.lock().unwrap();
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        if let Some(job) = shared.pick_and_enter() {
            // Cascade wake: if there is more than one chunk left, another
            // parked worker can help too.
            if job.remaining() > 1 {
                shared.wake_one();
            }
            job.drain(false);
            job.leave();
            continue;
        }
        let mut g = shared.gate.lock().unwrap();
        if *g == last_seen && !shared.shutdown.load(Ordering::Acquire) {
            g = shared.gate_cv.wait(g).unwrap();
        }
        last_seen = *g;
    }
}

/// The dedicated worker pool behind one assist-mode executor.
pub(crate) struct AssistPool {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl AssistPool {
    pub(crate) fn new(workers: usize) -> Result<AssistPool, BuildError> {
        if workers == 0 {
            return Err(BuildError::ZeroWorkers);
        }
        let shared = Arc::new(Shared::new());
        let mut threads = Vec::with_capacity(workers);
        for i in 0..workers {
            let s = Arc::clone(&shared);
            match std::thread::Builder::new()
                .name(format!("hcd-assist-{i}"))
                .spawn(move || worker_main(s))
            {
                Ok(h) => threads.push(h),
                Err(e) => {
                    shared.shutdown.store(true, Ordering::Release);
                    shared.wake_all();
                    for t in threads {
                        let _ = t.join();
                    }
                    return Err(BuildError::Pool(e.to_string()));
                }
            }
        }
        Ok(AssistPool { shared, threads })
    }

    /// Runs one region: publishes the loop descriptor, self-schedules
    /// chunks on the calling thread, and returns once every chunk is
    /// done and all assistants have left. `spans` (present iff the
    /// region is timed) receives one participation span per thread that
    /// ran at least one chunk.
    pub(crate) fn run(
        &self,
        region: usize,
        ranges: Vec<Range<usize>>,
        run_chunk: &(dyn Fn(usize, Range<usize>) + Sync),
        spans: Option<&ChunkStats>,
    ) -> RunOutcome {
        let nonempty = ranges.iter().filter(|r| !r.is_empty()).count();
        if nonempty == 0 {
            return RunOutcome::default();
        }
        // Safety: we wait for quiescence below before `run_chunk` and
        // `spans` go out of scope.
        let job = Arc::new(unsafe { LoopJob::new(region, ranges, run_chunk, spans) });
        // A single-chunk loop has nothing to share; skip the publish
        // and the worker wakeup.
        let slot = if nonempty > 1 {
            self.shared.publish(&job)
        } else {
            None
        };
        job.drain(true);
        if let Some(slot) = slot {
            self.shared.unpublish(slot);
        }
        job.wait_quiesced();
        RunOutcome {
            steals: job.steals.load(Ordering::Relaxed),
            cas_retries: job.cas_retries.load(Ordering::Relaxed),
            max_assisting: job.max_assisting.load(Ordering::Relaxed),
        }
    }
}

impl Drop for AssistPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.wake_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BuildError, Executor, ParError};
    use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};

    /// Loop sizes shrink under miri so the nightly
    /// `cargo miri test -p hcd-par --lib assist` lane stays fast while
    /// still exercising the claim-cursor and assist-array atomics.
    const N: usize = if cfg!(miri) { 96 } else { 10_000 };

    #[test]
    fn assist_visits_every_index_exactly_once() {
        let exec = Executor::assist(4);
        let visits: Vec<AtomicU8> = (0..N).map(|_| AtomicU8::new(0)).collect();
        exec.region("test")
            .try_for_each_index(N, |i| {
                visits[i].fetch_add(1, Ordering::Relaxed);
                Ok(())
            })
            .unwrap();
        assert!(visits.iter().all(|v| v.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn assist_claim_cursor_is_exclusive_under_contention() {
        // Hammer one LoopJob's cursor from several threads directly:
        // every position claimed exactly once, pending drains to zero,
        // and the cursor never exceeds the table.
        let chunks = if cfg!(miri) { 64 } else { 4096 };
        let ranges: Vec<Range<usize>> = (0..chunks).map(|i| i..i + 1).collect();
        let runner = |_: usize, _: Range<usize>| {};
        let job = unsafe { LoopJob::new(0, ranges, &runner, None) };
        let seen: Vec<AtomicU8> = (0..chunks).map(|_| AtomicU8::new(0)).collect();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    while let Some(i) = job.claim() {
                        seen[i].fetch_add(1, Ordering::Relaxed);
                        job.complete_one();
                    }
                });
            }
        });
        assert!(seen.iter().all(|v| v.load(Ordering::Relaxed) == 1));
        assert_eq!(job.pending.load(Ordering::Relaxed), 0);
        assert_eq!(job.cursor.load(Ordering::Relaxed), chunks);
    }

    #[test]
    fn assist_array_prefers_the_busiest_live_loop() {
        let shared = Shared::new();
        let runner = |_: usize, _: Range<usize>| {};
        let small =
            Arc::new(unsafe { LoopJob::new(0, (0..2).map(|i| i..i + 1).collect(), &runner, None) });
        let big =
            Arc::new(unsafe { LoopJob::new(1, (0..9).map(|i| i..i + 1).collect(), &runner, None) });
        shared.publish(&small);
        shared.publish(&big);
        let picked = shared.pick_and_enter().unwrap();
        assert!(Arc::ptr_eq(&picked, &big), "must join the busiest loop");
        picked.leave();
        // Drain the big loop; the next scan must fall over to the small
        // one, and an empty array must yield None.
        while big.claim().is_some() {}
        let picked = shared.pick_and_enter().unwrap();
        assert!(Arc::ptr_eq(&picked, &small));
        picked.leave();
        while small.claim().is_some() {}
        assert!(shared.pick_and_enter().is_none());
    }

    #[test]
    fn assist_concurrent_regions_on_one_executor() {
        // Two owner threads publish simultaneously: both loops live in
        // the assist array at once, both complete exactly.
        let exec = Executor::assist(2);
        let a = AtomicUsize::new(0);
        let b = AtomicUsize::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                exec.region("test")
                    .try_for_each_index(N, |_| {
                        a.fetch_add(1, Ordering::Relaxed);
                        Ok(())
                    })
                    .unwrap();
            });
            s.spawn(|| {
                exec.region("test")
                    .try_for_each_index(N, |_| {
                        b.fetch_add(1, Ordering::Relaxed);
                        Ok(())
                    })
                    .unwrap();
            });
        });
        assert_eq!(a.into_inner(), N);
        assert_eq!(b.into_inner(), N);
    }

    #[test]
    fn assist_records_spans_counters_and_gauge() {
        let exec = Executor::assist(4).with_metrics();
        exec.region("assist.demo")
            .try_for_each_index(N, |i| {
                std::hint::black_box(i);
                Ok(())
            })
            .unwrap();
        let m = exec.take_metrics();
        let r = m.get("assist.demo").unwrap();
        // Chunk stats are per-worker participation spans: at least the
        // owner, at most owner + 4 pool workers.
        assert!(r.chunks >= 1 && r.chunks <= 5, "spans {}", r.chunks);
        assert!(r.chunk_sum_ns > 0);
        assert!(r.chunk_max_ns <= r.chunk_sum_ns);
        let gauge = m.get_counter("par.assist.assisting_threads").unwrap();
        assert_eq!(gauge.kind, "max");
        assert!(gauge.value >= 1 && gauge.value <= 5);
        // Steal/retry counters are scheduling-dependent; when present
        // they are monotone sums.
        for name in ["par.assist.steals", "par.assist.claim_cas_retries"] {
            if let Some(c) = m.get_counter(name) {
                assert_eq!(c.kind, "sum", "{name}");
            }
        }
    }

    #[test]
    fn assist_panic_containment_and_reuse() {
        let exec = Executor::assist(4);
        let err = exec
            .region("test")
            .try_for_each_chunk(
                N,
                || (),
                |w, _, _range| {
                    if w == 1 {
                        panic!("assist chunk exploded");
                    }
                    Ok(())
                },
            )
            .unwrap_err();
        match err {
            ParError::Panicked { worker, payload } => {
                assert_eq!(worker, 1);
                assert!(payload.contains("assist chunk exploded"));
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
        // The pool survives and the executor stays usable.
        let acc = AtomicUsize::new(0);
        exec.region("test")
            .try_for_each_index(N, |_| {
                acc.fetch_add(1, Ordering::Relaxed);
                Ok(())
            })
            .unwrap();
        assert_eq!(acc.into_inner(), N);
    }

    #[test]
    fn assist_zero_workers_rejected() {
        assert!(matches!(
            Executor::try_assist(0),
            Err(BuildError::ZeroWorkers)
        ));
    }

    #[test]
    fn assist_chunk_table_matches_static_modes() {
        let record = |exec: &Executor| {
            let r = std::sync::Mutex::new(Vec::new());
            exec.region("test")
                .try_for_each_chunk(
                    17,
                    || (),
                    |w, _, range| {
                        r.lock().unwrap().push((w, range.start, range.end));
                        Ok(())
                    },
                )
                .unwrap();
            let mut v = r.into_inner().unwrap();
            v.sort_unstable();
            v
        };
        assert_eq!(
            record(&Executor::assist(5)),
            record(&Executor::simulated(5))
        );
    }
}
