//! The serve path: a durable, cache-armed `HcdService` driven by a
//! closed-loop writer and an open-loop reader on two threads, then
//! checked against a from-scratch build of the mirrored edge set.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use hcd::core::{try_phcd, Hcd};
use hcd::decomp::core_decomposition;
use hcd::dynamic::{DynamicCore, EdgeUpdate};
use hcd::graph::CsrGraph;
use hcd::par::{Executor, ParError};
use hcd::serve::{HcdService, Query, QueryAnswer, Response, Snapshot};

use crate::inputs::{mirror_graph, Inputs, Scheduled};

/// Batches between checkpoints under the default durability config; the
/// traced run alternates metrics on and off in blocks of this many
/// batches so both halves see the same share of checkpoint batches.
const TRACE_BLOCK: usize = 8;
/// How long past the end of the phase the reader may run behind before
/// its remaining queries count as failed.
const READER_GRACE: Duration = Duration::from_secs(2);

/// What the writer measured.
#[derive(Default)]
pub struct Writes {
    /// `try_apply_batch` wall time per successful batch, in ms.
    pub write_ms: Vec<f64>,
    /// Whether each entry of `write_ms` ran with metrics and histograms on.
    pub traced: Vec<bool>,
    /// Updates that changed the edge set.
    pub applied_updates: u64,
    /// Batches submitted (succeeded or not), in input order.
    pub submitted: usize,
    /// From the phase start to the end of the last batch.
    pub wall: Duration,
    pub failed: u64,
    pub errors: Vec<String>,
}

/// Index of the query type in `Reads::read_us` and `Reads::span_us`.
fn type_index(q: &Query) -> usize {
    match q {
        Query::CoreContaining(..) => 0,
        Query::HierarchyPosition(..) => 1,
        Query::InKCore(..) => 2,
        Query::SameKCore(..) => 3,
    }
}

/// A logged answer kept for verification after the run.
pub struct Sampled {
    query: Query,
    answer: QueryAnswer,
    /// The snapshot of the generation the answer named, when the reader
    /// could still load it right after the answer (no publication raced).
    snapshot: Option<Arc<Snapshot>>,
}

/// What the reader measured.
#[derive(Default)]
pub struct Reads {
    /// Per query type (core, position, member, same): from each query's
    /// due time to its answer, in µs, so a stalled reader counts.
    pub read_us: [Vec<f64>; 4],
    /// The same latencies grouped by the second of the phase they were
    /// due in.
    pub read_us_by_second: Vec<Vec<f64>>,
    /// The `CoreContaining` latencies grouped the same way.
    pub core_us_by_second: Vec<Vec<f64>>,
    /// How late each query was sent relative to its due time, in µs.
    pub late_us: Vec<f64>,
    /// Per query type: from send to answer, in µs.
    pub span_us: [Vec<f64>; 4],
    pub samples: Vec<Sampled>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Reads {
    /// Reads answered.
    pub fn count(&self) -> usize {
        self.read_us.iter().map(Vec::len).sum()
    }
}

/// Runs the writer and the reader for `budget`, both timed from one
/// shared start.
pub fn run(
    svc: &HcdService,
    writer_exec: &Executor,
    inputs: &Inputs,
    budget: Duration,
    trace: bool,
) -> (Writes, Reads) {
    let start = Instant::now();
    thread::scope(|s| {
        let reader = s.spawn(|| read_loop(svc, &inputs.schedule, &inputs.sampled, start, budget));
        let writes = write_loop(svc, writer_exec, &inputs.batches, start, budget, trace);
        (writes, reader.join().expect("reader thread panicked"))
    })
}

fn write_loop(
    svc: &HcdService,
    exec: &Executor,
    batches: &[Vec<EdgeUpdate>],
    start: Instant,
    budget: Duration,
    trace: bool,
) -> Writes {
    let mut w = Writes::default();
    for (i, batch) in batches.iter().enumerate() {
        if start.elapsed() >= budget {
            break;
        }
        let traced = trace && (i / TRACE_BLOCK) % 2 == 0;
        exec.set_metrics_enabled(traced);
        exec.set_histograms_armed(traced);
        let t = Instant::now();
        let result = svc.try_apply_batch(batch, exec);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        w.submitted = i + 1;
        match result {
            Ok(resp) => {
                w.applied_updates += resp.value.applied as u64;
                w.write_ms.push(ms);
                w.traced.push(traced);
            }
            Err(e) => {
                w.failed += 1;
                w.errors.push(format!("batch {i}: {e}"));
            }
        }
    }
    w.wall = start.elapsed();
    if w.submitted == batches.len() {
        eprintln!("perfbench: the writer ran out of pre-generated batches");
    }
    w
}

/// Answers `q` through its typed entry point.
fn ask(svc: &HcdService, q: Query, exec: &Executor) -> Result<Response<QueryAnswer>, ParError> {
    fn wrap<T>(r: Response<T>, f: impl FnOnce(T) -> QueryAnswer) -> Response<QueryAnswer> {
        Response {
            generation: r.generation,
            value: f(r.value),
        }
    }
    Ok(match q {
        Query::CoreContaining(v, k) => wrap(
            svc.try_core_containing(v, k, exec)?,
            QueryAnswer::CoreContaining,
        ),
        Query::HierarchyPosition(v) => wrap(
            svc.try_hierarchy_position(v, exec)?,
            QueryAnswer::HierarchyPosition,
        ),
        Query::InKCore(v, k) => wrap(svc.try_in_k_core(v, k, exec)?, QueryAnswer::InKCore),
        Query::SameKCore(u, v, k) => {
            wrap(svc.try_same_k_core(u, v, k, exec)?, QueryAnswer::SameKCore)
        }
    })
}

/// Appends `us` to the group of `second`.
fn push_at(groups: &mut Vec<Vec<f64>>, second: usize, us: f64) {
    if groups.len() <= second {
        groups.resize_with(second + 1, Vec::new);
    }
    groups[second].push(us);
}

fn read_loop(
    svc: &HcdService,
    schedule: &[Scheduled],
    sampled: &[usize],
    start: Instant,
    budget: Duration,
) -> Reads {
    let exec = Executor::sequential();
    let mut r = Reads::default();
    let mut next_sample = sampled.iter().peekable();
    for (i, s) in schedule.iter().enumerate() {
        let due = start + Duration::from_nanos(s.due_ns);
        // Spin rather than sleep: a sleeping reader lets its vCPU idle,
        // and waking an idle vCPU can take milliseconds, which would
        // time the hypervisor instead of the service.
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        let sent = Instant::now();
        if sent > start + budget + READER_GRACE {
            let missed = (schedule.len() - i) as u64;
            r.attempted += missed;
            r.failed += missed;
            r.errors
                .push(format!("reader fell behind: {missed} queries never sent"));
            break;
        }
        let result = ask(svc, s.query, &exec);
        let done = Instant::now();
        r.attempted += 1;
        let resp = match result {
            Ok(resp) => resp,
            Err(e) => {
                r.failed += 1;
                r.errors.push(format!("{:?}: {e}", s.query));
                continue;
            }
        };
        let us = (done - due).as_secs_f64() * 1e6;
        let kind = type_index(&s.query);
        r.read_us[kind].push(us);
        let second = (s.due_ns / 1_000_000_000) as usize;
        push_at(&mut r.read_us_by_second, second, us);
        if kind == 0 {
            push_at(&mut r.core_us_by_second, second, us);
        }
        r.late_us.push((sent - due).as_secs_f64() * 1e6);
        r.span_us[kind].push((done - sent).as_secs_f64() * 1e6);
        if next_sample.peek() == Some(&&i) {
            next_sample.next();
            let snap = svc.snapshot();
            r.samples.push(Sampled {
                query: s.query,
                answer: resp.value,
                snapshot: (snap.generation == resp.generation).then_some(snap),
            });
        }
    }
    r
}

/// Checks every sampled answer against a service built from scratch on
/// the graph of the generation the answer named. Returns the number of
/// answers checked and the mismatches.
pub fn verify_samples(samples: &[Sampled]) -> (u64, Vec<String>) {
    let exec = Executor::sequential();
    let mut checked = 0;
    let mut errors = Vec::new();
    for s in samples {
        let Some(snap) = &s.snapshot else { continue };
        checked += 1;
        let truth = HcdService::try_new(&snap.graph, &exec)
            .and_then(|oracle| oracle.try_query_batch(&[s.query], &exec));
        match truth {
            Ok(batch) if batch.answers[0] == s.answer => {}
            Ok(batch) => errors.push(format!(
                "{:?} at generation {} answered {:?}, a fresh build answers {:?}",
                s.query, snap.generation, s.answer, batch.answers[0]
            )),
            Err(e) => errors.push(format!("oracle for {:?}: {e}", s.query)),
        }
    }
    (checked, errors)
}

/// Checks the final published snapshot: it validates, and its
/// fingerprint equals that of a serial core decomposition plus PHCD of
/// the mirrored edge set. `doctor` corrupts the expected fingerprint, so
/// the check (and the run) must fail.
pub fn check_final(
    svc: &HcdService,
    inputs: &Inputs,
    submitted: usize,
    doctor: bool,
) -> Result<(), String> {
    let snap = svc.snapshot();
    snap.validate()
        .map_err(|e| format!("final snapshot invalid: {e}"))?;
    let g = mirror_graph(&inputs.serve_graph, &inputs.batches[..submitted]);
    let cores = core_decomposition(&g);
    let hcd = try_phcd(&g, &cores, &Executor::sequential())
        .map_err(|e| format!("reference PHCD: {e}"))?;
    let mut expected = Snapshot::from_parts(g, cores, hcd, 0).fingerprint();
    if doctor {
        expected ^= 1;
    }
    let got = snap.fingerprint();
    if got == expected {
        Ok(())
    } else {
        Err(format!(
            "final snapshot fingerprint {got:#x} != expected {expected:#x}"
        ))
    }
}

/// Per-batch spans of the write path's stages, replayed on a mirror.
#[derive(Default)]
pub struct Mirror {
    pub apply_ms: Vec<f64>,
    pub to_csr_ms: Vec<f64>,
    pub decomposition_ms: Vec<f64>,
    pub repair_ms: Vec<f64>,
    pub rebuild_ms: Vec<f64>,
    /// `dynamic.affected_vertices` and `dynamic.traversal_edges`, summed.
    pub affected: u64,
    pub traversal: u64,
    /// Σ |`BatchReport::changed`|.
    pub changed: u64,
    /// Σ of the vertex and edge counts before each batch.
    pub n_sum: u64,
    pub m_sum: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Feeds `batches` to a `DynamicCore` mirror for at most `budget`,
/// timing each stage the service's write path runs: batch maintenance,
/// the CSR snapshot, the decomposition clone, hierarchy repair, and the
/// from-scratch PHCD that repair replaces. Each repaired hierarchy must
/// equal the rebuilt one.
pub fn replay_mirror(initial: &CsrGraph, batches: &[Vec<EdgeUpdate>], budget: Duration) -> Mirror {
    let counted = Executor::sequential().with_metrics();
    let plain = Executor::sequential();
    let mut m = Mirror::default();
    let mut dc = DynamicCore::from_csr(initial);
    let mut hcd: Hcd = match try_phcd(initial, &dc.decomposition(), &plain) {
        Ok(h) => h,
        Err(e) => {
            m.failed += 1;
            m.errors.push(format!("mirror PHCD: {e}"));
            return m;
        }
    };
    let start = Instant::now();
    for (i, batch) in batches.iter().enumerate() {
        if i > 0 && start.elapsed() >= budget {
            break;
        }
        m.n_sum += dc.graph().num_vertices() as u64;
        m.m_sum += dc.graph().num_edges() as u64;
        let t = Instant::now();
        let report = match dc.try_apply_batch(batch, &counted) {
            Ok(r) => r,
            Err(e) => {
                m.failed += 1;
                m.errors.push(format!("mirror batch {i}: {e}"));
                return m;
            }
        };
        m.apply_ms.push(ms_since(t));
        let metrics = counted.take_metrics();
        let c = |name: &str| metrics.get_counter(name).map_or(0, |c| c.value);
        m.affected += c("dynamic.affected_vertices");
        m.traversal += c("dynamic.traversal_edges");
        m.changed += report.changed.len() as u64;

        let t = Instant::now();
        let csr = dc.graph().to_csr();
        m.to_csr_ms.push(ms_since(t));
        let t = Instant::now();
        let cores = dc.decomposition();
        m.decomposition_ms.push(ms_since(t));
        let mut dirty = report.changed.clone();
        dirty.extend_from_slice(&report.touched);
        let t = Instant::now();
        let repaired = hcd.repair(&csr, &cores, &dirty);
        m.repair_ms.push(ms_since(t));
        let t = Instant::now();
        match try_phcd(&csr, &cores, &plain) {
            Ok(rebuilt) => {
                m.rebuild_ms.push(ms_since(t));
                if rebuilt.canonicalize() != repaired.canonicalize() {
                    m.failed += 1;
                    m.errors
                        .push(format!("mirror batch {i}: repair differs from rebuild"));
                }
            }
            Err(e) => {
                m.failed += 1;
                m.errors.push(format!("mirror rebuild {i}: {e}"));
            }
        }
        hcd = repaired;
    }
    m
}
