//! Work-assisting executor integration tests: algorithm counters must
//! stay deterministic while assisting threads migrate chunks between
//! workers, and the `(region, chunk)` fault matrix must behave exactly
//! as in the statically scheduled modes — identical chunk boundaries
//! are the contract that makes both properties hold.

use std::time::Duration;

use hcd::prelude::*;

/// Runs `f` with metrics enabled on `exec` and returns the snapshot.
fn metered<F: FnOnce(&Executor)>(exec: &Executor, f: F) -> RunMetrics {
    exec.set_metrics_enabled(true);
    f(exec);
    let m = exec.take_metrics();
    exec.set_metrics_enabled(false);
    m
}

fn counter(m: &RunMetrics, name: &str) -> u64 {
    m.get_counter(name).map_or(0, |c| c.value)
}

/// Counters that reflect algorithmic structure, not scheduling: the
/// assist executor claims the *same chunk table* through an atomic
/// cursor, so whichever thread runs a chunk, the per-chunk work — and
/// with it every one of these counters — is fixed by the input graph.
const DETERMINISTIC: [&str; 7] = [
    "pkc.levels",
    "pkc.waves",
    "pkc.frontier",
    "pkc.bucket_pushes",
    "pkc.bucket_skips",
    "phcd.union_phases",
    "phcd.uf.unions",
];

/// Chunk positions exercised by the fault matrix: first, middle, last.
fn chunk_positions(exec: &Executor) -> Vec<usize> {
    let p = exec.num_workers();
    let mut pos = vec![0, p / 2, p - 1];
    pos.dedup();
    pos
}

/// `phcd.uf.*` and `pkc.waves` (and the rest of the structural set)
/// agree with the sequential reference on every assist run, across
/// repeated runs with assisting threads live.
#[test]
fn assist_counters_are_deterministic_across_runs() {
    let g = rmat(10, 10, None, 55);
    let cores = core_decomposition(&g);
    let reference = metered(&Executor::sequential(), |e| {
        try_pkc_core_decomposition(&g, e).unwrap();
        try_phcd(&g, &cores, e).unwrap();
    });
    let exec = Executor::assist(4);
    for run in 0..3 {
        let m = metered(&exec, |e| {
            try_pkc_core_decomposition(&g, e).unwrap();
            try_phcd(&g, &cores, e).unwrap();
        });
        for name in DETERMINISTIC {
            assert_eq!(
                counter(&m, name),
                counter(&reference, name),
                "{name} diverged on assist run {run}"
            );
        }
        // Contention-dependent counters obey structural bounds.
        let unions = counter(&m, "phcd.uf.unions");
        let finds = counter(&m, "phcd.uf.finds");
        assert!(finds >= 2 * unions, "finds {finds} < 2 * unions {unions}");
        // Each successful union merges two components.
        assert!(
            unions < g.num_vertices() as u64,
            "unions {unions} >= n {}",
            g.num_vertices()
        );
        // The assist-specific counters appear only when nonzero (zero
        // deltas are elided, e.g. when the owner claimed every chunk
        // before a worker woke); when present they are monotone sums.
        for name in ["par.assist.steals", "par.assist.claim_cas_retries"] {
            if let Some(c) = m.get_counter(name) {
                assert_eq!(c.kind, "sum", "{name}");
                assert!(c.value > 0, "{name} recorded but zero");
            }
        }
    }
}

/// The assist pool and the simulated mode with the same worker count
/// walk the same chunk table, so every structural counter matches.
#[test]
fn assist_matches_simulated_mode_counter_for_counter() {
    let g = rmat(10, 10, None, 56);
    let cores = core_decomposition(&g);
    let sim = metered(&Executor::simulated(4), |e| {
        try_pkc_core_decomposition(&g, e).unwrap();
        try_phcd(&g, &cores, e).unwrap();
    });
    let m = metered(&Executor::assist(4), |e| {
        try_pkc_core_decomposition(&g, e).unwrap();
        try_phcd(&g, &cores, e).unwrap();
    });
    for name in DETERMINISTIC {
        assert_eq!(counter(&m, name), counter(&sim, name), "{name} diverged");
    }
}

/// Panic injected at the first/middle/last chunk of the first region:
/// first-failure-wins containment, the worker id in the error names the
/// faulted *chunk*, and the same executor reruns cleanly afterwards —
/// with assisting threads concurrently claiming the other chunks.
#[test]
fn assist_panic_matrix_first_middle_last() {
    let g = rmat(10, 8, None, 77);
    let cores = core_decomposition(&g);
    let reference = try_phcd(&g, &cores, &Executor::sequential())
        .unwrap()
        .canonicalize();
    let exec = Executor::assist(4);
    for chunk in chunk_positions(&exec) {
        exec.set_fault_plan(FaultPlan::new().inject(0, chunk, Fault::Panic));
        let err =
            try_phcd(&g, &cores, &exec).expect_err(&format!("panic in chunk {chunk} must surface"));
        match err {
            ParError::Panicked { worker, payload } => {
                assert_eq!(worker, chunk, "fault site keyed by chunk, not thread");
                assert!(payload.contains("injected fault"), "{payload}");
            }
            other => panic!("expected Panicked, got {other}"),
        }
        exec.clear_fault_plan();
        let h = try_phcd(&g, &cores, &exec)
            .unwrap_or_else(|e| panic!("clean rerun after chunk {chunk} failed: {e}"));
        assert_eq!(h.canonicalize(), reference, "chunk {chunk}");
    }
}

/// Cancellation tripped at the first/middle/last chunk aborts with the
/// typed error at a chunk boundary and leaves the pool reusable.
#[test]
fn assist_cancel_matrix_first_middle_last() {
    let g = rmat(10, 8, None, 78);
    let cores = core_decomposition(&g);
    let reference = try_phcd(&g, &cores, &Executor::sequential())
        .unwrap()
        .canonicalize();
    let exec = Executor::assist(4);
    for chunk in chunk_positions(&exec) {
        exec.set_fault_plan(FaultPlan::new().inject(0, chunk, Fault::Cancel));
        let err = try_phcd(&g, &cores, &exec)
            .expect_err(&format!("cancel in chunk {chunk} must surface"));
        assert!(matches!(err, ParError::Cancelled), "chunk {chunk}: {err}");
        exec.clear_fault_plan();
        let h = try_phcd(&g, &cores, &exec)
            .unwrap_or_else(|e| panic!("clean rerun after chunk {chunk} failed: {e}"));
        assert_eq!(h.canonicalize(), reference, "chunk {chunk}");
    }
}

/// An expired deadline is observed at the next chunk boundary in assist
/// mode (the claim loop polls before running each chunk); delays on
/// straggler chunks let assisting threads drain the rest first, which
/// must not change the outcome.
#[test]
fn assist_deadline_and_delay_behave_like_static_modes() {
    let g = rmat(10, 8, None, 79);
    let cores = core_decomposition(&g);
    let exec = Executor::assist(4);
    exec.set_deadline(Deadline::from_now(Duration::ZERO));
    let err = try_phcd(&g, &cores, &exec).expect_err("expired deadline must abort");
    assert!(matches!(err, ParError::DeadlineExceeded), "{err}");
    exec.clear_deadline();

    // A delayed first chunk forces the owner to straggle while workers
    // assist with the rest; the result must still be byte-identical.
    let reference = try_phcd(&g, &cores, &Executor::sequential())
        .unwrap()
        .canonicalize();
    exec.set_fault_plan(FaultPlan::new().inject(0, 0, Fault::Delay(2_000)));
    let h = try_phcd(&g, &cores, &exec).expect("delay is not a failure");
    assert_eq!(h.canonicalize(), reference);
    exec.clear_fault_plan();
}
