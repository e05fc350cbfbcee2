//! Stress tests under real threads: repeated parallel runs must stay
//! correct and agree with sequential ground truth even when the OS
//! interleaves workers adversarially — and fail *cleanly* when faults
//! are injected into arbitrary chunks. The oversubscription tests run
//! more assist workers than the machine has cores and assert that pool
//! workers really stole chunks (`par.assist.steals > 0`), so the
//! interleavings they exercise are genuinely multi-threaded.

use hcd::prelude::*;

#[test]
fn repeated_parallel_phcd_runs_on_adversarial_graph() {
    // A graph engineered for pivot contention: one giant component whose
    // pivot changes at every level, plus hub vertices shared by many
    // shells.
    let mut b = GraphBuilder::new();
    // Hub star.
    for i in 1..400u32 {
        b = b.edge(0, i);
    }
    // Nested near-cliques hanging off the hub.
    for c in 0..8u32 {
        let base = 400 + c * 30;
        for i in 0..30u32 {
            for j in (i + 1)..30u32.min(i + 4 + c) {
                b = b.edge(base + i, base + j % 30);
            }
        }
        b = b.edge(base, c + 1);
    }
    let g = b.build();
    let cores = core_decomposition(&g);
    let truth = naive_hcd(&g, &cores).canonicalize();
    let mut steals = 0;
    for round in 0..10 {
        let exec = Executor::assist(8);
        let m = metered(&exec, |e| {
            let h = phcd(&g, &cores, e);
            assert_eq!(h.canonicalize(), truth, "round {round}");
        });
        steals += counter(&m, "par.assist.steals");
    }
    assert!(steals > 0, "no chunk ran off the owner thread");
}

#[test]
fn pkc_under_heavy_thread_oversubscription() {
    let g = rmat(11, 10, None, 77);
    let expected = core_decomposition(&g);
    let mut steals = 0;
    for threads in [2, 8, 16] {
        let exec = Executor::assist(threads);
        for _ in 0..3 {
            let m = metered(&exec, |e| {
                assert_eq!(pkc_core_decomposition(&g, e), expected);
            });
            steals += counter(&m, "par.assist.steals");
        }
    }
    assert!(steals > 0, "no chunk ran off the owner thread");
}

#[test]
fn concurrent_search_is_stable_under_oversubscription() {
    let g = rmat(10, 12, None, 5);
    let cores = core_decomposition(&g);
    let hcd = phcd(&g, &cores, &Executor::sequential());
    let ctx = SearchContext::new(&g, &cores, &hcd);
    let reference = pbks_scores(
        &ctx,
        &Metric::ClusteringCoefficient,
        &Executor::sequential(),
    );
    let mut steals = 0;
    for _ in 0..5 {
        let exec = Executor::assist(16);
        let m = metered(&exec, |e| {
            let got = pbks_scores(&ctx, &Metric::ClusteringCoefficient, e);
            assert_eq!(got.1, reference.1);
        });
        steals += counter(&m, "par.assist.steals");
    }
    assert!(steals > 0, "no chunk ran off the owner thread");
}

// --- fault-injection matrix ------------------------------------------
//
// Every cell of (algorithm × executor mode × faulted chunk position)
// must (1) fail with a clean typed error, never a process abort or a
// hang, and (2) leave the executor reusable: clearing the plan and
// rerunning on the *same* executor must reproduce the fault-free
// reference result. This is the "no poisoned shared state" acceptance
// criterion of the failure model.

/// The executor modes, with enough workers that the first region of
/// every algorithm has non-empty first/middle/last chunks.
fn fault_modes() -> Vec<(&'static str, Executor)> {
    vec![
        ("seq", Executor::sequential()),
        ("sim", Executor::simulated(4)),
        ("assist", Executor::assist(4)),
    ]
}

/// First/middle/last chunk indices of a region on `exec` (deduplicated,
/// so sequential mode tests the single chunk once).
fn chunk_positions(exec: &Executor) -> Vec<usize> {
    let p = exec.num_workers();
    let mut pos = vec![0, p / 2, p - 1];
    pos.dedup();
    pos
}

#[test]
fn injected_panic_matrix_phcd() {
    let g = rmat(11, 10, None, 77);
    let cores = core_decomposition(&g);
    let reference = phcd(&g, &cores, &Executor::sequential()).canonicalize();
    for (mode, exec) in fault_modes() {
        for chunk in chunk_positions(&exec) {
            exec.set_fault_plan(FaultPlan::new().inject(0, chunk, Fault::Panic));
            let err = try_phcd(&g, &cores, &exec)
                .expect_err(&format!("{mode}: panic in chunk {chunk} must surface"));
            match err {
                ParError::Panicked { worker, payload } => {
                    assert_eq!(worker, chunk, "{mode}");
                    assert!(payload.contains("injected fault"), "{mode}: {payload}");
                }
                other => panic!("{mode}: expected Panicked, got {other}"),
            }
            // Same executor, fault cleared: the rerun must be clean and
            // byte-identical to the reference hierarchy.
            exec.clear_fault_plan();
            let h = try_phcd(&g, &cores, &exec)
                .unwrap_or_else(|e| panic!("{mode}: clean rerun failed: {e}"));
            assert_eq!(h.canonicalize(), reference, "{mode} chunk {chunk}");
        }
    }
}

#[test]
fn injected_panic_matrix_pkc() {
    let g = rmat(11, 10, None, 78);
    let reference = core_decomposition(&g);
    for (mode, exec) in fault_modes() {
        for chunk in chunk_positions(&exec) {
            exec.set_fault_plan(FaultPlan::new().inject(0, chunk, Fault::Panic));
            let err = try_pkc_core_decomposition(&g, &exec)
                .expect_err(&format!("{mode}: panic in chunk {chunk} must surface"));
            assert!(
                matches!(err, ParError::Panicked { .. }),
                "{mode}: expected Panicked, got {err}"
            );
            exec.clear_fault_plan();
            let got = try_pkc_core_decomposition(&g, &exec)
                .unwrap_or_else(|e| panic!("{mode}: clean rerun failed: {e}"));
            assert_eq!(got, reference, "{mode} chunk {chunk}");
        }
    }
}

#[test]
fn injected_panic_matrix_pbks() {
    let g = rmat(10, 12, None, 5);
    let cores = core_decomposition(&g);
    let hcd = phcd(&g, &cores, &Executor::sequential());
    let ctx = SearchContext::new(&g, &cores, &hcd);
    let metric = Metric::ClusteringCoefficient; // type-B: exercises the triangle pass
    let reference = pbks_scores(&ctx, &metric, &Executor::sequential());
    for (mode, exec) in fault_modes() {
        for chunk in chunk_positions(&exec) {
            exec.set_fault_plan(FaultPlan::new().inject(0, chunk, Fault::Panic));
            let err = try_pbks_scores(&ctx, &metric, &exec)
                .expect_err(&format!("{mode}: panic in chunk {chunk} must surface"));
            assert!(
                matches!(err, ParError::Panicked { .. }),
                "{mode}: expected Panicked, got {err}"
            );
            exec.clear_fault_plan();
            let got = try_pbks_scores(&ctx, &metric, &exec)
                .unwrap_or_else(|e| panic!("{mode}: clean rerun failed: {e}"));
            assert_eq!(got.1, reference.1, "{mode} chunk {chunk}");
        }
    }
}

/// One matrix cell: a fault to inject and the error shape it must surface as.
type AbortCase = (&'static str, Fault, fn(&ParError) -> bool);

/// The two injectable aborts every matrix cell is swept with: a worker
/// panic and an external cancellation landing mid-region.
fn abort_faults() -> [AbortCase; 2] {
    [
        ("panic", Fault::Panic, |e| {
            matches!(e, ParError::Panicked { .. })
        }),
        ("cancel", Fault::Cancel, |e| {
            matches!(e, ParError::Cancelled)
        }),
    ]
}

#[test]
fn injected_fault_matrix_bestk() {
    let g = rmat(10, 12, None, 5);
    let cores = core_decomposition(&g);
    let hcd = phcd(&g, &cores, &Executor::sequential());
    let ctx = SearchContext::new(&g, &cores, &hcd);
    let metric = Metric::ClusteringCoefficient; // type-B: triangle pass
    let reference = best_k(&ctx, &metric, &Executor::sequential());
    for (mode, exec) in fault_modes() {
        for chunk in chunk_positions(&exec) {
            for (what, fault, is_expected) in abort_faults() {
                exec.set_fault_plan(FaultPlan::new().inject(0, chunk, fault));
                let err = try_best_k(&ctx, &metric, &exec)
                    .expect_err(&format!("{mode}: {what} in chunk {chunk} must surface"));
                assert!(is_expected(&err), "{mode}: {what}, got {err}");
                exec.clear_fault_plan();
                let got = try_best_k(&ctx, &metric, &exec)
                    .unwrap_or_else(|e| panic!("{mode}: clean rerun failed: {e}"));
                assert_eq!(got, reference, "{mode} {what} chunk {chunk}");
            }
        }
    }
}

#[test]
fn injected_fault_matrix_influence() {
    let g = rmat(10, 10, None, 42);
    let cores = core_decomposition(&g);
    let hcd = phcd(&g, &cores, &Executor::sequential());
    let ctx = SearchContext::new(&g, &cores, &hcd);
    let weights: Vec<f64> = (0..g.num_vertices()).map(|v| (v % 97) as f64).collect();
    let reference: Vec<f64> = {
        let idx = InfluenceIndex::build(&ctx, &weights, &Executor::sequential());
        (0..hcd.num_nodes() as u32)
            .map(|i| idx.influence(i))
            .collect()
    };
    for (mode, exec) in fault_modes() {
        for chunk in chunk_positions(&exec) {
            for (what, fault, is_expected) in abort_faults() {
                exec.set_fault_plan(FaultPlan::new().inject(0, chunk, fault));
                let err = InfluenceIndex::try_build(&ctx, &weights, &exec)
                    .map(|_| ())
                    .expect_err(&format!("{mode}: {what} in chunk {chunk} must surface"));
                assert!(is_expected(&err), "{mode}: {what}, got {err}");
                exec.clear_fault_plan();
                let idx = InfluenceIndex::try_build(&ctx, &weights, &exec)
                    .unwrap_or_else(|e| panic!("{mode}: clean rerun failed: {e}"));
                let got: Vec<f64> = (0..hcd.num_nodes() as u32)
                    .map(|i| idx.influence(i))
                    .collect();
                assert_eq!(got, reference, "{mode} {what} chunk {chunk}");
            }
        }
    }
}

#[test]
fn injected_fault_matrix_hindex() {
    let g = rmat(11, 10, None, 78);
    let reference = core_decomposition(&g);
    for (mode, exec) in fault_modes() {
        for chunk in chunk_positions(&exec) {
            for (what, fault, is_expected) in abort_faults() {
                exec.set_fault_plan(FaultPlan::new().inject(0, chunk, fault));
                let err = try_hindex_core_decomposition(&g, &exec)
                    .expect_err(&format!("{mode}: {what} in chunk {chunk} must surface"));
                assert!(is_expected(&err), "{mode}: {what}, got {err}");
                exec.clear_fault_plan();
                let got = try_hindex_core_decomposition(&g, &exec)
                    .unwrap_or_else(|e| panic!("{mode}: clean rerun failed: {e}"));
                assert_eq!(got, reference, "{mode} {what} chunk {chunk}");
            }
        }
    }
}

#[test]
fn injected_fault_matrix_phtd() {
    let g = rmat(9, 10, None, 31);
    let (idx, td) = truss_decomposition(&g);
    let reference = phtd(&g, &idx, &td, &Executor::sequential()).canonicalize();
    for (mode, exec) in fault_modes() {
        for chunk in chunk_positions(&exec) {
            for (what, fault, is_expected) in abort_faults() {
                exec.set_fault_plan(FaultPlan::new().inject(0, chunk, fault));
                let err = try_phtd(&g, &idx, &td, &exec)
                    .map(|_| ())
                    .expect_err(&format!("{mode}: {what} in chunk {chunk} must surface"));
                assert!(is_expected(&err), "{mode}: {what}, got {err}");
                exec.clear_fault_plan();
                let h = try_phtd(&g, &idx, &td, &exec)
                    .unwrap_or_else(|e| panic!("{mode}: clean rerun failed: {e}"));
                assert_eq!(h.canonicalize(), reference, "{mode} {what} chunk {chunk}");
            }
        }
    }
}

#[test]
fn panics_in_later_regions_are_contained_too() {
    // Region 0 is the easy case; sweep panics across the first dozen
    // regions of the PHCD pipeline to catch any step that forgets to
    // propagate failure.
    let g = rmat(10, 10, None, 9);
    let cores = core_decomposition(&g);
    let reference = phcd(&g, &cores, &Executor::sequential()).canonicalize();
    let exec = Executor::assist(4);
    for region in 0..12 {
        exec.set_fault_plan(FaultPlan::new().inject(region, 1, Fault::Panic));
        match try_phcd(&g, &cores, &exec) {
            // Regions past the end of the pipeline (or whose chunk 1 is
            // empty) never hit the fault site; those runs must be clean.
            Ok(h) => assert_eq!(h.canonicalize(), reference, "region {region}"),
            Err(ParError::Panicked { payload, .. }) => {
                assert!(payload.contains("injected fault"), "region {region}")
            }
            Err(other) => panic!("region {region}: unexpected {other}"),
        }
    }
    exec.clear_fault_plan();
    let h = try_phcd(&g, &cores, &exec).expect("executor reusable after sweep");
    assert_eq!(h.canonicalize(), reference);
}

#[test]
fn injected_delays_never_change_results() {
    // Delays reorder chunk completion adversarially but must not alter
    // any output: determinism comes from chunk ownership, not timing.
    let g = rmat(10, 10, None, 13);
    let cores = core_decomposition(&g);
    let reference = phcd(&g, &cores, &Executor::sequential()).canonicalize();
    let exec = Executor::assist(4);
    for seed in 0..4u64 {
        // Deterministic per-seed delay pattern over the first 16 regions:
        // each (region, chunk) site sleeps 0–700µs, skewed by the seed so
        // different seeds produce different completion orders.
        let mut plan = FaultPlan::new();
        for region in 0..16usize {
            for chunk in 0..4usize {
                let us = (seed * 251 + (region as u64) * 37 + (chunk as u64) * 113) % 701;
                plan = plan.inject(region, chunk, Fault::Delay(us));
            }
        }
        exec.set_fault_plan(plan);
        let h = try_phcd(&g, &cores, &exec)
            .unwrap_or_else(|e| panic!("seed {seed}: delays must be benign: {e}"));
        assert_eq!(h.canonicalize(), reference, "seed {seed}");
    }
}

#[test]
fn cancellation_and_deadline_abort_cleanly_in_all_modes() {
    let g = rmat(11, 10, None, 21);
    let cores = core_decomposition(&g);
    for (mode, exec) in fault_modes() {
        // Pre-cancelled token: the very first chunk boundary observes it.
        let token = CancelToken::new();
        token.cancel();
        exec.set_cancel(token);
        assert!(
            matches!(try_phcd(&g, &cores, &exec), Err(ParError::Cancelled)),
            "{mode}: cancel"
        );
        exec.clear_cancel();

        // Already-expired deadline.
        exec.set_deadline(Deadline::from_now(std::time::Duration::ZERO));
        assert!(
            matches!(
                try_pkc_core_decomposition(&g, &exec),
                Err(ParError::DeadlineExceeded)
            ),
            "{mode}: deadline"
        );
        exec.clear_deadline();

        // Both cleared: the same executor finishes a clean run.
        let h = try_phcd(&g, &cores, &exec)
            .unwrap_or_else(|e| panic!("{mode}: rerun after abort failed: {e}"));
        assert_eq!(
            h.num_nodes(),
            phcd(&g, &cores, &Executor::sequential()).num_nodes()
        );
    }
}

// --- algorithm-counter coherence -------------------------------------
//
// The typed counters threaded through the executor must be *coherent*:
// counters that reflect algorithmic structure (peeling rounds, shell
// phases, successful merges) are deterministic and must agree across
// executor modes and thread interleavings, while contention-dependent
// counters (find hops, CAS retries) must still satisfy their structural
// inequalities. Aborted runs must never report more of a deterministic
// counter than a clean run — the fault cuts work short, it does not
// invent any.

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

#[test]
fn deterministic_counters_agree_across_modes() {
    let g = rmat(10, 10, None, 55);
    let cores = core_decomposition(&g);
    let reference = metered(&Executor::sequential(), |e| {
        pkc_core_decomposition(&g, e);
        phcd(&g, &cores, e);
    });
    for exec in [Executor::simulated(4), Executor::assist(4)] {
        let m = metered(&exec, |e| {
            pkc_core_decomposition(&g, e);
            phcd(&g, &cores, e);
        });
        // Structure-valued counters are mode-independent: peeling rounds
        // and wave count come from the degree sequence, the frontier
        // high-water mark from the wave partition, shell phases from the
        // coreness histogram, and successful union count from the
        // component structure (one link CAS wins per merge). The bucket
        // counters are structural too: CAS decrements serialize, so each
        // intermediate degree value is observed by exactly one decrement
        // regardless of interleaving, fixing the push/skip multiset. And
        // batch_staged counts edge scans, which the shell structure
        // determines.
        for name in [
            "pkc.levels",
            "pkc.waves",
            "pkc.frontier",
            "pkc.bucket_pushes",
            "pkc.bucket_skips",
            "phcd.union_phases",
            "phcd.uf.unions",
            "phcd.uf.batch_staged",
        ] {
            assert_eq!(
                counter(&m, name),
                counter(&reference, name),
                "{name} in mode {}",
                exec.mode_name()
            );
        }
        // Contention-dependent counters obey structural bounds instead:
        // every union attempt performs two finds, so finds >= 2 * the
        // successful-union count, and hop/retry counts are only defined
        // to be finite and recorded.
        let unions = counter(&m, "phcd.uf.unions");
        let finds = counter(&m, "phcd.uf.finds");
        assert!(
            finds >= 2 * unions,
            "finds {finds} < 2 * unions {unions} in mode {}",
            exec.mode_name()
        );
        // batch_flushed depends on how the shell scan is chunked (one
        // worker coalesces across the whole shell, four coalesce per
        // quarter), so it is only bounded: every forwarded edge was
        // staged, and every successful global merge came through a flush.
        let staged = counter(&m, "phcd.uf.batch_staged");
        let flushed = counter(&m, "phcd.uf.batch_flushed");
        assert!(
            unions <= flushed && flushed <= staged,
            "expected unions {unions} <= flushed {flushed} <= staged {staged} in mode {}",
            exec.mode_name()
        );
    }
}

#[test]
fn counters_under_fault_matrix_never_exceed_clean_run() {
    let g = rmat(10, 10, None, 56);
    let cores = core_decomposition(&g);
    let clean = metered(&Executor::sequential(), |e| {
        phcd(&g, &cores, e);
    });
    for (mode, exec) in fault_modes() {
        for chunk in chunk_positions(&exec) {
            for region in [0usize, 3, 6] {
                exec.set_metrics_enabled(true);
                exec.set_fault_plan(FaultPlan::new().inject(region, chunk, Fault::Panic));
                let result = try_phcd(&g, &cores, &exec);
                exec.clear_fault_plan();
                let aborted = exec.take_metrics();
                exec.set_metrics_enabled(false);
                // The aborted snapshot must still serialize and parse
                // (the CLI writes it even on failure) ...
                let parsed = Snapshot::parse(&aborted.to_json())
                    .unwrap_or_else(|e| panic!("{mode}: aborted snapshot invalid: {e}"));
                assert_eq!(parsed.regions.len(), aborted.regions.len());
                // ... and deterministic counters are monotone in work
                // done: a run cut short reports at most the clean value.
                // (A late-region fault may still miss the fault site and
                // succeed; equality is then required.)
                for name in ["phcd.union_phases", "phcd.uf.unions"] {
                    let a = counter(&aborted, name);
                    let c = counter(&clean, name);
                    if result.is_ok() {
                        assert_eq!(a, c, "{mode} r{region} c{chunk}: {name}");
                    } else {
                        assert!(a <= c, "{mode} r{region} c{chunk}: {name} {a} > clean {c}");
                    }
                }
            }
        }
    }
}

#[test]
fn injected_cancel_fault_trips_shared_token() {
    // Fault::Cancel models an external cancellation landing mid-region:
    // the shared token must end up tripped so the caller can observe it.
    let g = rmat(10, 10, None, 34);
    let cores = core_decomposition(&g);
    let exec = Executor::assist(4);
    let token = CancelToken::new();
    exec.set_cancel(token.clone());
    exec.set_fault_plan(FaultPlan::new().inject(0, 0, Fault::Cancel));
    assert!(matches!(
        try_phcd(&g, &cores, &exec),
        Err(ParError::Cancelled)
    ));
    assert!(token.is_cancelled(), "shared token must be tripped");
    exec.clear_cancel();
    exec.clear_fault_plan();
    assert!(try_phcd(&g, &cores, &exec).is_ok());
}
