//! Kill-and-recover differential harness for the durability layer.
//!
//! For every [`CrashPoint`] × graph family (ER, BA, RMAT) × executor
//! mode, a durable [`HcdService`] is driven with deterministic update
//! batches until the scheduled crash fires, the "process" is dropped
//! mid-flight, and [`HcdService::recover`] rebuilds the directory. The
//! recovered snapshot must fingerprint bit-identically to the state at
//! the **last acknowledgement** — no acked batch lost, no unacked batch
//! resurrected — and the recovered service must keep serving and
//! accepting writes. Separate tests pin down the documented loss
//! windows of the relaxed fsync policies and survival of repeated
//! crash/recover cycles.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use hcd::prelude::*;
use rand::Rng;
use rand_chacha::ChaCha8Rng;

fn tempdir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let id = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("hcd-crash-{tag}-{}-{id}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn executors() -> Vec<Executor> {
    vec![
        Executor::sequential(),
        Executor::simulated(4),
        Executor::assist(4),
    ]
}

fn seed_graphs() -> Vec<(&'static str, CsrGraph)> {
    vec![
        ("er", gnp(48, 0.08, 0xE12)),
        ("ba", barabasi_albert(48, 3, 0xBA5)),
        ("rmat", rmat(5, 4, None, 0x12A7)),
    ]
}

fn random_updates(rng: &mut ChaCha8Rng, count: usize, universe: VertexId) -> Vec<EdgeUpdate> {
    (0..count)
        .map(|_| {
            let u = rng.gen_range(0..universe);
            let v = rng.gen_range(0..universe);
            if rng.gen_bool(0.65) {
                EdgeUpdate::Insert(u, v)
            } else {
                EdgeUpdate::Remove(u, v)
            }
        })
        .collect()
}

/// The tentpole matrix: every crash point, every family, every executor
/// mode. The oracle is the live service itself at its last ack — the
/// durability contract is that recovery reproduces exactly that state.
#[test]
fn every_crash_point_recovers_to_the_last_acknowledged_state() {
    let cfg = DurabilityConfig {
        fsync: FsyncPolicy::Always,
        checkpoint_every: 2,
    };
    for (family, g0) in seed_graphs() {
        for exec in executors() {
            for point in CrashPoint::ALL {
                let ctx = format!("{family}/{}/{}", exec.mode_name(), point.name());
                let dir = tempdir(point.name());
                let mut rng = <ChaCha8Rng as rand::SeedableRng>::seed_from_u64(
                    0xC0A5 ^ g0.num_edges() as u64,
                );
                let universe = g0.num_vertices() as VertexId + 6;
                let svc = HcdService::try_new_durable(&g0, &dir, cfg, &exec).unwrap();

                // A couple of clean batches first, so the crash lands in
                // the middle of a real history (and past the first
                // post-seed checkpoint at seq 2).
                let mut acked_seq = 0u64;
                let mut acked_fp = svc.snapshot().fingerprint();
                for _ in 0..2 {
                    let updates = random_updates(&mut rng, 8, universe);
                    let resp = svc.try_apply_batch(&updates, &exec).unwrap();
                    acked_seq = resp.value.seq;
                    acked_fp = svc.snapshot().fingerprint();
                }

                // Schedule the kill and drive batches until it fires.
                // Wal* points fail the batch (nothing acked); Ckpt*
                // points fire after the ack, so the batch still counts.
                exec.set_fault_plan(FaultPlan::new().crash(point, 0));
                let mut crashed = false;
                for _ in 0..4 {
                    let updates = random_updates(&mut rng, 8, universe);
                    match svc.try_apply_batch(&updates, &exec) {
                        Ok(resp) => {
                            acked_seq = resp.value.seq;
                            acked_fp = svc.snapshot().fingerprint();
                            if exec.crashes_fired() > 0 {
                                crashed = true;
                                break;
                            }
                        }
                        Err(e) => {
                            assert!(e.is_simulated_crash(), "{ctx}: organic failure: {e}");
                            crashed = true;
                            break;
                        }
                    }
                }
                assert!(crashed, "{ctx}: scheduled crash never fired");
                exec.clear_fault_plan();
                drop(svc); // the kill

                let (rec, report) = HcdService::recover(&dir, cfg, &exec)
                    .unwrap_or_else(|e| panic!("{ctx}: recovery refused: {e}"));
                assert_eq!(report.final_seq, acked_seq, "{ctx}: replayed seq");
                assert_eq!(rec.generation(), acked_seq, "{ctx}: generation");
                assert_eq!(
                    rec.snapshot().fingerprint(),
                    acked_fp,
                    "{ctx}: recovered state diverged from the last ack"
                );
                rec.snapshot()
                    .validate()
                    .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                // Only a mid-record kill leaves torn bytes on disk; every
                // other point dies at a frame boundary.
                assert_eq!(
                    report.tail_was_truncated(),
                    point == CrashPoint::WalMidRecord,
                    "{ctx}: tail {report:?}"
                );

                // The recovered service is a full service again: it
                // answers queries and acknowledges durable writes.
                let q = rec.try_query_batch(&[Query::InKCore(0, 1)], &exec).unwrap();
                assert_eq!(q.generation, acked_seq, "{ctx}");
                let resp = rec
                    .try_apply_batch(&random_updates(&mut rng, 4, universe), &exec)
                    .unwrap();
                assert_eq!(resp.generation, acked_seq + 1, "{ctx}: epochs continue");
                assert_eq!(resp.value.seq, acked_seq + 1, "{ctx}: seqs continue");

                std::fs::remove_dir_all(&dir).ok();
            }
        }
    }
}

/// `FsyncPolicy::Every(n)` trades durability for throughput with a
/// *bounded* loss window: a page-cache-losing crash forfeits at most
/// the unsynced suffix, and recovery lands exactly on the last synced
/// record — never on a torn or partial state.
#[test]
fn relaxed_fsync_loses_exactly_the_unsynced_window() {
    let exec = Executor::sequential();
    let g0 = gnp(40, 0.09, 0x57AC);
    let universe = g0.num_vertices() as VertexId + 4;
    let cfg = DurabilityConfig {
        fsync: FsyncPolicy::Every(3),
        checkpoint_every: 0, // recovery must lean on the WAL alone
    };
    let dir = tempdir("every3");
    let mut rng = <ChaCha8Rng as rand::SeedableRng>::seed_from_u64(0xD1CE);
    let svc = HcdService::try_new_durable(&g0, &dir, cfg, &exec).unwrap();
    // Fingerprint after every ack: fps[seq] is the oracle for a
    // recovery that lands on `seq`.
    let mut fps = vec![svc.snapshot().fingerprint()];
    for _ in 0..5 {
        let updates = random_updates(&mut rng, 6, universe);
        svc.try_apply_batch(&updates, &exec).unwrap();
        fps.push(svc.snapshot().fingerprint());
    }
    // Appends 1-3 were fsynced as a group; 4 and 5 live in the page
    // cache. The crash on append 6 loses the cache with the process.
    exec.set_fault_plan(FaultPlan::new().crash(CrashPoint::WalPreFsync, 0));
    let err = svc
        .try_apply_batch(&random_updates(&mut rng, 6, universe), &exec)
        .unwrap_err();
    assert!(err.is_simulated_crash(), "{err}");
    exec.clear_fault_plan();
    drop(svc);

    let (rec, report) = HcdService::recover(&dir, cfg, &exec).unwrap();
    assert_eq!(report.final_seq, 3, "exactly the synced prefix survives");
    assert_eq!(report.replayed, 3);
    assert!(
        !report.tail_was_truncated(),
        "sync loss is not a torn write"
    );
    assert_eq!(rec.snapshot().fingerprint(), fps[3]);
    std::fs::remove_dir_all(&dir).ok();
}

/// `FsyncPolicy::Never` is only as durable as the checkpoint cadence:
/// page-cache loss rolls the log back to empty, and recovery lands on
/// the newest checkpoint.
#[test]
fn never_fsync_falls_back_to_the_newest_checkpoint() {
    let exec = Executor::sequential();
    let g0 = barabasi_albert(40, 3, 0xFADE);
    let universe = g0.num_vertices() as VertexId + 4;
    let cfg = DurabilityConfig {
        fsync: FsyncPolicy::Never,
        checkpoint_every: 2,
    };
    let dir = tempdir("never");
    let mut rng = <ChaCha8Rng as rand::SeedableRng>::seed_from_u64(0xBEEF);
    let svc = HcdService::try_new_durable(&g0, &dir, cfg, &exec).unwrap();
    let mut fps = vec![svc.snapshot().fingerprint()];
    for _ in 0..5 {
        let updates = random_updates(&mut rng, 6, universe);
        svc.try_apply_batch(&updates, &exec).unwrap();
        fps.push(svc.snapshot().fingerprint());
    }
    exec.set_fault_plan(FaultPlan::new().crash(CrashPoint::WalPreFsync, 0));
    svc.try_apply_batch(&random_updates(&mut rng, 6, universe), &exec)
        .unwrap_err();
    exec.clear_fault_plan();
    drop(svc);

    let (rec, report) = HcdService::recover(&dir, cfg, &exec).unwrap();
    // Checkpoints landed at seqs 2 and 4; the unsynced log evaporated.
    assert_eq!(report.checkpoint_seq, 4);
    assert_eq!(report.final_seq, 4);
    assert_eq!(report.replayed, 0, "nothing survived in the log");
    assert_eq!(rec.snapshot().fingerprint(), fps[4]);
    std::fs::remove_dir_all(&dir).ok();
}

/// Regression: checkpoint cadence after a recovery whose restored
/// checkpoint is *newer* than the replayed WAL tail (the Never-fsync
/// shape: the unsynced log evaporated, so replay adds nothing on top of
/// the checkpoint). The due-checkpoint comparison in `try_apply_batch`
/// is `report.seq - last_checkpoint_seq`; it must use saturating
/// arithmetic so a checkpoint sequence running ahead of the live
/// sequence can never underflow into a panic (debug) or a
/// wraparound-always-due (release), and the cadence must resume
/// relative to the restored checkpoint.
#[test]
fn recovery_with_checkpoint_ahead_of_the_wal_keeps_checkpoint_cadence() {
    let exec = Executor::sequential();
    let g0 = gnp(36, 0.09, 0xCAFE);
    let universe = g0.num_vertices() as VertexId + 4;
    let cfg = DurabilityConfig {
        fsync: FsyncPolicy::Never,
        checkpoint_every: 2,
    };
    let dir = tempdir("ckpt-ahead");
    let mut rng = <ChaCha8Rng as rand::SeedableRng>::seed_from_u64(0xAB1E);
    let svc = HcdService::try_new_durable(&g0, &dir, cfg, &exec).unwrap();
    for _ in 0..4 {
        svc.try_apply_batch(&random_updates(&mut rng, 6, universe), &exec)
            .unwrap();
    }
    // Page-cache loss: checkpoints at seqs 2 and 4 survive, the log
    // does not — recovery restores checkpoint 4 and replays nothing.
    exec.set_fault_plan(FaultPlan::new().crash(CrashPoint::WalPreFsync, 0));
    svc.try_apply_batch(&random_updates(&mut rng, 6, universe), &exec)
        .unwrap_err();
    exec.clear_fault_plan();
    drop(svc);

    let (rec, report) = HcdService::recover(&dir, cfg, &exec).unwrap();
    assert_eq!(report.checkpoint_seq, 4);
    assert_eq!(report.replayed, 0, "the WAL tail is behind the checkpoint");

    // Writes resume at seq 5 with the checkpoint marker at 4: the next
    // checkpoint is due at seq 6, not before (over-eager) and not never
    // (underflow). Two batches must complete without a panic and leave
    // exactly the seq-6 checkpoint behind.
    for expect_seq in 5..=6u64 {
        let resp = rec
            .try_apply_batch(&random_updates(&mut rng, 6, universe), &exec)
            .unwrap();
        assert_eq!(resp.value.seq, expect_seq);
    }
    assert!(
        !dir.join(hcd::serve::checkpoint::checkpoint_file_name(5))
            .exists(),
        "checkpoint written a batch early"
    );
    assert!(
        dir.join(hcd::serve::checkpoint::checkpoint_file_name(6))
            .exists(),
        "checkpoint cadence did not resume"
    );
    rec.snapshot().validate().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// A service can crash, recover, serve, and crash again — repeatedly.
/// Each recovery truncates the previous torn tail for real, resumes the
/// epoch numbering, and reproduces the acked state of its own run.
#[test]
fn repeated_crash_recover_cycles_accumulate_state_correctly() {
    let exec = Executor::sequential();
    let g0 = gnp(36, 0.1, 0xCC1E);
    let universe = g0.num_vertices() as VertexId + 4;
    let cfg = DurabilityConfig {
        fsync: FsyncPolicy::Always,
        checkpoint_every: 3,
    };
    let dir = tempdir("cycles");
    let mut rng = <ChaCha8Rng as rand::SeedableRng>::seed_from_u64(0x9999);
    let mut svc = HcdService::try_new_durable(&g0, &dir, cfg, &exec).unwrap();
    let mut acked_seq = 0u64;
    let mut acked_fp = svc.snapshot().fingerprint();

    for cycle in 0..3 {
        // A few acknowledged batches...
        for _ in 0..3 {
            let updates = random_updates(&mut rng, 6, universe);
            let resp = svc.try_apply_batch(&updates, &exec).unwrap();
            acked_seq = resp.value.seq;
            acked_fp = svc.snapshot().fingerprint();
        }
        // ...then a kill in the middle of the next record.
        exec.set_fault_plan(FaultPlan::new().crash(CrashPoint::WalMidRecord, 0));
        let err = svc
            .try_apply_batch(&random_updates(&mut rng, 6, universe), &exec)
            .unwrap_err();
        assert!(err.is_simulated_crash(), "cycle {cycle}: {err}");
        exec.clear_fault_plan();
        drop(svc);

        let (rec, report) =
            HcdService::recover(&dir, cfg, &exec).unwrap_or_else(|e| panic!("cycle {cycle}: {e}"));
        assert!(report.tail_was_truncated(), "cycle {cycle}");
        assert_eq!(report.final_seq, acked_seq, "cycle {cycle}");
        assert_eq!(rec.snapshot().fingerprint(), acked_fp, "cycle {cycle}");
        svc = rec;
    }
    assert_eq!(acked_seq, 9, "three cycles of three acked batches");
    std::fs::remove_dir_all(&dir).ok();
}

/// Doctored directories: recovery trusts checksums, not file names.
/// A damaged newest checkpoint falls back to an older one plus a longer
/// replay; a flipped byte mid-log is refused outright (serving wrong
/// answers is worse than refusing); both leave the acked state
/// reproducible or the failure explicit — never silently wrong.
#[test]
fn doctored_directories_fall_back_or_refuse_explicitly() {
    let exec = Executor::sequential();
    let g0 = gnp(36, 0.1, 0xD0C7);
    let universe = g0.num_vertices() as VertexId + 4;
    let cfg = DurabilityConfig {
        fsync: FsyncPolicy::Always,
        checkpoint_every: 2,
    };

    // Damaged newest checkpoint: older checkpoint + replay reproduce
    // the exact acked state anyway.
    let dir = tempdir("doctor-ckpt");
    let mut rng = <ChaCha8Rng as rand::SeedableRng>::seed_from_u64(0x7777);
    let svc = HcdService::try_new_durable(&g0, &dir, cfg, &exec).unwrap();
    for _ in 0..4 {
        svc.try_apply_batch(&random_updates(&mut rng, 6, universe), &exec)
            .unwrap();
    }
    let acked_fp = svc.snapshot().fingerprint();
    drop(svc);
    let newest = hcd::serve::checkpoint::checkpoint_file_name(4);
    let path = dir.join(&newest);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x08;
    std::fs::write(&path, &bytes).unwrap();
    let (rec, report) = HcdService::recover(&dir, cfg, &exec).unwrap();
    assert_eq!(report.checkpoints_skipped, 1);
    assert_eq!(report.checkpoint_seq, 2, "fell back one checkpoint");
    assert_eq!(report.replayed, 2, "longer replay closes the gap");
    assert_eq!(rec.snapshot().fingerprint(), acked_fp);
    drop(rec);
    std::fs::remove_dir_all(&dir).ok();

    // Flipped byte mid-log: a hard, explicit refusal.
    let dir = tempdir("doctor-wal");
    let svc = HcdService::try_new_durable(&g0, &dir, cfg, &exec).unwrap();
    for _ in 0..3 {
        svc.try_apply_batch(&random_updates(&mut rng, 6, universe), &exec)
            .unwrap();
    }
    drop(svc);
    let wal_path = dir.join(WAL_FILE_NAME);
    let mut bytes = std::fs::read(&wal_path).unwrap();
    bytes[9] ^= 0x04; // payload byte of the first record
    std::fs::write(&wal_path, &bytes).unwrap();
    let err = HcdService::recover(&dir, cfg, &exec).unwrap_err();
    assert!(
        matches!(err, RecoverError::CorruptWal { offset: 0, .. }),
        "{err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
