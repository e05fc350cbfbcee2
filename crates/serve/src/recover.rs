//! Crash recovery: newest valid checkpoint + WAL suffix replay.
//!
//! [`HcdService::recover`] rebuilds a serving state from a durability
//! directory:
//!
//! 1. load the newest checkpoint that passes its checksum (falling back
//!    to older ones when a newer file is damaged);
//! 2. scan the WAL — a torn tail (the kill-mid-write shape) is
//!    truncated away with a warning in the report, while mid-log
//!    corruption (a complete frame failing its checksum) is a hard
//!    error: that is damage, not a crash artifact, and guessing would
//!    risk serving wrong answers;
//! 3. check that the records with `seq` greater than the checkpoint's
//!    form the contiguous suffix the ack protocol guarantees, and merge
//!    them into the checkpoint graph as one batch, their updates
//!    concatenated in log order ([`DynamicGraph::apply`]). This is
//!    exact: a batch replays each pair's updates in order from the
//!    pair's presence before the batch, so every update is applied or
//!    skipped as it was record by record, and the vertex set grows the
//!    same way;
//! 4. build the snapshot of the merged graph at generation `final_seq`
//!    the way [`HcdService::try_new`] builds a fresh one
//!    ([`Snapshot::try_build`]: one peel and one PHCD on the caller's
//!    executor, so its deadline, cancel token, fault plan and metrics
//!    govern them), hand its graph and coreness to the writer, and
//!    publish it with the WAL reopened for appending where the
//!    pre-crash log left off.
//!
//! Because a batch is acknowledged only after its WAL record is fsynced
//! (under [`FsyncPolicy::Always`](crate::wal::FsyncPolicy)), the
//! recovered state is bit-identical — same graph, same coreness, same
//! canonical hierarchy — to the state at the last acknowledgement, as
//! the kill-and-recover harness asserts via
//! [`Snapshot::fingerprint`](crate::Snapshot::fingerprint).

use std::path::{Path, PathBuf};
use std::sync::Arc;

use hcd_dynamic::{DynamicCore, DynamicGraph};
use hcd_par::{Executor, ParError};

use crate::checkpoint::load_newest_valid;
use crate::service::{DurabilityConfig, Durable, HcdService};
use crate::snapshot::Snapshot;
use crate::wal::{scan_wal_file, TailStatus, WalWriter, WAL_FILE_NAME};

/// What a recovery did, for logging and for the CLI's exit-code policy
/// (recovered-but-truncated is a warning, not a failure).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Sequence number of the checkpoint recovery started from.
    pub checkpoint_seq: u64,
    /// Newer checkpoint files skipped because they failed validation.
    pub checkpoints_skipped: usize,
    /// Valid records found in the log (including ones at or below the
    /// checkpoint, which need no replay).
    pub wal_records: usize,
    /// Records actually replayed (sequence above the checkpoint's).
    pub replayed: usize,
    /// Batch sequence number of the recovered state; also its published
    /// generation.
    pub final_seq: u64,
    /// Bytes of torn tail truncated from the log (0 for a clean log).
    pub truncated_bytes: u64,
    /// Total WAL bytes the recovery scan read (valid frames plus any
    /// torn tail it classified).
    pub bytes_scanned: u64,
    /// Wall-clock time of the whole recovery (checkpoint load + scan +
    /// replay + rebuild + publish), in nanoseconds.
    pub wall_ns: u64,
}

impl RecoveryReport {
    /// Whether the log ended in a torn record that recovery cut away —
    /// expected after a mid-write kill, worth surfacing, not an error.
    pub fn tail_was_truncated(&self) -> bool {
        self.truncated_bytes > 0
    }
}

/// Why recovery refused a durability directory.
#[derive(Debug)]
pub enum RecoverError {
    /// No checkpoint file in the directory passed validation.
    NoCheckpoint(PathBuf),
    /// A complete WAL frame failed its checksum or decoded to garbage
    /// mid-log: corruption, not a torn write. Nothing is replayed.
    CorruptWal {
        /// Offset of the offending frame.
        offset: u64,
        /// Scanner's classification.
        reason: String,
    },
    /// Replayable records did not form a contiguous sequence — some
    /// acknowledged batch is missing from the log.
    SequenceGap {
        /// The sequence number replay needed next.
        expected: u64,
        /// The sequence number the log presented.
        found: u64,
    },
    /// A real IO error while reading the directory.
    Io(std::io::Error),
    /// Building the snapshot of the recovered graph (its peel or PHCD)
    /// failed.
    Par(ParError),
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoverError::NoCheckpoint(dir) => {
                write!(f, "no valid checkpoint in {}", dir.display())
            }
            RecoverError::CorruptWal { offset, reason } => {
                write!(f, "corrupt WAL record at byte {offset}: {reason}")
            }
            RecoverError::SequenceGap { expected, found } => write!(
                f,
                "WAL sequence gap: expected batch {expected}, found {found}"
            ),
            RecoverError::Io(e) => write!(f, "recovery io error: {e}"),
            RecoverError::Par(e) => write!(f, "recovery rebuild failed: {e}"),
        }
    }
}

impl From<std::io::Error> for RecoverError {
    fn from(e: std::io::Error) -> Self {
        RecoverError::Io(e)
    }
}

impl From<ParError> for RecoverError {
    fn from(e: ParError) -> Self {
        RecoverError::Par(e)
    }
}

impl HcdService {
    /// Recovers a service from the durability directory `dir` (see the
    /// module docs for the exact procedure). The returned service is
    /// durable again, appending to the recovered log under `cfg`.
    pub fn recover<P: AsRef<Path>>(
        dir: P,
        cfg: DurabilityConfig,
        exec: &Executor,
    ) -> Result<(Self, RecoveryReport), RecoverError> {
        let started = std::time::Instant::now();
        let dir = dir.as_ref().to_path_buf();
        let (checkpoint_seq, graph, checkpoints_skipped) =
            load_newest_valid(&dir)?.ok_or_else(|| RecoverError::NoCheckpoint(dir.clone()))?;

        let wal_path = dir.join(WAL_FILE_NAME);
        let scan = scan_wal_file(&wal_path)?;
        let truncated_bytes = match scan.tail {
            TailStatus::Clean => 0,
            TailStatus::TornTail { torn_bytes, .. } => torn_bytes,
            TailStatus::Corrupt { offset, ref reason } => {
                return Err(RecoverError::CorruptWal {
                    offset,
                    reason: reason.clone(),
                })
            }
        };

        let mut final_seq = checkpoint_seq;
        let mut suffix = Vec::new();
        let mut replayed = 0usize;
        for record in &scan.records {
            if record.seq <= checkpoint_seq {
                continue;
            }
            if record.seq != final_seq + 1 {
                return Err(RecoverError::SequenceGap {
                    expected: final_seq + 1,
                    found: record.seq,
                });
            }
            suffix.extend_from_slice(&record.updates);
            final_seq = record.seq;
            replayed += 1;
        }
        let mut merged = DynamicGraph::from_csr(&graph);
        merged.apply(&suffix);
        let snapshot = Snapshot::try_build(merged.csr(), final_seq, exec)?;
        let mut writer =
            DynamicCore::from_parts(Arc::clone(&snapshot.graph), snapshot.cores.clone());
        writer.set_seq(final_seq);

        // Reopen the log for appending; open_at also performs the
        // truncate-at-last-valid-record repair for a torn tail.
        let wal = WalWriter::open_at(&wal_path, cfg.fsync, scan.valid_len())?;
        let bytes_scanned = scan.valid_len() + truncated_bytes;
        let wall_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let report = RecoveryReport {
            checkpoint_seq,
            checkpoints_skipped,
            wal_records: scan.records.len(),
            replayed,
            final_seq,
            truncated_bytes,
            bytes_scanned,
            wall_ns,
        };
        // Surface the report in the metrics snapshot too
        // (`serve.recovery.*`). Gauges rather than sums so a legitimate
        // zero (nothing replayed, no checkpoints damaged) still shows
        // up as an explicit counter row.
        exec.gauge("serve.recovery.records_replayed", replayed as u64);
        exec.gauge("serve.recovery.bytes_scanned", bytes_scanned);
        exec.gauge(
            "serve.recovery.checkpoints_skipped",
            checkpoints_skipped as u64,
        );
        exec.gauge("serve.recovery.wall_ns", wall_ns);
        exec.observe_ns("serve.recover", wall_ns);
        let durable = Durable {
            dir,
            wal,
            cfg,
            last_checkpoint_seq: checkpoint_seq,
            poisoned: false,
        };
        Ok((
            HcdService::from_parts(snapshot, writer, Some(durable)),
            report,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServeError;
    use crate::testutil::TempDir;
    use crate::wal::{encode_record, FsyncPolicy, WalError};
    use hcd_dynamic::EdgeUpdate;
    use hcd_graph::GraphBuilder;
    use hcd_par::{CrashPoint, FaultPlan};

    fn seed() -> hcd_graph::CsrGraph {
        GraphBuilder::new()
            .edges([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])
            .build()
    }

    fn cfg() -> DurabilityConfig {
        DurabilityConfig {
            fsync: FsyncPolicy::Always,
            checkpoint_every: 2,
        }
    }

    #[test]
    fn clean_shutdown_recovers_bit_identically() {
        let dir = TempDir::new("recover-test");
        let exec = Executor::sequential();
        let svc = HcdService::try_new_durable(&seed(), &dir, cfg(), &exec).unwrap();
        for i in 0..5u32 {
            svc.try_apply_batch(
                &[EdgeUpdate::Insert(i, i + 7), EdgeUpdate::Remove(0, 1)],
                &exec,
            )
            .unwrap();
        }
        let live_fp = svc.snapshot().fingerprint();
        let live_gen = svc.generation();
        drop(svc);

        let (rec, report) = HcdService::recover(&dir, cfg(), &exec).unwrap();
        assert_eq!(rec.snapshot().fingerprint(), live_fp);
        assert_eq!(rec.generation(), live_gen);
        assert!(!report.tail_was_truncated());
        assert_eq!(report.final_seq, 5);
        assert_eq!(report.checkpoint_seq, 4, "checkpoint_every = 2");
        assert_eq!(report.replayed, 1, "only the post-checkpoint suffix");
        assert_eq!(report.wal_records, 5, "the log is never truncated mid-run");
        rec.snapshot().validate().unwrap();

        // The recovered service keeps working durably: epochs continue,
        // new appends land after the old ones.
        let resp = rec
            .try_apply_batch(&[EdgeUpdate::Insert(1, 9)], &exec)
            .unwrap();
        assert_eq!(resp.generation, live_gen + 1);
        assert_eq!(resp.value.seq, 6);
    }

    #[test]
    fn every_recovery_peels_once_on_the_callers_executor() {
        let exec = Executor::sequential();
        let lazy = DurabilityConfig {
            checkpoint_every: 100,
            ..cfg()
        };
        // Record 2 removes what record 1 inserted, record 3 re-inserts
        // it and grows the vertex set: the concatenated replay must skip
        // and apply exactly as the records did one by one.
        let records = [
            vec![EdgeUpdate::Insert(0, 3), EdgeUpdate::Insert(1, 4)],
            vec![EdgeUpdate::Remove(0, 3), EdgeUpdate::Insert(1, 4)],
            vec![EdgeUpdate::Insert(0, 3), EdgeUpdate::Insert(3, 8)],
        ];
        // Nothing to replay past the seq-0 checkpoint, then all three
        // records: either way the recovered state is peeled once, on
        // the caller's executor.
        for replay in [&records[..0], &records[..]] {
            let dir = TempDir::new("recover-test");
            let svc = HcdService::try_new_durable(&seed(), &dir, lazy, &exec).unwrap();
            for batch in replay {
                svc.try_apply_batch(batch, &exec).unwrap();
            }
            let live_fp = svc.snapshot().fingerprint();
            drop(svc);

            let metered = Executor::sequential().with_metrics();
            let (rec, report) = HcdService::recover(&dir, lazy, &metered).unwrap();
            assert_eq!(report.replayed, replay.len());
            assert_eq!(rec.snapshot().fingerprint(), live_fp);
            let m = metered.take_metrics();
            let peels = m.get("bz.peel").map(|r| r.invocations);
            assert_eq!(peels, Some(1), "{} replayed record(s)", replay.len());
        }
    }

    #[test]
    fn mid_record_crash_recovers_to_the_last_ack_with_a_warning() {
        let dir = TempDir::new("recover-test");
        let exec = Executor::sequential();
        let svc = HcdService::try_new_durable(&seed(), &dir, cfg(), &exec).unwrap();
        svc.try_apply_batch(&[EdgeUpdate::Insert(0, 5)], &exec)
            .unwrap();
        let acked_fp = svc.snapshot().fingerprint();
        exec.set_fault_plan(FaultPlan::new().crash(CrashPoint::WalMidRecord, 0));
        let err = svc
            .try_apply_batch(&[EdgeUpdate::Insert(1, 6)], &exec)
            .unwrap_err();
        assert!(matches!(err, ServeError::Wal(WalError::Crashed(_))));
        exec.clear_fault_plan();
        drop(svc);

        let (rec, report) = HcdService::recover(&dir, cfg(), &exec).unwrap();
        assert!(report.tail_was_truncated());
        assert_eq!(report.final_seq, 1);
        assert_eq!(rec.snapshot().fingerprint(), acked_fp);
        // The truncation is real: a second recovery sees a clean log.
        drop(rec);
        let (_, report2) = HcdService::recover(&dir, cfg(), &exec).unwrap();
        assert!(!report2.tail_was_truncated());
    }

    #[test]
    fn corrupt_mid_log_record_is_a_hard_error() {
        let dir = TempDir::new("recover-test");
        let exec = Executor::sequential();
        let svc = HcdService::try_new_durable(&seed(), &dir, cfg(), &exec).unwrap();
        for i in 0..3u32 {
            svc.try_apply_batch(&[EdgeUpdate::Insert(i, i + 5)], &exec)
                .unwrap();
        }
        drop(svc);
        // Flip one payload byte of the first record.
        let wal_path = dir.join(WAL_FILE_NAME);
        let mut bytes = std::fs::read(&wal_path).unwrap();
        bytes[10] ^= 0x20;
        std::fs::write(&wal_path, &bytes).unwrap();
        let err = HcdService::recover(&dir, cfg(), &exec).unwrap_err();
        assert!(
            matches!(err, RecoverError::CorruptWal { offset: 0, .. }),
            "{err}"
        );
    }

    #[test]
    fn sequence_gap_is_rejected() {
        let dir = TempDir::new("recover-test");
        let exec = Executor::sequential();
        drop(HcdService::try_new_durable(&seed(), &dir, cfg(), &exec).unwrap());
        // Doctor a log that skips batch 1: acked work is missing.
        let mut log = Vec::new();
        log.extend_from_slice(&encode_record(2, &[EdgeUpdate::Insert(0, 5)]));
        std::fs::write(dir.join(WAL_FILE_NAME), &log).unwrap();
        let err = HcdService::recover(&dir, cfg(), &exec).unwrap_err();
        assert!(
            matches!(
                err,
                RecoverError::SequenceGap {
                    expected: 1,
                    found: 2
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn empty_directory_has_nothing_to_recover() {
        let dir = TempDir::new("recover-test");
        let err = HcdService::recover(&dir, cfg(), &Executor::sequential()).unwrap_err();
        assert!(matches!(err, RecoverError::NoCheckpoint(_)), "{err}");
    }

    #[test]
    fn stale_header_checkpoint_falls_back_to_the_previous_one() {
        let dir = TempDir::new("recover-test");
        let exec = Executor::sequential();
        let svc = HcdService::try_new_durable(&seed(), &dir, cfg(), &exec).unwrap();
        for i in 0..2u32 {
            svc.try_apply_batch(&[EdgeUpdate::Insert(i, i + 5)], &exec)
                .unwrap();
        }
        drop(svc);
        // Doctor the newest checkpoint's magic to an unknown version.
        let newest = dir.join(crate::checkpoint::checkpoint_file_name(2));
        let mut bytes = std::fs::read(&newest).unwrap();
        bytes[7] = b'9';
        std::fs::write(&newest, &bytes).unwrap();
        let (rec, report) = HcdService::recover(&dir, cfg(), &exec).unwrap();
        assert_eq!(report.checkpoint_seq, 0);
        assert_eq!(report.checkpoints_skipped, 1);
        // The whole log replays, landing on the same state.
        assert_eq!(report.replayed, 2);
        assert_eq!(report.final_seq, 2);
        rec.snapshot().validate().unwrap();
    }
}
