//! Structured JSONL writer event log.
//!
//! The histogram layer (`hcd_par::hist`) answers "how slow"; this log
//! answers "what happened, in order". Every write-path decision the
//! service makes — batch applied, snapshot published, no-op skipped,
//! checkpoint written, recovery performed, fault kept the old snapshot
//! serving — is appended as one self-describing JSON object per line,
//! so a crashed or misbehaving run can be reconstructed record by
//! record (and diffed against the WAL, which carries the same `seq`).
//!
//! Schema ([`EVENTS_SCHEMA`] = `hcd-events-v1`): every line carries
//!
//! ```json
//! {"schema": "hcd-events-v1", "t_us": 1234, "kind": "...", ...}
//! ```
//!
//! where `t_us` is microseconds since the log was opened (monotonic
//! clock) and `kind` is one of:
//!
//! | kind                      | extra fields                                          |
//! |---------------------------|-------------------------------------------------------|
//! | `batch-applied`           | `seq`, `generation`, `applied`, `skipped`, `affected`, `duration_ns` |
//! | `published`               | `seq`, `generation`, `affected`, `duration_ns`        |
//! | `no-op`                   | `seq`, `generation`, `skipped`                        |
//! | `checkpoint`              | `seq`, `generation`, `duration_ns`                    |
//! | `recovery`                | `checkpoint_seq`, `final_seq`, `replayed`, `bytes_scanned`, `checkpoints_skipped`, `truncated_bytes`, `duration_ns` |
//! | `fault-kept-old-snapshot` | `seq`, `generation`, `error`, `duration_ns`           |
//!
//! `generation` is the published snapshot generation *after* the event
//! (for `fault-kept-old-snapshot` and `no-op`, the generation that
//! keeps serving); `affected` is the number of vertices whose coreness
//! the batch changed plus the endpoints its applied updates touched;
//! `seq` is the
//! WAL/acknowledgement sequence number of the triggering batch.
//!
//! Lines are flushed eagerly (one `write` + `flush` per event, at most
//! a few per update batch), so a kill-test harness sees every event
//! the writer acknowledged.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use hcd_par::trace::escape_json;

use crate::recover::RecoveryReport;

/// Version tag carried on every event line.
pub const EVENTS_SCHEMA: &str = "hcd-events-v1";

/// An append-only JSONL event log (see module docs). Cheap when absent:
/// the service's writer holds an `Option<EventLog>` and skips all
/// formatting when it is `None`. The writer owns it, so it needs no lock
/// of its own.
pub struct EventLog {
    out: BufWriter<Box<dyn Write + Send>>,
    lines: u64,
    opened: Instant,
}

impl std::fmt::Debug for EventLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventLog")
            .field("lines", &self.lines)
            .finish()
    }
}

impl EventLog {
    /// Creates (truncating) the log file at `path`.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<EventLog> {
        Ok(Self::to_writer(Box::new(File::create(path)?)))
    }

    /// Wraps an arbitrary writer (tests use `Vec<u8>` via a pipe or
    /// tempfile; the CLI uses a file).
    pub fn to_writer(w: Box<dyn Write + Send>) -> EventLog {
        EventLog {
            out: BufWriter::new(w),
            lines: 0,
            opened: Instant::now(),
        }
    }

    /// Number of event lines written so far.
    pub fn lines_written(&self) -> u64 {
        self.lines
    }

    fn emit(&mut self, kind: &str, fields: &str) {
        let t_us = self.opened.elapsed().as_micros();
        let line = format!(
            "{{\"schema\": \"{EVENTS_SCHEMA}\", \"t_us\": {t_us}, \"kind\": \"{kind}\"{fields}}}\n"
        );
        // Event-log IO errors must never fail the write path they
        // observe; a broken log is reported by the missing tail, not by
        // poisoning the service.
        let _ = self.out.write_all(line.as_bytes());
        let _ = self.out.flush();
        self.lines += 1;
    }

    /// A batch of edge updates was applied to the writer state.
    pub fn batch_applied(
        &mut self,
        seq: u64,
        generation: u64,
        applied: u64,
        skipped: u64,
        affected: u64,
        duration_ns: u64,
    ) {
        self.emit(
            "batch-applied",
            &format!(
                ", \"seq\": {seq}, \"generation\": {generation}, \"applied\": {applied}, \
                 \"skipped\": {skipped}, \"affected\": {affected}, \"duration_ns\": {duration_ns}"
            ),
        );
    }

    /// A new snapshot generation became visible to readers.
    pub fn published(&mut self, seq: u64, generation: u64, affected: u64, duration_ns: u64) {
        self.emit(
            "published",
            &format!(
                ", \"seq\": {seq}, \"generation\": {generation}, \"affected\": {affected}, \
                 \"duration_ns\": {duration_ns}"
            ),
        );
    }

    /// An update batch changed nothing; no generation was published and
    /// nothing was logged to the WAL.
    pub fn noop(&mut self, seq: u64, generation: u64, skipped: u64) {
        self.emit(
            "no-op",
            &format!(", \"seq\": {seq}, \"generation\": {generation}, \"skipped\": {skipped}"),
        );
    }

    /// A snapshot checkpoint was written. A failed one writes no event:
    /// the batch was already published, and an IO error ticks
    /// `serve.ckpt_errors` instead.
    pub fn checkpoint(&mut self, seq: u64, generation: u64, duration_ns: u64) {
        self.emit(
            "checkpoint",
            &format!(
                ", \"seq\": {seq}, \"generation\": {generation}, \"duration_ns\": {duration_ns}"
            ),
        );
    }

    /// A write-path failure left the previous snapshot serving.
    pub fn fault_kept_old_snapshot(
        &mut self,
        seq: u64,
        generation: u64,
        error: &str,
        duration_ns: u64,
    ) {
        self.emit(
            "fault-kept-old-snapshot",
            &format!(
                ", \"seq\": {seq}, \"generation\": {generation}, \"error\": \"{}\", \
                 \"duration_ns\": {duration_ns}",
                escape_json(error)
            ),
        );
    }

    /// A durable service recovered its state from disk.
    pub fn recovery(&mut self, report: &RecoveryReport) {
        self.emit(
            "recovery",
            &format!(
                ", \"checkpoint_seq\": {}, \"final_seq\": {}, \"replayed\": {}, \
                 \"bytes_scanned\": {}, \"checkpoints_skipped\": {}, \"truncated_bytes\": {}, \
                 \"duration_ns\": {}",
                report.checkpoint_seq,
                report.final_seq,
                report.replayed,
                report.bytes_scanned,
                report.checkpoints_skipped,
                report.truncated_bytes,
                report.wall_ns,
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_back(path: &std::path::Path) -> Vec<String> {
        std::fs::read_to_string(path)
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect()
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("hcd_events_test_{}_{name}", std::process::id()));
        p
    }

    #[test]
    fn every_line_is_schema_tagged_json() {
        let path = tmp("tagged.jsonl");
        let mut log = EventLog::create(&path).unwrap();
        log.batch_applied(1, 1, 10, 2, 7, 12345);
        log.published(1, 1, 7, 23456);
        log.noop(1, 1, 8);
        log.checkpoint(1, 1, 999);
        log.fault_kept_old_snapshot(2, 1, "rebuild \"panicked\"", 5);
        assert_eq!(log.lines_written(), 5);
        let lines = read_back(&path);
        assert_eq!(lines.len(), 5);
        for line in &lines {
            let doc = hcd_par::diff::Json::parse(line).expect("valid JSON line");
            assert_eq!(
                doc.get("schema").and_then(hcd_par::diff::Json::as_str),
                Some(EVENTS_SCHEMA)
            );
            assert!(doc
                .get("t_us")
                .and_then(hcd_par::diff::Json::as_f64)
                .is_some());
            assert!(doc
                .get("kind")
                .and_then(hcd_par::diff::Json::as_str)
                .is_some());
        }
        let fault = hcd_par::diff::Json::parse(&lines[4]).unwrap();
        assert_eq!(
            fault.get("error").and_then(hcd_par::diff::Json::as_str),
            Some("rebuild \"panicked\"")
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn recovery_event_carries_the_report() {
        let path = tmp("recovery.jsonl");
        let mut log = EventLog::create(&path).unwrap();
        log.recovery(&RecoveryReport {
            checkpoint_seq: 3,
            checkpoints_skipped: 1,
            wal_records: 5,
            replayed: 2,
            final_seq: 5,
            truncated_bytes: 10,
            bytes_scanned: 640,
            wall_ns: 1_000_000,
        });
        let lines = read_back(&path);
        let doc = hcd_par::diff::Json::parse(&lines[0]).unwrap();
        assert_eq!(
            doc.get("kind").and_then(hcd_par::diff::Json::as_str),
            Some("recovery")
        );
        assert_eq!(
            doc.get("bytes_scanned")
                .and_then(hcd_par::diff::Json::as_f64),
            Some(640.0)
        );
        assert_eq!(
            doc.get("replayed").and_then(hcd_par::diff::Json::as_f64),
            Some(2.0)
        );
        std::fs::remove_file(&path).ok();
    }
}
