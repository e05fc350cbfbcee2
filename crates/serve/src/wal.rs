//! Append-only write-ahead log for update batches.
//!
//! Every acknowledged [`hcd_dynamic::EdgeUpdate`] batch is
//! appended here *before* it is applied to the maintained
//! [`DynamicCore`](hcd_dynamic::DynamicCore), so a crash between the
//! append and the epoch swap loses no acknowledged work: recovery
//! replays the log suffix on top of the newest checkpoint.
//!
//! # Record format
//!
//! The log is a flat sequence of length-prefixed, checksummed frames:
//!
//! ```text
//! +----------+----------+-------------------------------+
//! | len: u32 | crc: u32 | payload (len bytes)           |
//! +----------+----------+-------------------------------+
//! payload := seq: u64 | count: u32 | count * update
//! update  := tag: u8 (0 = insert, 1 = remove) | u: u32 | v: u32
//! ```
//!
//! All integers are little-endian; `crc` is CRC-32 (IEEE) over the
//! payload only. The frame header is deliberately *not* covered by the
//! checksum: a frame whose payload is shorter than `len` promises is a
//! **torn tail** (the classic kill-mid-write shape) and is truncated
//! away on recovery, while a complete frame whose checksum mismatches is
//! **corruption** and is a hard error. A corrupted length field is
//! indistinguishable from a torn write and is classified as a torn tail
//! — the safe direction, since neither ever admits bad data.
//!
//! # Crash points
//!
//! [`WalWriter::append`] polls three [`CrashPoint`]s through the
//! executor so the kill-and-recover harness can die at every IO
//! boundary: before any byte is written (`WalPreAppend`), after a
//! strict prefix of the frame (`WalMidRecord`), and after the full
//! frame but before fsync (`WalPreFsync`, simulated as page-cache loss
//! by rolling the file back to the last fsynced offset). A fired crash
//! poisons the writer — the in-process "dead" state — and every later
//! append fails with [`WalError::Poisoned`].

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use hcd_dynamic::EdgeUpdate;
use hcd_graph::crc32;
use hcd_par::{CrashPoint, Executor};

/// File name of the log inside a durability directory.
pub const WAL_FILE_NAME: &str = "wal.log";

/// Bytes of the `len` + `crc` frame header.
pub const FRAME_HEADER_LEN: usize = 8;

const TAG_INSERT: u8 = 0;
const TAG_REMOVE: u8 = 1;
/// Bytes of one encoded update inside a payload.
const UPDATE_LEN: usize = 9;
/// Bytes of the fixed payload prefix (`seq` + `count`).
const PAYLOAD_PREFIX_LEN: usize = 12;

/// When the log is fsynced relative to appends.
///
/// | policy      | acknowledged batches lost on crash            |
/// |-------------|-----------------------------------------------|
/// | `Always`    | none                                          |
/// | `Every(n)`  | up to `n - 1` (the unsynced window)           |
/// | `Never`     | everything since the last checkpoint          |
///
/// "Lost on crash" means lost to simulated page-cache loss
/// ([`CrashPoint::WalPreFsync`]) — appends that completed without a
/// crash are always on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync after every append: no acknowledged batch can be lost.
    Always,
    /// fsync once every `n` appends: bounded loss, higher throughput.
    /// `Every(0)` and `Every(1)` behave like `Always`.
    Every(u64),
    /// Never fsync: durability is only as good as the page cache.
    Never,
}

/// Why a WAL operation failed.
#[derive(Debug)]
pub enum WalError {
    /// A real IO error. The writer rolled the file back to the end of
    /// the last complete record (or poisoned itself if even that
    /// failed), so the log never *stays* torn because of an IO error.
    Io(std::io::Error),
    /// A scheduled [`CrashPoint`] fired: the simulated process is dead.
    /// Whatever the crash left on disk (nothing, a torn frame, or
    /// unsynced bytes) stays there for recovery to find.
    Crashed(CrashPoint),
    /// A previous crash or unrecoverable IO error poisoned this writer;
    /// no further appends are accepted.
    Poisoned,
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal io error: {e}"),
            WalError::Crashed(p) => write!(f, "simulated crash at {}", p.name()),
            WalError::Poisoned => write!(f, "wal writer poisoned by an earlier crash"),
        }
    }
}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

/// Encodes a record payload (`seq`, then the updates).
pub fn encode_payload(seq: u64, updates: &[EdgeUpdate]) -> Vec<u8> {
    assert!(
        updates.len() <= u32::MAX as usize,
        "update batch too large for one WAL record"
    );
    let mut out = Vec::with_capacity(PAYLOAD_PREFIX_LEN + updates.len() * UPDATE_LEN);
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&(updates.len() as u32).to_le_bytes());
    for up in updates {
        let (tag, u, v) = match *up {
            EdgeUpdate::Insert(u, v) => (TAG_INSERT, u, v),
            EdgeUpdate::Remove(u, v) => (TAG_REMOVE, u, v),
        };
        out.push(tag);
        out.extend_from_slice(&u.to_le_bytes());
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Encodes a complete frame: `len` + `crc` header followed by the
/// payload of [`encode_payload`].
pub fn encode_record(seq: u64, updates: &[EdgeUpdate]) -> Vec<u8> {
    let payload = encode_payload(seq, updates);
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Decodes a record payload. `None` when the payload is structurally
/// malformed (bad tag, count disagreeing with the byte length) — which,
/// behind a valid checksum, means a writer bug or deliberate doctoring,
/// never a torn write.
pub fn decode_payload(payload: &[u8]) -> Option<(u64, Vec<EdgeUpdate>)> {
    if payload.len() < PAYLOAD_PREFIX_LEN {
        return None;
    }
    let seq = u64::from_le_bytes(payload[0..8].try_into().unwrap());
    let count = u32::from_le_bytes(payload[8..12].try_into().unwrap()) as usize;
    if payload.len() != PAYLOAD_PREFIX_LEN + count * UPDATE_LEN {
        return None;
    }
    let mut updates = Vec::with_capacity(count);
    let mut off = PAYLOAD_PREFIX_LEN;
    for _ in 0..count {
        let tag = payload[off];
        let u = u32::from_le_bytes(payload[off + 1..off + 5].try_into().unwrap());
        let v = u32::from_le_bytes(payload[off + 5..off + 9].try_into().unwrap());
        updates.push(match tag {
            TAG_INSERT => EdgeUpdate::Insert(u, v),
            TAG_REMOVE => EdgeUpdate::Remove(u, v),
            _ => return None,
        });
        off += UPDATE_LEN;
    }
    Some((seq, updates))
}

/// One decoded record plus where its frame ends in the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// The batch sequence number persisted with the record.
    pub seq: u64,
    /// The batch itself, in application order.
    pub updates: Vec<EdgeUpdate>,
    /// Byte offset one past this record's frame — the log is valid up
    /// to here if this is the last record.
    pub end_offset: u64,
}

/// How the log ends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TailStatus {
    /// The log ends exactly at a frame boundary.
    Clean,
    /// The log ends in a partial frame — the kill-mid-write shape.
    /// Recovery truncates to `valid_len` and keeps going.
    TornTail {
        /// End of the last complete, valid record.
        valid_len: u64,
        /// Bytes of torn garbage after it.
        torn_bytes: u64,
    },
    /// A complete frame failed its checksum or decoded to garbage.
    /// This is damage, not a torn write; recovery refuses the log.
    Corrupt {
        /// Offset of the offending frame.
        offset: u64,
        /// Human-readable classification.
        reason: String,
    },
}

/// Everything a scan of the log found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalScan {
    /// All complete, checksum-valid records, in log order.
    pub records: Vec<WalRecord>,
    /// How the log ends after the last valid record.
    pub tail: TailStatus,
}

impl WalScan {
    /// End of the last complete, valid record (0 for an empty or
    /// immediately-torn log).
    pub fn valid_len(&self) -> u64 {
        self.records.last().map_or(0, |r| r.end_offset)
    }
}

/// Scans a full log image. Never fails: damage is reported through
/// [`TailStatus`], and the returned records are always the longest
/// valid prefix of the log.
pub fn scan_wal(bytes: &[u8]) -> WalScan {
    let mut records = Vec::new();
    let mut off = 0usize;
    let tail = loop {
        let rem = bytes.len() - off;
        if rem == 0 {
            break TailStatus::Clean;
        }
        if rem < FRAME_HEADER_LEN {
            break TailStatus::TornTail {
                valid_len: off as u64,
                torn_bytes: rem as u64,
            };
        }
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[off + 4..off + 8].try_into().unwrap());
        if rem - FRAME_HEADER_LEN < len {
            // Shorter payload than the header promises: a torn write,
            // or a corrupted length field masquerading as one. Both are
            // handled by truncating — never by trusting the bytes.
            break TailStatus::TornTail {
                valid_len: off as u64,
                torn_bytes: rem as u64,
            };
        }
        let payload = &bytes[off + FRAME_HEADER_LEN..off + FRAME_HEADER_LEN + len];
        if crc32(payload) != crc {
            break TailStatus::Corrupt {
                offset: off as u64,
                reason: "record checksum mismatch".into(),
            };
        }
        let Some((seq, updates)) = decode_payload(payload) else {
            break TailStatus::Corrupt {
                offset: off as u64,
                reason: "checksum-valid record failed to decode".into(),
            };
        };
        off += FRAME_HEADER_LEN + len;
        records.push(WalRecord {
            seq,
            updates,
            end_offset: off as u64,
        });
    };
    WalScan { records, tail }
}

/// Scans a log file ([`scan_wal`] over its full contents). A missing
/// file scans as empty-and-clean: a durability directory whose WAL was
/// never created simply has nothing to replay.
pub fn scan_wal_file<P: AsRef<Path>>(path: P) -> std::io::Result<WalScan> {
    match std::fs::read(path) {
        Ok(bytes) => Ok(scan_wal(&bytes)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(scan_wal(&[])),
        Err(e) => Err(e),
    }
}

/// The appending side of the log. One writer per durability directory,
/// serialized externally (the service holds it under its writer lock).
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    policy: FsyncPolicy,
    /// End of the last fully appended record.
    len: u64,
    /// Length covered by the last fsync; page-cache-loss simulation
    /// rolls the file back to here.
    synced_len: u64,
    unsynced_appends: u64,
    poisoned: bool,
}

impl WalWriter {
    /// Creates (or truncates) the log at `path` and starts it empty.
    pub fn create<P: AsRef<Path>>(path: P, policy: FsyncPolicy) -> std::io::Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        Ok(WalWriter {
            file,
            path: path.as_ref().to_path_buf(),
            policy,
            len: 0,
            synced_len: 0,
            unsynced_appends: 0,
            poisoned: false,
        })
    }

    /// Opens an existing log whose valid length is already known (the
    /// recovery path: scan first, truncate any torn tail, then reopen
    /// for appending). The on-disk prefix counts as synced — it
    /// survived the crash by definition.
    pub fn open_at<P: AsRef<Path>>(
        path: P,
        policy: FsyncPolicy,
        valid_len: u64,
    ) -> std::io::Result<Self> {
        // Not `truncate(true)`: the valid prefix must survive the open;
        // `set_len` below cuts exactly the torn suffix.
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        file.set_len(valid_len)?;
        file.seek(SeekFrom::End(0))?;
        Ok(WalWriter {
            file,
            path: path.as_ref().to_path_buf(),
            policy,
            len: valid_len,
            synced_len: valid_len,
            unsynced_appends: 0,
            poisoned: false,
        })
    }

    /// The log's location.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// End of the last fully appended record.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether a crash or unrecoverable IO error killed this writer.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Appends one batch record and (per policy) fsyncs it. Returns the
    /// frame size in bytes on success. Polls the `Wal*` crash points —
    /// see the module docs for what each one leaves on disk.
    pub fn append(
        &mut self,
        seq: u64,
        updates: &[EdgeUpdate],
        exec: &Executor,
    ) -> Result<u64, WalError> {
        if self.poisoned {
            return Err(WalError::Poisoned);
        }
        let _lat = exec.time("serve.wal.append");
        let frame = encode_record(seq, updates);

        if exec.crash_point(CrashPoint::WalPreAppend) {
            self.poisoned = true;
            return Err(WalError::Crashed(CrashPoint::WalPreAppend));
        }
        if exec.crash_point(CrashPoint::WalMidRecord) {
            // Die after a strict prefix of the frame, exactly as a
            // killed process would: header complete, payload torn.
            let torn = FRAME_HEADER_LEN + (frame.len() - FRAME_HEADER_LEN) / 2;
            let _ = self.file.write_all(&frame[..torn]);
            self.poisoned = true;
            return Err(WalError::Crashed(CrashPoint::WalMidRecord));
        }
        if let Err(e) = self.file.write_all(&frame) {
            // Real IO error: roll back to the last complete record so a
            // half-written frame never lingers; poison only if even the
            // rollback fails.
            if self.file.set_len(self.len).is_err() || self.file.seek(SeekFrom::End(0)).is_err() {
                self.poisoned = true;
            }
            return Err(WalError::Io(e));
        }
        if exec.crash_point(CrashPoint::WalPreFsync) {
            // The bytes reached the file but were never fsynced; the
            // simulated machine loses its page cache with the process.
            let _ = self.file.set_len(self.synced_len);
            self.poisoned = true;
            return Err(WalError::Crashed(CrashPoint::WalPreFsync));
        }
        self.len += frame.len() as u64;
        self.unsynced_appends += 1;
        let sync_now = match self.policy {
            FsyncPolicy::Always => true,
            FsyncPolicy::Every(n) => self.unsynced_appends >= n.max(1),
            FsyncPolicy::Never => false,
        };
        if sync_now {
            let synced = {
                let _lat = exec.time("serve.wal.fsync");
                self.file.sync_data()
            };
            if let Err(e) = synced {
                // After a failed fsync the durable state is unknowable;
                // refuse all further work on this writer.
                self.poisoned = true;
                return Err(WalError::Io(e));
            }
            self.synced_len = self.len;
            self.unsynced_appends = 0;
        }
        Ok(frame.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcd_par::FaultPlan;

    fn batch(n: u32) -> Vec<EdgeUpdate> {
        (0..n)
            .map(|i| {
                if i % 3 == 0 {
                    EdgeUpdate::Remove(i, i + 1)
                } else {
                    EdgeUpdate::Insert(i, i + 2)
                }
            })
            .collect()
    }

    #[test]
    fn payload_round_trips() {
        for n in [0u32, 1, 7] {
            let updates = batch(n);
            let payload = encode_payload(9 + n as u64, &updates);
            assert_eq!(
                decode_payload(&payload),
                Some((9 + n as u64, updates.clone()))
            );
        }
        // Structural damage is rejected, not misread.
        let payload = encode_payload(1, &batch(2));
        assert!(decode_payload(&payload[..payload.len() - 1]).is_none());
        let mut bad_tag = payload.clone();
        bad_tag[PAYLOAD_PREFIX_LEN] = 7;
        assert!(decode_payload(&bad_tag).is_none());
    }

    #[test]
    fn append_then_scan_is_clean() {
        let dir = tempdir();
        let path = dir.join(WAL_FILE_NAME);
        let exec = Executor::sequential();
        let mut w = WalWriter::create(&path, FsyncPolicy::Always).unwrap();
        for seq in 1..=3u64 {
            let bytes = w.append(seq, &batch(seq as u32), &exec).unwrap();
            assert!(bytes >= (FRAME_HEADER_LEN + PAYLOAD_PREFIX_LEN) as u64);
        }
        let scan = scan_wal_file(&path).unwrap();
        assert_eq!(scan.tail, TailStatus::Clean);
        assert_eq!(scan.records.len(), 3);
        for (i, r) in scan.records.iter().enumerate() {
            assert_eq!(r.seq, i as u64 + 1);
            assert_eq!(r.updates, batch(r.seq as u32));
        }
        assert_eq!(scan.valid_len(), w.len());
    }

    #[test]
    fn missing_file_scans_empty() {
        let dir = tempdir();
        let scan = scan_wal_file(dir.join("nope.log")).unwrap();
        assert!(scan.records.is_empty());
        assert_eq!(scan.tail, TailStatus::Clean);
        assert_eq!(scan.valid_len(), 0);
    }

    #[test]
    fn every_truncation_point_is_a_torn_tail_with_the_valid_prefix() {
        let mut log = Vec::new();
        let mut boundaries = vec![0usize];
        for seq in 1..=3u64 {
            log.extend_from_slice(&encode_record(seq, &batch(seq as u32)));
            boundaries.push(log.len());
        }
        for cut in 0..=log.len() {
            let scan = scan_wal(&log[..cut]);
            let full = boundaries.iter().filter(|&&b| b > 0 && b <= cut).count();
            assert_eq!(scan.records.len(), full, "cut {cut}");
            assert_eq!(scan.valid_len() as usize, boundaries[full], "cut {cut}");
            if cut == boundaries[full] {
                assert_eq!(scan.tail, TailStatus::Clean, "cut {cut}");
            } else {
                assert_eq!(
                    scan.tail,
                    TailStatus::TornTail {
                        valid_len: boundaries[full] as u64,
                        torn_bytes: (cut - boundaries[full]) as u64,
                    },
                    "cut {cut}"
                );
            }
        }
    }

    #[test]
    fn flipped_byte_in_a_complete_frame_is_corruption() {
        let mut log = Vec::new();
        log.extend_from_slice(&encode_record(1, &batch(2)));
        let first_end = log.len();
        log.extend_from_slice(&encode_record(2, &batch(3)));
        // Flip one payload byte of the second record.
        log[first_end + FRAME_HEADER_LEN + 3] ^= 0x40;
        let scan = scan_wal(&log);
        assert_eq!(scan.records.len(), 1, "first record survives");
        assert!(
            matches!(scan.tail, TailStatus::Corrupt { offset, .. } if offset == first_end as u64),
            "{:?}",
            scan.tail
        );
        // Flip a CRC byte instead: same classification.
        let mut log2 = encode_record(1, &batch(2));
        log2[5] ^= 0x01;
        let scan2 = scan_wal(&log2);
        assert!(scan2.records.is_empty());
        assert!(matches!(scan2.tail, TailStatus::Corrupt { offset: 0, .. }));
    }

    #[test]
    fn mid_record_crash_leaves_a_torn_recoverable_tail() {
        let dir = tempdir();
        let path = dir.join(WAL_FILE_NAME);
        let exec = Executor::sequential();
        let mut w = WalWriter::create(&path, FsyncPolicy::Always).unwrap();
        w.append(1, &batch(4), &exec).unwrap();
        exec.set_fault_plan(FaultPlan::new().crash(CrashPoint::WalMidRecord, 0));
        let err = w.append(2, &batch(4), &exec).unwrap_err();
        assert!(matches!(err, WalError::Crashed(CrashPoint::WalMidRecord)));
        assert!(w.is_poisoned());
        assert!(matches!(
            w.append(3, &batch(1), &exec).unwrap_err(),
            WalError::Poisoned
        ));
        exec.clear_fault_plan();
        let scan = scan_wal_file(&path).unwrap();
        assert_eq!(scan.records.len(), 1, "only the acknowledged record");
        assert!(
            matches!(scan.tail, TailStatus::TornTail { valid_len, torn_bytes }
                if valid_len == scan.valid_len() && torn_bytes > 0),
            "{:?}",
            scan.tail
        );
    }

    #[test]
    fn pre_fsync_crash_loses_exactly_the_unsynced_suffix() {
        let dir = tempdir();
        let path = dir.join(WAL_FILE_NAME);
        let exec = Executor::sequential();
        // Never fsync: everything is page cache, so a pre-fsync crash
        // rolls the whole log away.
        let mut w = WalWriter::create(&path, FsyncPolicy::Never).unwrap();
        w.append(1, &batch(2), &exec).unwrap();
        exec.set_fault_plan(FaultPlan::new().crash(CrashPoint::WalPreFsync, 0));
        let err = w.append(2, &batch(2), &exec).unwrap_err();
        assert!(matches!(err, WalError::Crashed(CrashPoint::WalPreFsync)));
        exec.clear_fault_plan();
        let scan = scan_wal_file(&path).unwrap();
        assert!(scan.records.is_empty(), "{scan:?}");
        assert_eq!(scan.tail, TailStatus::Clean);

        // Always fsync: only the in-flight record is lost.
        let path2 = dir.join("wal2.log");
        let mut w2 = WalWriter::create(&path2, FsyncPolicy::Always).unwrap();
        w2.append(1, &batch(2), &exec).unwrap();
        exec.set_fault_plan(FaultPlan::new().crash(CrashPoint::WalPreFsync, 0));
        w2.append(2, &batch(2), &exec).unwrap_err();
        exec.clear_fault_plan();
        let scan2 = scan_wal_file(&path2).unwrap();
        assert_eq!(scan2.records.len(), 1);
        assert_eq!(scan2.tail, TailStatus::Clean);
    }

    #[test]
    fn pre_append_crash_writes_nothing() {
        let dir = tempdir();
        let path = dir.join(WAL_FILE_NAME);
        let exec = Executor::sequential();
        let mut w = WalWriter::create(&path, FsyncPolicy::Always).unwrap();
        w.append(1, &batch(1), &exec).unwrap();
        let before = w.len();
        exec.set_fault_plan(FaultPlan::new().crash(CrashPoint::WalPreAppend, 0));
        w.append(2, &batch(1), &exec).unwrap_err();
        exec.clear_fault_plan();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), before);
    }

    #[test]
    fn open_at_truncates_the_torn_tail_and_resumes() {
        let dir = tempdir();
        let path = dir.join(WAL_FILE_NAME);
        let exec = Executor::sequential();
        let mut w = WalWriter::create(&path, FsyncPolicy::Always).unwrap();
        w.append(1, &batch(2), &exec).unwrap();
        exec.set_fault_plan(FaultPlan::new().crash(CrashPoint::WalMidRecord, 0));
        w.append(2, &batch(2), &exec).unwrap_err();
        exec.clear_fault_plan();
        drop(w);

        let scan = scan_wal_file(&path).unwrap();
        let valid = match scan.tail {
            TailStatus::TornTail { valid_len, .. } => valid_len,
            ref t => panic!("expected torn tail, got {t:?}"),
        };
        let mut w = WalWriter::open_at(&path, FsyncPolicy::Always, valid).unwrap();
        w.append(2, &batch(5), &exec).unwrap();
        let scan = scan_wal_file(&path).unwrap();
        assert_eq!(scan.tail, TailStatus::Clean);
        assert_eq!(
            scan.records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![1, 2]
        );
        assert_eq!(scan.records[1].updates, batch(5));
    }

    /// Unique-per-test temp dir under the target-adjacent tmp root.
    fn tempdir() -> PathBuf {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        // Relaxed: the id only has to be unique.
        let id = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("hcd-wal-test-{}-{id}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }
}
