//! Atomic snapshot checkpoints of the maintained graph.
//!
//! A checkpoint is the maintained graph serialized in the checksummed
//! v2 binary format (`hcd_graph::io::write_binary`), written to
//! `ckpt-<seq:016x>.bin` inside the durability directory. The batch
//! sequence number lives in the file name so recovery knows exactly
//! which WAL suffix to replay on top; everything else (coreness, the
//! hierarchy) is recomputed from the graph, which the differential
//! suite proves equivalent to the writer's maintained state.
//!
//! Writes are atomic in the classic way: serialize to
//! `ckpt-<seq>.bin.tmp`, fsync, rename over the final name, fsync the
//! directory. A crash before the rename leaves only a `.tmp` file that
//! discovery ignores; a crash after it leaves a complete, checksummed
//! checkpoint. There is never a moment where a reader can observe a
//! half-written file under the final name.

use std::fs::{self, File};
use std::io::Write;
use std::path::{Path, PathBuf};

use hcd_graph::{io as gio, CsrGraph, GraphError};
use hcd_par::{CrashPoint, Executor};

/// File-name prefix of checkpoint files.
pub const CHECKPOINT_PREFIX: &str = "ckpt-";
/// File-name suffix of checkpoint files.
pub const CHECKPOINT_SUFFIX: &str = ".bin";
const TMP_SUFFIX: &str = ".tmp";

/// Why a checkpoint write failed.
#[derive(Debug)]
pub enum CheckpointError {
    /// A real IO or serialization error. The old checkpoint (if any) is
    /// still in place; the WAL still covers every acknowledged batch.
    Io(std::io::Error),
    /// A scheduled [`CrashPoint`] fired (`CkptPreRename` leaves only the
    /// temp file; `CkptPostRename` leaves the new checkpoint fully
    /// published).
    Crashed(CrashPoint),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint io error: {e}"),
            CheckpointError::Crashed(p) => write!(f, "simulated crash at {}", p.name()),
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// `ckpt-<seq:016x>.bin` — zero-padded hex so lexicographic order is
/// sequence order.
pub fn checkpoint_file_name(seq: u64) -> String {
    format!("{CHECKPOINT_PREFIX}{seq:016x}{CHECKPOINT_SUFFIX}")
}

/// Parses the sequence number out of a checkpoint file name (`None`
/// for temp files and unrelated names).
pub fn parse_checkpoint_seq(name: &str) -> Option<u64> {
    let hex = name
        .strip_prefix(CHECKPOINT_PREFIX)?
        .strip_suffix(CHECKPOINT_SUFFIX)?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// Writes the checkpoint for batch `seq` atomically and returns its
/// final path. Polls the `Ckpt*` crash points around the rename.
pub fn write_checkpoint(
    dir: &Path,
    seq: u64,
    g: &CsrGraph,
    exec: &Executor,
) -> Result<PathBuf, CheckpointError> {
    let _lat = exec.time("serve.ckpt.write");
    let final_path = dir.join(checkpoint_file_name(seq));
    let tmp_path = dir.join(format!("{}{TMP_SUFFIX}", checkpoint_file_name(seq)));
    let mut bytes = Vec::new();
    gio::write_binary(g, &mut bytes).map_err(|e| match e {
        GraphError::Io(io) => CheckpointError::Io(io),
        other => CheckpointError::Io(std::io::Error::other(other.to_string())),
    })?;
    {
        let mut f = File::create(&tmp_path)?;
        f.write_all(&bytes)?;
        f.sync_data()?;
    }
    if exec.crash_point(CrashPoint::CkptPreRename) {
        // Dead before the rename: only the temp file exists; the
        // previous checkpoint is still the newest valid one.
        return Err(CheckpointError::Crashed(CrashPoint::CkptPreRename));
    }
    fs::rename(&tmp_path, &final_path)?;
    // Make the rename itself durable (directory metadata). Best-effort:
    // not every platform lets you fsync a directory handle.
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    if exec.crash_point(CrashPoint::CkptPostRename) {
        // Dead right after publication: the checkpoint is durable,
        // everything in memory is gone.
        return Err(CheckpointError::Crashed(CrashPoint::CkptPostRename));
    }
    Ok(final_path)
}

/// All checkpoint files in `dir`, sorted ascending by sequence number.
/// Temp files and unrelated names are ignored.
pub fn list_checkpoints(dir: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(seq) = parse_checkpoint_seq(name) {
            out.push((seq, entry.path()));
        }
    }
    out.sort_by_key(|&(seq, _)| seq);
    Ok(out)
}

/// Loads the newest checkpoint that parses and passes its checksum.
/// Older checkpoints are tried in turn when newer ones are damaged
/// (e.g. doctored on disk — a crash cannot damage a renamed file, but
/// recovery should not be the thing that panics when something else
/// did). Returns the winning `(seq, graph)` plus how many newer files
/// had to be skipped; `None` when no checkpoint is loadable.
pub fn load_newest_valid(dir: &Path) -> std::io::Result<Option<(u64, CsrGraph, usize)>> {
    let mut ckpts = list_checkpoints(dir)?;
    ckpts.reverse();
    let mut skipped = 0usize;
    for (seq, path) in ckpts {
        match gio::read_binary_file(&path) {
            Ok(g) => return Ok(Some((seq, g, skipped))),
            Err(_) => skipped += 1,
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TempDir;
    use hcd_graph::GraphBuilder;
    use hcd_par::FaultPlan;

    fn g(edges: &[(u32, u32)]) -> CsrGraph {
        GraphBuilder::new().edges(edges.iter().copied()).build()
    }

    #[test]
    fn file_names_round_trip_and_sort() {
        for seq in [0u64, 1, 255, u64::MAX] {
            assert_eq!(parse_checkpoint_seq(&checkpoint_file_name(seq)), Some(seq));
        }
        assert!(parse_checkpoint_seq("ckpt-0000000000000001.bin.tmp").is_none());
        assert!(parse_checkpoint_seq("wal.log").is_none());
        assert!(parse_checkpoint_seq("ckpt-xyz.bin").is_none());
        // Zero-padded hex: lexicographic == numeric.
        assert!(checkpoint_file_name(9) < checkpoint_file_name(16));
    }

    #[test]
    fn write_then_load_newest() {
        let dir = TempDir::new("ckpt-test");
        let exec = Executor::sequential();
        let g1 = g(&[(0, 1), (1, 2)]);
        let g2 = g(&[(0, 1), (1, 2), (2, 0)]);
        write_checkpoint(&dir, 1, &g1, &exec).unwrap();
        write_checkpoint(&dir, 7, &g2, &exec).unwrap();
        let (seq, loaded, skipped) = load_newest_valid(&dir).unwrap().unwrap();
        assert_eq!((seq, skipped), (7, 0));
        assert_eq!(
            loaded.edges().collect::<Vec<_>>(),
            g2.edges().collect::<Vec<_>>()
        );
        assert_eq!(
            list_checkpoints(&dir)
                .unwrap()
                .into_iter()
                .map(|(s, _)| s)
                .collect::<Vec<_>>(),
            vec![1, 7]
        );
    }

    #[test]
    fn damaged_newest_falls_back_to_older() {
        let dir = TempDir::new("ckpt-test");
        let exec = Executor::sequential();
        let g1 = g(&[(0, 1)]);
        let g2 = g(&[(0, 1), (1, 2)]);
        write_checkpoint(&dir, 1, &g1, &exec).unwrap();
        let newest = write_checkpoint(&dir, 2, &g2, &exec).unwrap();
        // Flip a payload byte: the v2 checksum rejects the file.
        let mut bytes = std::fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&newest, &bytes).unwrap();
        let (seq, loaded, skipped) = load_newest_valid(&dir).unwrap().unwrap();
        assert_eq!((seq, skipped), (1, 1));
        assert_eq!(loaded.num_edges(), 1);
    }

    #[test]
    fn pre_rename_crash_leaves_only_the_temp_file() {
        let dir = TempDir::new("ckpt-test");
        let exec = Executor::sequential();
        write_checkpoint(&dir, 1, &g(&[(0, 1)]), &exec).unwrap();
        exec.set_fault_plan(FaultPlan::new().crash(CrashPoint::CkptPreRename, 0));
        let err = write_checkpoint(&dir, 2, &g(&[(0, 1), (1, 2)]), &exec).unwrap_err();
        assert!(matches!(
            err,
            CheckpointError::Crashed(CrashPoint::CkptPreRename)
        ));
        exec.clear_fault_plan();
        // Discovery ignores the orphaned temp file and serves seq 1.
        let (seq, _, _) = load_newest_valid(&dir).unwrap().unwrap();
        assert_eq!(seq, 1);
        assert!(dir
            .join(format!("{}.tmp", checkpoint_file_name(2)))
            .exists());
    }

    #[test]
    fn post_rename_crash_still_publishes_the_checkpoint() {
        let dir = TempDir::new("ckpt-test");
        let exec = Executor::sequential();
        write_checkpoint(&dir, 1, &g(&[(0, 1)]), &exec).unwrap();
        exec.set_fault_plan(FaultPlan::new().crash(CrashPoint::CkptPostRename, 0));
        let err = write_checkpoint(&dir, 2, &g(&[(0, 1), (1, 2)]), &exec).unwrap_err();
        assert!(matches!(
            err,
            CheckpointError::Crashed(CrashPoint::CkptPostRename)
        ));
        exec.clear_fault_plan();
        let (seq, loaded, _) = load_newest_valid(&dir).unwrap().unwrap();
        assert_eq!(seq, 2);
        assert_eq!(loaded.num_edges(), 2);
    }

    #[test]
    fn empty_dir_has_no_checkpoint() {
        let dir = TempDir::new("ckpt-test");
        assert!(load_newest_valid(&dir).unwrap().is_none());
    }
}
