//! Directory of snapshot files, one per checkpointed superstep.
//!
//! Files are named `snapshot-NNNNNNNN.gmck` (zero-padded superstep), so
//! lexicographic order equals superstep order. Recovery scans newest to
//! oldest, discarding anything that fails checksum validation or that the
//! caller refuses, and restores the most recent snapshot left.

use std::path::{Path, PathBuf};

use crate::error::CkptError;
use crate::snapshot::{Snapshot, SnapshotBuilder};

const EXTENSION: &str = "gmck";

/// Outcome of a [`CheckpointStore::latest_valid`] scan.
#[derive(Debug)]
pub struct Scan {
    /// The newest snapshot that validated and was accepted; `None` when
    /// no file qualified.
    pub newest: Option<Snapshot>,
    /// Files newer than it (all of them, when there is none) that were
    /// skipped: torn writes, flipped bytes and bad framing, plus the valid
    /// snapshots the caller refused.
    pub discarded: u32,
}

#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
}

impl CheckpointStore {
    /// Open (creating if necessary) a checkpoint directory.
    pub fn create(dir: impl Into<PathBuf>) -> Result<Self, CkptError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(CheckpointStore { dir })
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    pub fn path_for(&self, superstep: u32) -> PathBuf {
        self.dir
            .join(format!("snapshot-{superstep:08}.{EXTENSION}"))
    }

    /// Atomically write a snapshot for its superstep. Returns the final
    /// path and the byte count.
    pub fn write(
        &self,
        builder: &SnapshotBuilder,
        superstep: u32,
    ) -> Result<(PathBuf, u64), CkptError> {
        let path = self.path_for(superstep);
        let bytes = builder.write_atomic(&path)?;
        Ok((path, bytes))
    }

    /// All snapshot files present, as `(superstep, path)` sorted by
    /// ascending superstep. Files that don't match the naming scheme are
    /// ignored.
    pub fn list(&self) -> Result<Vec<(u32, PathBuf)>, CkptError> {
        let mut out = Vec::new();
        let entries = match std::fs::read_dir(&self.dir) {
            Ok(e) => e,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
            Err(e) => return Err(e.into()),
        };
        for entry in entries {
            let path = entry?.path();
            if let Some(step) = parse_superstep(&path) {
                out.push((step, path));
            }
        }
        out.sort_by_key(|(step, _)| *step);
        Ok(out)
    }

    /// Scan newest→oldest for the most recent snapshot that passes
    /// validation and that `accept` takes, counting the files skipped on
    /// the way. A valid snapshot `accept` refuses is removed: it can never
    /// be resumed by this caller, and left in place it would outlive the
    /// caller's own snapshots under [`prune`](CheckpointStore::prune).
    pub fn latest_valid(&self, accept: impl Fn(&Snapshot) -> bool) -> Result<Scan, CkptError> {
        let mut discarded = 0u32;
        for (_, path) in self.list()?.into_iter().rev() {
            match Snapshot::read(&path) {
                Ok(snapshot) if accept(&snapshot) => {
                    return Ok(Scan {
                        newest: Some(snapshot),
                        discarded,
                    });
                }
                Ok(_) => {
                    std::fs::remove_file(&path)?;
                    discarded += 1;
                }
                Err(_) => discarded += 1,
            }
        }
        Ok(Scan {
            newest: None,
            discarded,
        })
    }

    /// Delete all but the newest `keep` snapshots. `keep == 0` keeps
    /// everything.
    pub fn prune(&self, keep: usize) -> Result<(), CkptError> {
        if keep == 0 {
            return Ok(());
        }
        let files = self.list()?;
        if files.len() > keep {
            for (_, path) in &files[..files.len() - keep] {
                std::fs::remove_file(path)?;
            }
        }
        Ok(())
    }
}

fn parse_superstep(path: &Path) -> Option<u32> {
    if path.extension()?.to_str()? != EXTENSION {
        return None;
    }
    let stem = path.file_stem()?.to_str()?;
    stem.strip_prefix("snapshot-")?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn fresh_dir(tag: &str) -> PathBuf {
        static N: AtomicU32 = AtomicU32::new(0);
        std::env::temp_dir().join(format!(
            "gm-ckpt-store-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn snap(superstep: u32) -> SnapshotBuilder {
        SnapshotBuilder::new(superstep, 4).section("values", vec![superstep as u8; 8])
    }

    #[test]
    fn write_list_latest() {
        let dir = fresh_dir("basic");
        let store = CheckpointStore::create(&dir).unwrap();
        for step in [2u32, 4, 6] {
            store.write(&snap(step), step).unwrap();
        }
        let listed: Vec<u32> = store.list().unwrap().into_iter().map(|(s, _)| s).collect();
        assert_eq!(listed, vec![2, 4, 6]);
        let scan = store.latest_valid(|_| true).unwrap();
        assert_eq!(scan.newest.unwrap().superstep, 6);
        assert_eq!(scan.discarded, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_newest_falls_back_to_previous() {
        let dir = fresh_dir("corrupt");
        let store = CheckpointStore::create(&dir).unwrap();
        for step in [1u32, 2, 3] {
            store.write(&snap(step), step).unwrap();
        }
        // Flip one byte in the newest snapshot.
        let newest = store.path_for(3);
        let mut bytes = std::fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&newest, bytes).unwrap();

        let scan = store.latest_valid(|_| true).unwrap();
        assert_eq!(scan.newest.unwrap().superstep, 2);
        assert_eq!(scan.discarded, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn all_corrupt_yields_none() {
        let dir = fresh_dir("allbad");
        let store = CheckpointStore::create(&dir).unwrap();
        for step in [1u32, 2] {
            store.write(&snap(step), step).unwrap();
            std::fs::write(store.path_for(step), b"garbage").unwrap();
        }
        let scan = store.latest_valid(|_| true).unwrap();
        assert!(scan.newest.is_none());
        assert_eq!(scan.discarded, 2);
        assert_eq!(store.list().unwrap().len(), 2, "torn files stay");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn refused_snapshots_are_counted_and_removed() {
        let dir = fresh_dir("refused");
        let store = CheckpointStore::create(&dir).unwrap();
        for step in [1u32, 2, 3] {
            store.write(&snap(step), step).unwrap();
        }
        let scan = store.latest_valid(|s| s.superstep == 1).unwrap();
        assert_eq!(scan.newest.unwrap().superstep, 1);
        assert_eq!(scan.discarded, 2);
        let listed: Vec<u32> = store.list().unwrap().into_iter().map(|(s, _)| s).collect();
        assert_eq!(listed, vec![1]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_or_missing_dir_is_ok() {
        let dir = fresh_dir("missing");
        let store = CheckpointStore { dir: dir.clone() };
        assert!(store.list().unwrap().is_empty());
        assert!(store.latest_valid(|_| true).unwrap().newest.is_none());
    }

    #[test]
    fn prune_keeps_newest() {
        let dir = fresh_dir("prune");
        let store = CheckpointStore::create(&dir).unwrap();
        for step in 1..=5u32 {
            store.write(&snap(step), step).unwrap();
        }
        store.prune(2).unwrap();
        let listed: Vec<u32> = store.list().unwrap().into_iter().map(|(s, _)| s).collect();
        assert_eq!(listed, vec![4, 5]);
        store.prune(0).unwrap();
        assert_eq!(store.list().unwrap().len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unrelated_files_ignored() {
        let dir = fresh_dir("noise");
        let store = CheckpointStore::create(&dir).unwrap();
        std::fs::write(dir.join("notes.txt"), b"hi").unwrap();
        std::fs::write(dir.join("snapshot-xx.gmck"), b"hi").unwrap();
        store.write(&snap(9), 9).unwrap();
        let listed: Vec<u32> = store.list().unwrap().into_iter().map(|(s, _)| s).collect();
        assert_eq!(listed, vec![9]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
