//! Resource governance: budgets, the spill-file codec, and the per-run
//! [`Governor`].
//!
//! # Budget semantics
//!
//! A [`ResourceBudget`] bounds three resources:
//!
//! * **in-flight message bytes** (`max_message_bytes`) — metered message
//!   bytes buffered between a superstep's combine and its delivery. The
//!   budget is split evenly across workers; when a worker's sealed
//!   destination buckets would exceed its share, whole buckets are
//!   *spilled* to disk and replayed (CRC-checked, in the same
//!   deterministic ascending-sender order) at delivery. Spilling is
//!   transparent: values, supersteps, and message/byte metrics are
//!   bit-identical to an unspilled run.
//! * **superstep wall-clock** (`superstep_deadline`) — a cooperative
//!   watchdog. Workers check the deadline between vertex kernels and
//!   between delivery buckets; the coordinator re-checks at the barrier. An
//!   over-budget superstep fails with
//!   [`PregelError::DeadlineExceeded`](crate::PregelError::DeadlineExceeded)
//!   instead of wedging the barrier. The check is cooperative: a kernel
//!   that never returns control cannot be interrupted mid-vertex.
//! * **resident value-store bytes** (`max_resident_bytes`) — a lower-bound
//!   estimate of vertex values plus undelivered inbox messages, checked at
//!   the barrier;
//!   [`PregelError::BudgetExceeded`](crate::PregelError::BudgetExceeded)
//!   when over.
//!
//! All three funnel into [`run`](crate::run)'s checkpoint-restart policy.
//!
//! # Spill-file format
//!
//! One sealed destination bucket per file: `GMSP` magic, a little-endian
//! CRC-32 of the payload, then the payload — a `u64` entry count followed
//! by `(u32 destination vertex, message)` pairs in the exact order the
//! bucket held them, encoded with the `gm-ckpt` [`Persist`] codec. Files
//! are deleted as soon as they are replayed; a run that ends cleanly
//! leaves an empty spill directory behind (and removes it).

use gm_ckpt::{crc32, ByteReader, CkptError, Persist};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Environment variable read by [`ResourceBudget::from_env`] for the
/// message-byte budget.
pub const ENV_MAX_MSG_BYTES: &str = "GM_MAX_MSG_BYTES";
/// Environment variable for the superstep deadline, in milliseconds.
pub const ENV_SUPERSTEP_DEADLINE_MS: &str = "GM_SUPERSTEP_DEADLINE_MS";
/// Environment variable for the resident value-store budget.
pub const ENV_MAX_RESIDENT_BYTES: &str = "GM_MAX_RESIDENT_BYTES";
/// Environment variable for the spill directory.
pub const ENV_SPILL_DIR: &str = "GM_SPILL_DIR";

const SPILL_MAGIC: &[u8; 4] = b"GMSP";

/// Resource limits attached to [`PregelConfig::budget`]
/// (see [crate-level docs](crate) for semantics). The default is fully
/// unbounded; [`PregelConfig::default`] instead starts from
/// [`ResourceBudget::from_env`] so an environment-constrained CI job
/// governs every run in the process.
///
/// [`PregelConfig::budget`]: crate::PregelConfig::budget
/// [`PregelConfig::default`]: crate::PregelConfig
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ResourceBudget {
    /// Maximum metered message bytes held in memory between combine and
    /// delivery, across all workers. Exceeding it spills sealed buckets
    /// to disk. `None` = unbounded.
    pub max_message_bytes: Option<u64>,
    /// Maximum wall-clock for one superstep (master through delivery).
    /// `None` = no deadline.
    pub superstep_deadline: Option<Duration>,
    /// Maximum estimated resident bytes of vertex values + undelivered
    /// inbox messages. `None` = unbounded.
    pub max_resident_bytes: Option<u64>,
    /// Directory for spill files; a per-run subdirectory is created
    /// inside it. `None` uses the system temp directory.
    pub spill_dir: Option<PathBuf>,
}

impl ResourceBudget {
    /// No limits at all (the `Default`).
    pub fn unbounded() -> Self {
        ResourceBudget::default()
    }

    /// Reads the budget from `GM_MAX_MSG_BYTES`, `GM_SUPERSTEP_DEADLINE_MS`,
    /// `GM_MAX_RESIDENT_BYTES`, and `GM_SPILL_DIR`. Unset or unparsable
    /// variables leave the corresponding limit unbounded.
    pub fn from_env() -> Self {
        fn env_u64(name: &str) -> Option<u64> {
            std::env::var(name).ok()?.trim().parse().ok()
        }
        ResourceBudget {
            max_message_bytes: env_u64(ENV_MAX_MSG_BYTES),
            superstep_deadline: env_u64(ENV_SUPERSTEP_DEADLINE_MS)
                .filter(|ms| *ms > 0)
                .map(Duration::from_millis),
            max_resident_bytes: env_u64(ENV_MAX_RESIDENT_BYTES),
            spill_dir: std::env::var_os(ENV_SPILL_DIR).map(PathBuf::from),
        }
    }

    /// Sets the in-flight message-byte budget.
    pub fn with_max_message_bytes(mut self, bytes: u64) -> Self {
        self.max_message_bytes = Some(bytes);
        self
    }

    /// Sets the superstep deadline.
    pub fn with_superstep_deadline(mut self, deadline: Duration) -> Self {
        self.superstep_deadline = Some(deadline);
        self
    }

    /// Sets the resident value-store budget.
    pub fn with_max_resident_bytes(mut self, bytes: u64) -> Self {
        self.max_resident_bytes = Some(bytes);
        self
    }

    /// Sets the spill directory.
    pub fn with_spill_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spill_dir = Some(dir.into());
        self
    }

    /// True when no limit is set (governance is entirely inactive).
    pub fn is_unbounded(&self) -> bool {
        self.max_message_bytes.is_none()
            && self.superstep_deadline.is_none()
            && self.max_resident_bytes.is_none()
    }
}

/// Per-run resolved governance state, shared read-only with the workers.
pub(crate) struct Governor {
    /// Each worker's slice of the message budget (deterministic: depends
    /// only on the budget and the worker count, never on arrival timing).
    pub share_per_worker: Option<u64>,
    pub max_resident_bytes: Option<u64>,
    pub deadline: Option<Duration>,
    /// Per-run spill directory, created iff a message budget is set.
    run_dir: Option<PathBuf>,
    seq: AtomicU64,
}

impl Governor {
    pub fn new(budget: &ResourceBudget, num_workers: usize) -> Result<Self, CkptError> {
        let mut run_dir = None;
        if budget.max_message_bytes.is_some() {
            static RUN_IDS: AtomicU64 = AtomicU64::new(0);
            let base = budget.spill_dir.clone().unwrap_or_else(std::env::temp_dir);
            let dir = base.join(format!(
                "gm-spill-{}-{}",
                std::process::id(),
                RUN_IDS.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&dir)?;
            run_dir = Some(dir);
        }
        Ok(Governor {
            share_per_worker: budget
                .max_message_bytes
                .map(|b| b / num_workers.max(1) as u64),
            max_resident_bytes: budget.max_resident_bytes,
            deadline: budget.superstep_deadline,
            run_dir,
            seq: AtomicU64::new(0),
        })
    }

    /// A fresh, unique spill-file path for one sealed bucket.
    pub fn spill_path(&self, superstep: u32, worker: usize, dest: usize) -> PathBuf {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        self.run_dir
            .as_deref()
            .unwrap_or(Path::new(""))
            .join(format!(
                "s{superstep:06}-w{worker:03}-d{dest:03}-{seq:08}.gmsp"
            ))
    }
}

impl Drop for Governor {
    fn drop(&mut self) {
        // A clean run replayed-and-deleted every spill file, so the run
        // directory is empty and `remove_dir` succeeds. After a failure the
        // leftover files survive for inspection (and artifact upload).
        if let Some(dir) = &self.run_dir {
            let _ = std::fs::remove_dir(dir);
        }
    }
}

/// Writes one sealed bucket as a CRC-checked spill file; returns the file
/// size in bytes.
pub(crate) fn write_spill<M: Persist>(path: &Path, bucket: &[(u32, M)]) -> Result<u64, CkptError> {
    // One buffer, sized from the in-memory entry width (an over-estimate
    // of the encoded width for fixed-size messages), header first and the
    // CRC patched in once the payload behind it is complete.
    let mut file = Vec::with_capacity(16 + std::mem::size_of_val(bucket));
    file.extend_from_slice(SPILL_MAGIC);
    file.extend_from_slice(&[0; 4]);
    (bucket.len() as u64).persist(&mut file);
    for (dst, m) in bucket {
        dst.persist(&mut file);
        m.persist(&mut file);
    }
    let crc = crc32(&file[8..]);
    file[4..8].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(path, &file)?;
    Ok(file.len() as u64)
}

/// Reads a spill file back into `into` (appending, in file order),
/// validating magic, CRC, and the expected entry count.
pub(crate) fn read_spill_into<M: Persist>(
    path: &Path,
    expected: u64,
    into: &mut Vec<(u32, M)>,
) -> Result<(), CkptError> {
    let bytes = std::fs::read(path)?;
    if bytes.len() < 8 {
        return Err(CkptError::Truncated);
    }
    if &bytes[..4] != SPILL_MAGIC {
        return Err(CkptError::BadMagic);
    }
    let expected_crc = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    let payload = &bytes[8..];
    let actual_crc = crc32(payload);
    if actual_crc != expected_crc {
        return Err(CkptError::ChecksumMismatch {
            expected: expected_crc,
            actual: actual_crc,
        });
    }
    let mut r = ByteReader::new(payload);
    let count = r.read_u64()?;
    if count != expected {
        return Err(CkptError::Decode(format!(
            "spill file holds {count} messages, bucket metadata says {expected}"
        )));
    }
    into.reserve(count as usize);
    for _ in 0..count {
        let dst = u32::restore(&mut r)?;
        let m = M::restore(&mut r)?;
        into.push((dst, m));
    }
    r.expect_end()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("gm-govern-{tag}-{}.gmsp", std::process::id()))
    }

    #[test]
    fn spill_file_round_trips_in_order() {
        let path = tmp("roundtrip");
        let bucket: Vec<(u32, u64)> = vec![(3, 30), (1, 10), (3, 31), (0, 0)];
        let bytes = write_spill(&path, &bucket).unwrap();
        assert!(bytes > 8);
        let mut back: Vec<(u32, u64)> = Vec::new();
        read_spill_into(&path, 4, &mut back).unwrap();
        assert_eq!(back, bucket, "replay preserves bucket order exactly");
        std::fs::remove_file(&path).unwrap();
    }

    /// The bytes the commit before the slicing-by-8 CRC and the
    /// single-buffer encode wrote for this bucket (dumped there): the
    /// GMSP format did not move, and a file written then still replays.
    #[test]
    fn spill_file_bytes_match_the_pre_slicing_golden() {
        const GOLDEN: &[u8] = b"GMSP\x77\x98\x78\xd0\
            \x04\0\0\0\0\0\0\0\
            \x03\0\0\0\x1e\0\0\0\0\0\0\0\
            \x01\0\0\0\x0a\0\0\0\0\0\0\0\
            \x03\0\0\0\x1f\0\0\0\0\0\0\0\
            \0\0\0\0\0\0\0\0\0\0\0\0";
        let bucket: Vec<(u32, u64)> = vec![(3, 30), (1, 10), (3, 31), (0, 0)];

        let path = tmp("golden");
        let written = write_spill(&path, &bucket).unwrap();
        assert_eq!(written, GOLDEN.len() as u64);
        assert_eq!(std::fs::read(&path).unwrap(), GOLDEN);

        std::fs::write(&path, GOLDEN).unwrap();
        let mut back: Vec<(u32, u64)> = Vec::new();
        read_spill_into(&path, 4, &mut back).unwrap();
        assert_eq!(back, bucket);

        // A bucket long enough for the folding CRC kernel (248 checksummed
        // bytes), dumped with the slicing-by-8 table kernel at commit
        // 6064121: folding did not move the format either.
        const FOLDED: &[u8] = b"GMSP\xf7\x42\x04\x96\
            \x14\0\0\0\0\0\0\0\
            \0\0\0\0\0\0\0\0\0\0\xf0\xbf\x07\0\0\0\0\0\0\0\0\0\xec\xbf\
            \x01\0\0\0\0\0\0\0\0\0\xe8\xbf\x08\0\0\0\0\0\0\0\0\0\xe4\xbf\
            \x02\0\0\0\0\0\0\0\0\0\xe0\xbf\x09\0\0\0\0\0\0\0\0\0\xd8\xbf\
            \x03\0\0\0\0\0\0\0\0\0\xd0\xbf\x0a\0\0\0\0\0\0\0\0\0\xc0\xbf\
            \x04\0\0\0\0\0\0\0\0\0\0\0\x0b\0\0\0\0\0\0\0\0\0\xc0\x3f\
            \x05\0\0\0\0\0\0\0\0\0\xd0\x3f\x0c\0\0\0\0\0\0\0\0\0\xd8\x3f\
            \x06\0\0\0\0\0\0\0\0\0\xe0\x3f\0\0\0\0\0\0\0\0\0\0\xe4\x3f\
            \x07\0\0\0\0\0\0\0\0\0\xe8\x3f\x01\0\0\0\0\0\0\0\0\0\xec\x3f\
            \x08\0\0\0\0\0\0\0\0\0\xf0\x3f\x02\0\0\0\0\0\0\0\0\0\xf2\x3f\
            \x09\0\0\0\0\0\0\0\0\0\xf4\x3f\x03\0\0\0\0\0\0\0\0\0\xf6\x3f";
        let bucket: Vec<(u32, f64)> = (0..20u32)
            .map(|i| ((i * 7) % 13, f64::from(i) * 0.125 - 1.0))
            .collect();
        let written = write_spill(&path, &bucket).unwrap();
        assert_eq!(written, FOLDED.len() as u64);
        assert_eq!(std::fs::read(&path).unwrap(), FOLDED);

        std::fs::write(&path, FOLDED).unwrap();
        let mut back: Vec<(u32, f64)> = Vec::new();
        read_spill_into(&path, 20, &mut back).unwrap();
        assert_eq!(back, bucket);
        std::fs::remove_file(&path).unwrap();
    }

    /// Every one-bit flip and every truncation of a bucket long enough for
    /// the folding CRC kernel is rejected with an error, never replayed.
    #[test]
    fn corrupted_spill_file_fails_checksum() {
        let path = tmp("corrupt");
        let bucket: Vec<(u32, u64)> = (0..24u32).map(|i| (i % 5, u64::from(i) << 33)).collect();
        write_spill(&path, &bucket).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let replay = |file: &[u8]| {
            std::fs::write(&path, file).unwrap();
            let mut back: Vec<(u32, u64)> = Vec::new();
            read_spill_into(&path, bucket.len() as u64, &mut back)
        };
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 1 << (i % 8);
            match replay(&bad) {
                Err(CkptError::BadMagic) if i < 4 => {}
                Err(CkptError::ChecksumMismatch { .. }) if i >= 4 => {}
                other => panic!("bit flip in byte {i}: {other:?}"),
            }
        }
        for keep in 0..bytes.len() {
            match replay(&bytes[..keep]) {
                Err(CkptError::Truncated) if keep < 8 => {}
                Err(CkptError::ChecksumMismatch { .. }) if keep >= 8 => {}
                other => panic!("truncation to {keep} bytes: {other:?}"),
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn count_mismatch_is_rejected() {
        let path = tmp("count");
        write_spill(&path, &[(1u32, 7u64)]).unwrap();
        let mut back: Vec<(u32, u64)> = Vec::new();
        let err = read_spill_into(&path, 2, &mut back).unwrap_err();
        assert!(matches!(err, CkptError::Decode(_)), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn env_budget_parses_and_ignores_garbage() {
        // Avoid mutating real env vars (tests run in parallel); exercise
        // the parse helper through a default-constructed budget instead.
        let b = ResourceBudget::unbounded();
        assert!(b.is_unbounded());
        let b = ResourceBudget::unbounded()
            .with_max_message_bytes(1024)
            .with_superstep_deadline(Duration::from_millis(50))
            .with_max_resident_bytes(1 << 20)
            .with_spill_dir("/tmp/x");
        assert!(!b.is_unbounded());
        assert_eq!(b.max_message_bytes, Some(1024));
        assert_eq!(b.superstep_deadline, Some(Duration::from_millis(50)));
        assert_eq!(b.max_resident_bytes, Some(1 << 20));
        assert_eq!(b.spill_dir.as_deref(), Some(Path::new("/tmp/x")));
    }

    #[test]
    fn governor_without_message_budget_creates_no_dir() {
        let gov = Governor::new(
            &ResourceBudget::unbounded().with_superstep_deadline(Duration::from_secs(1)),
            4,
        )
        .unwrap();
        assert!(gov.run_dir.is_none());
        assert_eq!(gov.share_per_worker, None);
        assert_eq!(gov.deadline, Some(Duration::from_secs(1)));
    }

    #[test]
    fn governor_splits_budget_across_workers() {
        let dir = std::env::temp_dir().join(format!("gm-govern-share-{}", std::process::id()));
        let gov = Governor::new(
            &ResourceBudget::unbounded()
                .with_max_message_bytes(1000)
                .with_spill_dir(&dir),
            4,
        )
        .unwrap();
        assert_eq!(gov.share_per_worker, Some(250));
        let run_dir = gov.run_dir.clone().unwrap();
        assert!(run_dir.is_dir());
        let p1 = gov.spill_path(3, 1, 2);
        let p2 = gov.spill_path(3, 1, 2);
        assert_ne!(p1, p2, "paths are unique per spill");
        drop(gov);
        assert!(!run_dir.exists(), "empty run dir removed on drop");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
