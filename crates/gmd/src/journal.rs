//! The write-ahead job journal: crash durability for the accepted-job
//! lifecycle.
//!
//! Every job transition the daemon makes is appended — fsync'd and
//! CRC-framed — *before* the in-memory state changes become observable,
//! so a `kill -9` loses at most the record being written, never an
//! acknowledged acceptance. On boot [`Journal::open`] replays every
//! segment, folds the records into job records, compacts the surviving
//! history into a fresh segment, and hands the daemon a [`Replay`] from
//! which it re-queues non-terminal jobs.
//!
//! The job table is the fold of the journal: the live daemon, replay and
//! compaction all turn records into a [`JobRecord`] through
//! [`JobRecord::apply`], the one job state machine, so a replayed job
//! equals the one the daemon served before the crash.
//!
//! # On-disk format
//!
//! The journal is a directory of segment files `journal-NNNNNNNN.gmj`
//! (eight-digit sequence number). Each segment reuses the `gm-ckpt`
//! framing discipline:
//!
//! ```text
//! [4B magic "GMJL"] [u32 LE version]
//! repeated records:
//!   [u32 LE payload length] [payload bytes] [u32 LE CRC-32 of payload]
//! ```
//!
//! A payload is one compact JSON object (the same dependency-free
//! `gm_obs::json` codec the API uses) with a `type` tag:
//! `accepted` (carries the full [`JobSpec`]), `started`, `retrying`,
//! `completed` (fingerprints and globals, never full property columns;
//! `"cached": true` when the result came from the result cache),
//! `failed`, and `cancelled`. Segments written before checkpoints stopped
//! being journalled may hold `checkpointed` records; replay reads them as
//! no-ops.
//!
//! [`Journal::append_all`] writes several records with one write and
//! one fsync — a result-cache hit's `accepted` + `completed` pair. They
//! stay separate frames, so replay sees two ordinary records.
//!
//! Replay is torn-tail tolerant: a record whose length field overruns
//! the file, whose CRC mismatches, or whose payload fails to parse ends
//! that segment's replay (counted in [`Replay::dropped`]) without
//! aborting the replay of other segments — exactly the contract an
//! append-only log interrupted by `kill -9` needs.
//!
//! Segments rotate once they pass `rotate_bytes`; startup compaction
//! rewrites each surviving job as the shortest record list whose fold is
//! that job — `accepted`, `started` with its attempt count when it has
//! one, and its terminal record — into one fresh segment, and only then
//! deletes the old segments, so a crash *during* compaction replays
//! duplicated records, which the fold absorbs idempotently.

use crate::job::{JobRecord, JobResult, JobSpec, JobState};
use gm_ckpt::{crc32, FaultPlan};
use gm_obs::json::{parse, Json};
use gm_obs::metrics::MetricsRegistry;
use std::collections::{BTreeMap, HashMap};
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Segment-header magic.
pub const MAGIC: &[u8; 4] = b"GMJL";
/// Segment format version.
pub const FORMAT_VERSION: u32 = 1;
/// Sanity cap on one record's payload; anything larger is treated as a
/// torn/corrupt length field during replay.
const MAX_RECORD_BYTES: u32 = 16 * 1024 * 1024;

/// Journal configuration (`--journal-dir` and friends).
#[derive(Clone, Debug)]
pub struct JournalConfig {
    /// Directory holding the segments (created if missing). Per-job
    /// checkpoint snapshots live under `<dir>/ckpt/<job-id>/`.
    pub dir: PathBuf,
    /// Rotate to a new segment once the live one passes this size.
    pub rotate_bytes: u64,
    /// Default snapshot interval for jobs that do not set
    /// `checkpoint_every` themselves; `None` arms no checkpoints.
    pub checkpoint_every: Option<u32>,
    /// The daemon's fault plan (tests only): journal appends consult it,
    /// and every job's `PregelConfig::faults` is a clone of it, so a
    /// `.times(n)` budget is shared across jobs and retry attempts.
    pub faults: FaultPlan,
}

impl JournalConfig {
    /// A journal under `dir` with a 1 MiB rotation threshold.
    pub fn new(dir: impl Into<PathBuf>) -> JournalConfig {
        JournalConfig {
            dir: dir.into(),
            rotate_bytes: 1 << 20,
            checkpoint_every: None,
            faults: FaultPlan::none(),
        }
    }
}

/// One journalled job transition.
#[derive(Clone, Debug)]
pub enum JournalRecord {
    /// The job passed admission; the full spec is persisted so a
    /// restarted daemon can re-admit it through the normal path. `backend`
    /// is the one it was accepted on, a report only: replay binds afresh.
    Accepted {
        id: String,
        backend: String,
        spec: JobSpec,
    },
    /// An execution attempt began (1-based).
    Started { id: String, attempt: u32 },
    /// A transient failure; the job waits `delay_ms` then requeues.
    Retrying {
        id: String,
        attempt: u32,
        kind: String,
        delay_ms: u64,
    },
    /// Terminal success (fingerprints et al., never property columns).
    /// The result is shared with the job record, never copied. `cached`
    /// marks a result served from the result cache instead of a run.
    Completed {
        id: String,
        wall_ms: f64,
        result: Arc<JobResult>,
        cached: bool,
    },
    /// Terminal failure.
    Failed {
        id: String,
        wall_ms: f64,
        kind: String,
        message: String,
        bundle: Option<PathBuf>,
    },
    /// Cancelled by drain or shutdown.
    Cancelled {
        id: String,
        wall_ms: f64,
        message: String,
    },
}

fn value_from_json(doc: &Json) -> Result<gm_core::value::Value, String> {
    use gm_core::value::Value;
    match doc {
        Json::Bool(b) => Ok(Value::Bool(*b)),
        Json::Int(n) => Ok(Value::Int(*n)),
        Json::UInt(n) => i64::try_from(*n)
            .map(Value::Int)
            .map_err(|_| "integer does not fit an i64".to_owned()),
        Json::Num(n) => Ok(Value::Double(*n)),
        Json::Str(s) => {
            if let Some(id) = s.strip_prefix("n:") {
                id.parse().map(Value::Node).map_err(|e| e.to_string())
            } else if let Some(id) = s.strip_prefix("e:") {
                id.parse().map(Value::Edge).map_err(|e| e.to_string())
            } else {
                Err(format!("untagged value string {s:?}"))
            }
        }
        _ => Err("value must be a scalar".to_owned()),
    }
}

fn result_from_json(doc: &Json) -> Result<JobResult, String> {
    let obj_field = |key: &str| -> Result<BTreeMap<String, Json>, String> {
        match doc.get(key) {
            Some(Json::Obj(m)) => Ok(m.clone()),
            _ => Err(format!("result missing object field `{key}`")),
        }
    };
    let ret = match doc.get("ret") {
        None | Some(Json::Null) => None,
        Some(v) => Some(value_from_json(v)?),
    };
    let mut globals = BTreeMap::new();
    for (k, v) in obj_field("globals")? {
        globals.insert(k, value_from_json(&v)?);
    }
    let mut fingerprints = BTreeMap::new();
    for (k, v) in obj_field("fingerprints")? {
        let Json::Str(s) = v else {
            return Err(format!("fingerprint `{k}` is not a string"));
        };
        fingerprints.insert(k, s);
    }
    let uint = |key: &str| -> Result<u64, String> {
        doc.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("result missing integer field `{key}`"))
    };
    Ok(JobResult {
        ret,
        globals,
        fingerprints,
        // Property columns are deliberately not journalled: they can be
        // megabytes per job, and the fingerprints pin the same bits.
        props: None,
        supersteps: uint("supersteps")? as u32,
        total_messages: uint("total_messages")?,
        total_message_bytes: uint("total_message_bytes")?,
    })
}

impl JournalRecord {
    /// The record's `type` tag (also the metrics label).
    pub fn kind(&self) -> &'static str {
        match self {
            JournalRecord::Accepted { .. } => "accepted",
            JournalRecord::Started { .. } => "started",
            JournalRecord::Retrying { .. } => "retrying",
            JournalRecord::Completed { .. } => "completed",
            JournalRecord::Failed { .. } => "failed",
            JournalRecord::Cancelled { .. } => "cancelled",
        }
    }

    /// The id of the job the record belongs to.
    pub fn id(&self) -> &str {
        match self {
            JournalRecord::Accepted { id, .. }
            | JournalRecord::Started { id, .. }
            | JournalRecord::Retrying { id, .. }
            | JournalRecord::Completed { id, .. }
            | JournalRecord::Failed { id, .. }
            | JournalRecord::Cancelled { id, .. } => id,
        }
    }

    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("type".to_owned(), Json::Str(self.kind().to_owned())),
            ("id".to_owned(), Json::Str(self.id().to_owned())),
        ];
        match self {
            JournalRecord::Accepted { backend, spec, .. } => {
                pairs.push(("backend".to_owned(), Json::Str(backend.clone())));
                pairs.push(("spec".to_owned(), spec.to_json()));
            }
            JournalRecord::Started { attempt, .. } => {
                pairs.push(("attempt".to_owned(), Json::UInt(u64::from(*attempt))));
            }
            JournalRecord::Retrying {
                attempt,
                kind,
                delay_ms,
                ..
            } => {
                pairs.push(("attempt".to_owned(), Json::UInt(u64::from(*attempt))));
                pairs.push(("kind".to_owned(), Json::Str(kind.clone())));
                pairs.push(("delay_ms".to_owned(), Json::UInt(*delay_ms)));
            }
            JournalRecord::Completed {
                wall_ms,
                result,
                cached,
                ..
            } => {
                pairs.push(("wall_ms".to_owned(), Json::Num(*wall_ms)));
                pairs.push(("result".to_owned(), Json::Obj(result.journal_fields())));
                if *cached {
                    pairs.push(("cached".to_owned(), Json::Bool(true)));
                }
            }
            JournalRecord::Failed {
                wall_ms,
                kind,
                message,
                bundle,
                ..
            } => {
                pairs.push(("wall_ms".to_owned(), Json::Num(*wall_ms)));
                pairs.push(("kind".to_owned(), Json::Str(kind.clone())));
                pairs.push(("message".to_owned(), Json::Str(message.clone())));
                pairs.push((
                    "bundle".to_owned(),
                    bundle
                        .as_ref()
                        .map(|p| Json::Str(p.display().to_string()))
                        .unwrap_or(Json::Null),
                ));
            }
            JournalRecord::Cancelled {
                wall_ms, message, ..
            } => {
                pairs.push(("wall_ms".to_owned(), Json::Num(*wall_ms)));
                pairs.push(("message".to_owned(), Json::Str(message.clone())));
            }
        }
        Json::obj(pairs)
    }

    /// Decodes one record; `Ok(None)` for a `checkpointed` record, which
    /// older segments hold and replay ignores.
    fn from_json(doc: &Json) -> Result<Option<JournalRecord>, String> {
        let str_field = |key: &str| -> Result<String, String> {
            doc.get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("record missing string field `{key}`"))
        };
        let uint = |key: &str| -> Result<u64, String> {
            doc.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("record missing integer field `{key}`"))
        };
        let wall = || -> Result<f64, String> {
            doc.get("wall_ms")
                .and_then(Json::as_f64)
                .ok_or_else(|| "record missing `wall_ms`".to_owned())
        };
        let id = str_field("id")?;
        Ok(Some(match str_field("type")?.as_str() {
            "accepted" => JournalRecord::Accepted {
                id,
                backend: str_field("backend")?,
                spec: JobSpec::from_json(doc.get("spec").ok_or("accepted record missing `spec`")?)?,
            },
            "started" => JournalRecord::Started {
                id,
                attempt: uint("attempt")? as u32,
            },
            "checkpointed" => return Ok(None),
            "retrying" => JournalRecord::Retrying {
                id,
                attempt: uint("attempt")? as u32,
                kind: str_field("kind")?,
                delay_ms: uint("delay_ms")?,
            },
            "completed" => JournalRecord::Completed {
                id,
                wall_ms: wall()?,
                result: Arc::new(result_from_json(
                    doc.get("result")
                        .ok_or("completed record missing `result`")?,
                )?),
                cached: matches!(doc.get("cached"), Some(Json::Bool(true))),
            },
            "failed" => JournalRecord::Failed {
                id,
                wall_ms: wall()?,
                kind: str_field("kind")?,
                message: str_field("message")?,
                bundle: doc.get("bundle").and_then(Json::as_str).map(PathBuf::from),
            },
            "cancelled" => JournalRecord::Cancelled {
                id,
                wall_ms: wall()?,
                message: str_field("message")?,
            },
            other => return Err(format!("unknown record type {other:?}")),
        }))
    }
}

/// The outcome of replaying every segment at startup.
#[derive(Debug, Default)]
pub struct Replay {
    /// Surviving jobs in original acceptance order, each the fold of its
    /// records; a job that must run again is reset to `queued`.
    pub jobs: Vec<JobRecord>,
    /// The spec, exactly as accepted, of every job that must run again.
    pub requeue: HashMap<String, JobSpec>,
    /// Torn/corrupt/unparseable records dropped during replay.
    pub dropped: u64,
    /// Highest numeric suffix among replayed `job-<n>` ids (0 when
    /// none) — the daemon resumes its id sequence above it.
    pub max_job_seq: u64,
    /// Segments read at startup (before compaction).
    pub segments_read: u64,
}

struct Writer {
    file: File,
    seq: u64,
    bytes: u64,
    /// Appends attempted over the journal's lifetime, for fault
    /// injection indexing.
    appends: u32,
}

/// The live journal: one writer, shared via the daemon state.
pub struct Journal {
    dir: PathBuf,
    rotate_bytes: u64,
    faults: FaultPlan,
    registry: Arc<MetricsRegistry>,
    inner: Mutex<Writer>,
}

fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("journal-{seq:08}.gmj"))
}

fn list_segments(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut segs = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(seq) = name
            .strip_prefix("journal-")
            .and_then(|s| s.strip_suffix(".gmj"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            segs.push((seq, entry.path()));
        }
    }
    segs.sort();
    Ok(segs)
}

/// Best-effort directory fsync so segment creates/deletes survive a
/// crash of the whole machine, not just the process.
fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

/// Reads one segment, stopping (and counting a drop) at the first torn
/// or corrupt record. I/O errors reading the file count as one drop —
/// replay continues with the next segment either way.
fn read_segment(path: &Path) -> (Vec<Json>, u64) {
    let buf = match fs::read(path) {
        Ok(b) => b,
        Err(_) => return (Vec::new(), 1),
    };
    if buf.len() < 8 || &buf[0..4] != MAGIC {
        return (Vec::new(), 1);
    }
    let version = le_u32(&buf, 4);
    if version != FORMAT_VERSION {
        return (Vec::new(), 1);
    }
    let mut out = Vec::new();
    let mut dropped = 0u64;
    let mut pos = 8usize;
    while pos < buf.len() {
        if pos + 4 > buf.len() {
            dropped += 1; // torn length field
            break;
        }
        let len = le_u32(&buf, pos);
        let Some(end) = (len <= MAX_RECORD_BYTES)
            .then(|| pos.checked_add(8 + len as usize))
            .flatten()
            .filter(|&e| e <= buf.len())
        else {
            dropped += 1; // absurd or overrunning length: torn record
            break;
        };
        let payload = &buf[pos + 4..end - 4];
        let crc = le_u32(&buf, end - 4);
        if crc32(payload) != crc {
            dropped += 1; // corrupt record
            break;
        }
        match std::str::from_utf8(payload)
            .ok()
            .and_then(|s| parse(s).ok())
        {
            Some(doc) => out.push(doc),
            // CRC-valid but unparseable should not happen; drop just
            // this record and keep going — the frame boundary is sound.
            None => dropped += 1,
        }
        pos = end;
    }
    (out, dropped)
}

/// The little-endian `u32` at `buf[at..at + 4]`; every caller has checked
/// that those bytes exist.
fn le_u32(buf: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([buf[at], buf[at + 1], buf[at + 2], buf[at + 3]])
}

/// One job as the fold leaves it.
struct Folded {
    job: JobRecord,
    /// The spec, exactly as accepted.
    spec: JobSpec,
    /// The record that ended the job, once one did.
    terminal: Option<JournalRecord>,
}

impl Folded {
    /// The shortest record list whose fold is this job: what compaction
    /// writes back.
    fn compacted(&self) -> impl Iterator<Item = JournalRecord> {
        let Folded { job, spec, .. } = self;
        let accepted = JournalRecord::Accepted {
            id: job.id.clone(),
            backend: job.backend.clone(),
            spec: spec.clone(),
        };
        let started = (job.attempts > 0).then(|| JournalRecord::Started {
            id: job.id.clone(),
            attempt: job.attempts,
        });
        std::iter::once(accepted)
            .chain(started)
            .chain(self.terminal.clone())
    }
}

/// Folds raw records into jobs, in acceptance order, through
/// [`JobRecord::apply`]. Idempotent under record duplication (compaction
/// interrupted by a crash replays both the original and compacted copies).
fn fold(records: Vec<Json>, dropped: &mut u64) -> Vec<Folded> {
    let mut jobs: Vec<Folded> = Vec::new();
    let mut index: HashMap<String, usize> = HashMap::new();
    for doc in records {
        let rec = match JournalRecord::from_json(&doc) {
            Ok(Some(rec)) => rec,
            Ok(None) => continue,
            Err(_) => {
                *dropped += 1;
                continue;
            }
        };
        let at = match (&rec, index.get(rec.id())) {
            (_, Some(&at)) => at,
            (JournalRecord::Accepted { id, spec, .. }, None) => {
                index.insert(id.clone(), jobs.len());
                jobs.push(Folded {
                    job: JobRecord::default(),
                    spec: spec.clone(),
                    terminal: None,
                });
                jobs.len() - 1
            }
            // Transition records for an id whose acceptance was lost (torn
            // away with its segment) are orphans: drop them.
            (_, None) => {
                *dropped += 1;
                continue;
            }
        };
        let folded = &mut jobs[at];
        folded.job.apply(&rec);
        if folded.terminal.is_none() && folded.job.state.is_terminal() {
            folded.terminal = Some(rec);
        }
    }
    jobs
}

/// One framed record on its own (the byte-golden tests pin it).
#[cfg(test)]
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 8);
    frame_into(&mut out, payload);
    out
}

/// Appends one framed record to `out`.
fn frame_into(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
}

impl Writer {
    fn create(dir: &Path, seq: u64) -> io::Result<Writer> {
        let path = segment_path(dir, seq);
        let mut file = File::create(&path)?;
        file.write_all(MAGIC)?;
        file.write_all(&FORMAT_VERSION.to_le_bytes())?;
        file.sync_data()?;
        sync_dir(dir);
        Ok(Writer {
            file,
            seq,
            bytes: 8,
            appends: 0,
        })
    }

    /// Appends the framed records with one write and one fsync. No fault
    /// injection, no metrics — the raw primitive compaction also uses.
    fn append_raw(&mut self, recs: &[JournalRecord]) -> io::Result<u64> {
        let mut framed = Vec::new();
        for rec in recs {
            frame_into(&mut framed, rec.to_json().to_string().as_bytes());
        }
        self.file.write_all(&framed)?;
        self.file.sync_data()?;
        self.bytes += framed.len() as u64;
        Ok(framed.len() as u64)
    }
}

impl Journal {
    /// Opens (or creates) the journal under `config.dir`: replays every
    /// segment, compacts the surviving history into a fresh segment,
    /// deletes the old segments, and returns the replay alongside the
    /// live journal.
    ///
    /// `history_keep` bounds the *terminal* jobs carried forward
    /// (oldest dropped first; `0` keeps everything) — the journal-side
    /// mirror of the daemon's `--job-history-keep` GC.
    pub fn open(
        config: &JournalConfig,
        history_keep: usize,
        registry: Arc<MetricsRegistry>,
    ) -> io::Result<(Journal, Replay)> {
        fs::create_dir_all(&config.dir)?;
        let segments = list_segments(&config.dir)?;
        let mut records = Vec::new();
        let mut dropped = 0u64;
        for (_, path) in &segments {
            let (recs, d) = read_segment(path);
            records.extend(recs);
            dropped += d;
        }
        let mut jobs = fold(records, &mut dropped);

        // Oldest-first GC of terminal history, mirrored into the
        // compacted segment so restarts do not resurrect pruned jobs.
        if history_keep > 0 {
            let terminal = jobs.iter().filter(|j| j.terminal.is_some()).count();
            let mut excess = terminal.saturating_sub(history_keep);
            jobs.retain(|j| {
                if excess > 0 && j.terminal.is_some() {
                    excess -= 1;
                    return false;
                }
                true
            });
        }

        let max_job_seq = jobs
            .iter()
            .filter_map(|j| j.job.id.strip_prefix("job-"))
            .filter_map(|n| n.parse::<u64>().ok())
            .max()
            .unwrap_or(0);

        // Compact: fresh segment first, then delete the old ones. A
        // crash in between replays duplicates, which fold() absorbs.
        let next_seq = segments.last().map(|(s, _)| s + 1).unwrap_or(1);
        let mut writer = Writer::create(&config.dir, next_seq)?;
        let compacted: Vec<JournalRecord> = jobs.iter().flat_map(Folded::compacted).collect();
        writer.append_raw(&compacted)?;
        for (_, path) in &segments {
            let _ = fs::remove_file(path);
        }
        sync_dir(&config.dir);

        let mut requeue = HashMap::new();
        let jobs = (jobs.into_iter())
            .map(|folded| {
                let mut job = folded.job;
                if folded.terminal.is_none() {
                    job.state = JobState::Queued;
                    requeue.insert(job.id.clone(), folded.spec);
                }
                job
            })
            .collect();

        // Checkpoint directories of jobs that no longer need them
        // (terminal, pruned, or never journalled) are garbage.
        let ckpt_root = config.dir.join("ckpt");
        if let Ok(entries) = fs::read_dir(&ckpt_root) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                if name.to_str().is_none_or(|n| !requeue.contains_key(n)) {
                    let _ = fs::remove_dir_all(entry.path());
                }
            }
        }

        let replay = Replay {
            dropped,
            max_job_seq,
            segments_read: segments.len() as u64,
            jobs,
            requeue,
        };
        registry
            .counter(
                "gm_journal_dropped_records_total",
                "torn/corrupt journal records dropped during replay",
            )
            .add(replay.dropped);
        for job in &replay.jobs {
            registry
                .counter_with(
                    "gm_journal_replayed_total",
                    "jobs reconstructed from the journal at startup",
                    &[("state", job.state.status())],
                )
                .inc();
        }
        let journal = Journal {
            dir: config.dir.clone(),
            rotate_bytes: config.rotate_bytes.max(1),
            faults: config.faults.clone(),
            registry,
            inner: Mutex::new(writer),
        };
        Ok((journal, replay))
    }

    /// Appends one record, fsyncs it, and rotates the segment when the
    /// live one has grown past the threshold. An error means the record
    /// is *not* durable — callers must treat the transition as failed.
    pub fn append(&self, rec: &JournalRecord) -> io::Result<()> {
        self.append_all(std::slice::from_ref(rec))
    }

    /// Appends several records under one write and one fsync: all of
    /// them are durable, or (on an error) the caller must treat every
    /// transition as failed. Each record still takes its own
    /// fault-injection index; an injected failure on any of them writes
    /// nothing.
    pub fn append_all(&self, recs: &[JournalRecord]) -> io::Result<()> {
        let mut w = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let first = w.appends;
        w.appends += recs.len() as u32;
        let tripped = (first..w.appends).fold(None, |hit, index| {
            let trips = self.faults.trip_fail_journal_append(index);
            hit.or(trips.then_some(index))
        });
        if let Some(index) = tripped {
            return Err(io::Error::other(format!(
                "injected journal append failure (record {index})"
            )));
        }
        let written = w.append_raw(recs)?;
        for rec in recs {
            self.registry
                .counter_with(
                    "gm_journal_records_total",
                    "journal records appended",
                    &[("type", rec.kind())],
                )
                .inc();
        }
        self.registry
            .counter("gm_journal_bytes_total", "journal bytes appended")
            .add(written);
        if w.bytes >= self.rotate_bytes {
            let next = Writer {
                appends: w.appends,
                ..Writer::create(&self.dir, w.seq + 1)?
            };
            *w = next;
            self.registry
                .counter("gm_journal_segments_total", "journal segments created")
                .inc();
        }
        Ok(())
    }

    /// The checkpoint-snapshot directory for one job.
    pub fn checkpoint_dir(&self, id: &str) -> PathBuf {
        self.dir.join("ckpt").join(id)
    }

    /// Removes a job's checkpoint snapshots (terminal jobs need none).
    pub fn remove_checkpoints(&self, id: &str) {
        let _ = fs::remove_dir_all(self.checkpoint_dir(id));
    }
}

#[cfg(test)]
mod tests;
