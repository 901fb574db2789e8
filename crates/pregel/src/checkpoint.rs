//! Checkpoint configuration and the runtime ⇄ snapshot mapping.
//!
//! # What a snapshot contains
//!
//! A checkpoint taken "at superstep k" captures the BSP frontier at the
//! top of superstep k, *before* its master phase runs — exactly the state
//! a resumed run needs to re-enter the superstep loop at k:
//!
//! | section   | contents                                                    |
//! |-----------|-------------------------------------------------------------|
//! | `program` | [`VertexProgram::program_identity`] of the program that wrote it |
//! | `coord`   | active-vertex count, pending-message count, previous-superstep [`AggMap`], broadcast [`Globals`] |
//! | `master`  | opaque [`VertexProgram::save_master_state`] bytes           |
//! | `values`  | per-vertex values in vertex-id order                        |
//! | `halted`  | per-vertex halted flags in vertex-id order                  |
//! | `inbox`   | per-vertex undelivered message lists in vertex-id order     |
//! | `metrics` | accumulated [`Metrics`] (wall-clock durations included)     |
//!
//! The vertex-indexed sections are written in ascending vertex order (the
//! coordinator concatenates worker ranges in ascending worker order), so a
//! snapshot is **partition-independent**: a job checkpointed with one
//! worker count can resume with another. The only caveat is inherited from
//! the runtime's documented float semantics: floating-point `Sum`
//! aggregates are bit-reproducible only for a fixed worker count, so
//! exact-resume equivalence holds when the worker count is unchanged.
//!
//! Every section except `metrics` is byte-deterministic for identical runs
//! (metrics contain measured wall-clock durations); the determinism test
//! in `gm-algorithms` pins that property.
//!
//! A resume restores only a snapshot whose `program` section equals the
//! running program's identity ([`written_by`]). Any other file is treated
//! like one that fails its checksum: skipped, counted as discarded, and —
//! since it can never resume this program — removed.
//!
//! [`VertexProgram::save_master_state`]: crate::VertexProgram::save_master_state
//! [`VertexProgram::program_identity`]: crate::VertexProgram::program_identity

use std::path::PathBuf;

use crate::globals::{AggMap, Globals};
use crate::inbox::Inboxes;
use crate::metrics::Metrics;
use crate::program::VertexProgram;
use gm_ckpt::{ByteReader, CkptError, Persist, Snapshot, SnapshotBuilder};
use gm_graph::Graph;

/// Section names of the snapshot container.
pub(crate) const SEC_PROGRAM: &str = "program";
pub(crate) const SEC_COORD: &str = "coord";
pub(crate) const SEC_MASTER: &str = "master";
pub(crate) const SEC_VALUES: &str = "values";
pub(crate) const SEC_HALTED: &str = "halted";
pub(crate) const SEC_INBOX: &str = "inbox";
pub(crate) const SEC_METRICS: &str = "metrics";

/// Checkpointing configuration, attached to
/// [`PregelConfig::checkpoint`](crate::PregelConfig).
#[derive(Clone, Debug)]
pub struct CheckpointConfig {
    /// Snapshot interval in supersteps (must be ≥ 1): a snapshot is
    /// written at the top of every superstep `k` with `k % every == 0`,
    /// `k > 0`.
    pub every: u32,
    /// Directory holding the snapshot files (created if missing).
    pub dir: PathBuf,
    /// When `true`, [`run`](crate::run) scans `dir` before starting and
    /// resumes from the newest valid snapshot (falling back to a fresh
    /// start when none exists).
    pub resume: bool,
    /// Keep only the newest `keep` snapshots, pruning older ones after
    /// each write; `0` keeps everything.
    pub keep: usize,
}

impl CheckpointConfig {
    /// Checkpoint into `dir` every `every` supersteps.
    pub fn new(dir: impl Into<PathBuf>, every: u32) -> Self {
        CheckpointConfig {
            every,
            dir: dir.into(),
            resume: false,
            keep: 0,
        }
    }

    /// Sets whether the run resumes from the newest valid snapshot.
    pub fn with_resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// Keeps only the newest `keep` snapshots.
    pub fn with_keep(mut self, keep: usize) -> Self {
        self.keep = keep;
        self
    }
}

/// Coordinator-side state captured in the `coord` section.
pub(crate) struct CoordState {
    pub active_vertices: u32,
    pub pending_messages: u64,
    pub agg_prev: AggMap,
    pub globals: Globals,
}

pub(crate) fn encode_coord(coord: &CoordState) -> Vec<u8> {
    let mut out = Vec::new();
    coord.active_vertices.persist(&mut out);
    coord.pending_messages.persist(&mut out);
    coord.agg_prev.persist(&mut out);
    coord.globals.persist(&mut out);
    out
}

/// Everything [`run`](crate::run) needs to re-enter the superstep loop
/// where the snapshot left off. Vertex-indexed fields span the whole
/// graph; the runtime re-splits them across the current partition.
pub(crate) struct ResumeState<P: VertexProgram> {
    pub superstep: u32,
    pub coord: CoordState,
    pub metrics: Metrics,
    pub values: Vec<P::VertexValue>,
    pub halted: Vec<bool>,
    pub inboxes: Inboxes<P::Message>,
}

/// Whether `snap` can resume the program whose
/// [`VertexProgram::program_identity`] is `identity`.
pub(crate) fn written_by(snap: &Snapshot, identity: &[u8]) -> bool {
    snap.section(SEC_PROGRAM) == Some(identity)
}

/// Decodes a validated snapshot back into runtime state, restoring the
/// program's master state in the process. Fails if the snapshot was taken
/// for a different graph size or any section is malformed.
pub(crate) fn decode_snapshot<P>(
    snap: &Snapshot,
    graph: &Graph,
    program: &mut P,
) -> Result<ResumeState<P>, CkptError>
where
    P: VertexProgram,
    P::VertexValue: Persist,
    P::Message: Persist,
{
    let n = graph.num_nodes();
    if snap.num_nodes != n {
        return Err(CkptError::Decode(format!(
            "snapshot is for a {}-vertex graph, current graph has {n}",
            snap.num_nodes
        )));
    }
    let n = n as usize;

    let mut r = ByteReader::new(snap.require(SEC_COORD)?);
    let coord = CoordState {
        active_vertices: Persist::restore(&mut r)?,
        pending_messages: Persist::restore(&mut r)?,
        agg_prev: Persist::restore(&mut r)?,
        globals: Persist::restore(&mut r)?,
    };
    r.expect_end()?;

    let mut r = ByteReader::new(snap.require(SEC_VALUES)?);
    let mut values = Vec::with_capacity(n);
    for _ in 0..n {
        values.push(P::VertexValue::restore(&mut r)?);
    }
    r.expect_end()?;

    let mut r = ByteReader::new(snap.require(SEC_HALTED)?);
    let mut halted = Vec::with_capacity(n);
    for _ in 0..n {
        halted.push(bool::restore(&mut r)?);
    }
    r.expect_end()?;

    let mut r = ByteReader::new(snap.require(SEC_INBOX)?);
    let inboxes = Inboxes::restore(&mut r, n)?;
    r.expect_end()?;
    program.check_restored(graph, &values, inboxes.messages())?;

    let mut r = ByteReader::new(snap.require(SEC_MASTER)?);
    program.restore_master_state(&mut r)?;
    r.expect_end()?;

    let metrics = Metrics::from_bytes(snap.require(SEC_METRICS)?)?;

    Ok(ResumeState {
        superstep: snap.superstep,
        coord,
        metrics,
        values,
        halted,
        inboxes,
    })
}

/// One worker's range of the vertex-indexed sections of a snapshot, each
/// in vertex order.
pub(crate) struct VertexSections {
    pub values: Vec<u8>,
    pub halted: Vec<u8>,
    pub inbox: Vec<u8>,
}

/// Assembles the snapshot container from the program's identity, the
/// coordinator state, the program's master bytes, every worker's vertex
/// sections in ascending worker order, and the metrics so far. Each
/// vertex-indexed section is written as the workers' ranges back to back,
/// never joined in memory.
pub(crate) fn build_snapshot(
    superstep: u32,
    num_nodes: u32,
    identity: &[u8],
    coord: &CoordState,
    master: Vec<u8>,
    workers: Vec<VertexSections>,
    metrics: &Metrics,
) -> SnapshotBuilder {
    let (mut values, mut halted, mut inbox) = (Vec::new(), Vec::new(), Vec::new());
    for w in workers {
        values.push(w.values);
        halted.push(w.halted);
        inbox.push(w.inbox);
    }
    SnapshotBuilder::new(superstep, num_nodes)
        .section(SEC_PROGRAM, identity.to_vec())
        .section(SEC_COORD, encode_coord(coord))
        .section(SEC_MASTER, master)
        .section_parts(SEC_VALUES, values)
        .section_parts(SEC_HALTED, halted)
        .section_parts(SEC_INBOX, inbox)
        .section(SEC_METRICS, metrics.to_bytes())
}
