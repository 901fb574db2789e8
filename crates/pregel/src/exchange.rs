//! The message exchange: what happens to a superstep's messages between
//! the kernels that send them and the inboxes that receive them.
//!
//! * **push** — the compute phase ends in [`seal`]: each worker meters
//!   its per-destination-worker buckets and spills those past its budget
//!   share. The coordinator then transposes the sealed buckets
//!   (a worker-count-squared pointer move, no message is copied) and every
//!   destination worker [`deliver`](WorkerState::deliver)s them — moving
//!   each message into its `inbox_out` in ascending sender-worker order,
//!   replaying spill files in place — before swapping the double buffer.
//! * **pull** — a gathered superstep replaces the transpose and delivery
//!   with a [`gather`](WorkerState::gather): every worker walks its
//!   vertices' in-edges over the reverse CSR and reads the senders' side
//!   through one routine, [`Fill`]. Payloads re-evaluated under
//!   [`PullMode::Recomputed`] are new values: the walk writes them into
//!   `inbox_out` and meters them per sender-worker segment.
//!   [`PullMode::Captured`] payloads are copied nowhere: they stay in the
//!   senders' [`Captured`] columns, compute already metered them
//!   sender-side, and the barrier only counts the halted receivers they
//!   wake. The next compute hands each kernel an [`Inbox`] view that
//!   folds them in place. Either way the meters, pending count and
//!   reactivations are the ones a push superstep would produce, at the
//!   same barrier.

use crate::error::WorkerFailure;
use crate::govern::{read_spill_into, write_spill};
use crate::inbox::{Captured, Columns, Inbox};
use crate::metrics::SuperstepMetrics;
use crate::program::{PullMode, VertexProgram};
use crate::worker::{check_deadline, read_lock, Shared, Step, VertexStore, WorkerState};
use gm_ckpt::{CkptError, Persist};
use gm_graph::{Graph, NodeId};
use gm_obs::{Category, Tracer};
use std::path::PathBuf;
use std::sync::RwLockReadGuard;
use std::time::{Duration, Instant};

/// One bucket per worker, as filled by the vertex kernels (indexed by
/// destination) or drained by a delivery (indexed by sender). Also the
/// shape of recycled spare buckets.
pub(crate) type RawOutbox<M> = Vec<Vec<(u32, M)>>;

/// A sealed destination bucket after metering: either resident
/// in memory, or spilled to a CRC-checked file with its (emptied) bucket
/// carried along so the capacity survives the round trip.
pub(crate) enum RoutedBucket<M> {
    Mem(Vec<(u32, M)>),
    Spilled {
        path: PathBuf,
        /// Entry count, validated against the file at replay.
        messages: u64,
        /// The drained bucket; replay decodes into it, so the allocation
        /// is recycled exactly like a resident bucket's.
        spare: Vec<(u32, M)>,
    },
}

impl<M> RoutedBucket<M> {
    /// The bucket's allocation, for recycling into a sender's outbox.
    pub fn into_spare(self) -> Vec<(u32, M)> {
        match self {
            RoutedBucket::Mem(bucket) => bucket,
            RoutedBucket::Spilled { spare, .. } => spare,
        }
    }
}

/// Messages as they would cross the wire, counted apart for those whose
/// other end lives on a different worker.
#[derive(Clone, Copy, Default)]
pub(crate) struct Meter {
    pub messages: u64,
    pub bytes: u64,
    pub remote_messages: u64,
    pub remote_bytes: u64,
}

impl Meter {
    fn add(&mut self, messages: u64, bytes: u64, remote: bool) {
        self.messages += messages;
        self.bytes += bytes;
        if remote {
            self.remote_messages += messages;
            self.remote_bytes += bytes;
        }
    }

    /// Meters one broadcast of a `bytes`-byte payload as the
    /// copies push would route: `local` to the sender's own worker,
    /// `remote` to others.
    pub fn broadcast(&mut self, local: u64, remote: u64, bytes: u64) {
        self.add(local, local * bytes, false);
        self.add(remote, remote * bytes, true);
    }

    /// Meters one sender worker's segment of a gathered inbox.
    fn segment<P: VertexProgram>(&mut self, program: &P, segment: &[P::Message], remote: bool) {
        if !segment.is_empty() {
            let bytes = segment.iter().map(|m| program.message_bytes(m)).sum();
            self.add(segment.len() as u64, bytes, remote);
        }
    }

    /// Adds these counts to a superstep's.
    pub fn record(&self, step: &mut SuperstepMetrics) {
        step.messages_sent += self.messages;
        step.message_bytes += self.bytes;
        step.remote_messages += self.remote_messages;
        step.remote_message_bytes += self.remote_bytes;
    }
}

/// One worker's outgoing messages after [`seal`].
pub(crate) struct Sealed<M> {
    /// By destination worker.
    pub outbox: Vec<RoutedBucket<M>>,
    pub meter: Meter,
    pub combine_time: Duration,
    /// Sealed buckets this worker pushed to disk to honor its budget share.
    pub buckets_spilled: u64,
    /// Metered message bytes inside those buckets (already counted in
    /// `meter`; spilling never changes the structural metrics).
    pub spilled_message_bytes: u64,
    /// On-disk size of the spill files (payload + magic + checksum).
    pub spill_file_bytes: u64,
    pub spill_write_time: Duration,
}

/// Seals worker `worker`'s routed outgoing buckets: the metering pass
/// (timed and traced as the `combine` phase) and — past the worker's share
/// of the message budget — spilling whole buckets to disk.
pub(crate) fn seal<P: VertexProgram>(
    program: &P,
    shared: &Shared<'_, P>,
    worker: usize,
    superstep: u32,
    outbox: RawOutbox<P::Message>,
) -> Result<Sealed<P::Message>, WorkerFailure>
where
    P::Message: Persist,
{
    let tracer = shared.tracer.as_ref();
    // Metering, inside the worker: every routed message is what would
    // cross the wire.
    let combine_start_us = tracer.map(Tracer::now_us);
    let combine_started = Instant::now();
    let mut meter = Meter::default();
    for (dest, bucket) in outbox.iter().enumerate() {
        for (_, m) in bucket {
            meter.add(1, program.message_bytes(m), dest != worker);
        }
    }
    let combine_time = combine_started.elapsed();
    let tid = worker as u32 + 1;
    if let Some(t) = tracer {
        let max_bucket = outbox.iter().map(Vec::len).max().unwrap_or(0);
        t.span_at(
            "combine",
            Category::Runtime,
            tid,
            combine_start_us.unwrap_or(0),
            combine_time.as_micros() as u64,
            vec![
                ("superstep", superstep.into()),
                ("messages", meter.messages.into()),
                ("bytes", meter.bytes.into()),
                ("remote", meter.remote_messages.into()),
                ("max_bucket", max_bucket.into()),
            ],
        );
    }

    let mut sealed = Sealed {
        outbox: Vec::with_capacity(outbox.len()),
        meter,
        combine_time,
        buckets_spilled: 0,
        spilled_message_bytes: 0,
        spill_file_bytes: 0,
        spill_write_time: Duration::ZERO,
    };
    let Some(share) = shared.governor.share_per_worker else {
        sealed
            .outbox
            .extend(outbox.into_iter().map(RoutedBucket::Mem));
        return Ok(sealed);
    };
    // ---- spill: enforce this worker's share of the message budget ----
    // Runs strictly after metering, so every structural
    // metric (messages, bytes, per-superstep counts) is bit-identical
    // whether or not a bucket spills. Sealed buckets are pushed to disk
    // largest-first (ties by destination index — deterministic for a
    // fixed budget and worker count) until the resident outgoing bytes
    // fit the share.
    let bucket_bytes: Vec<u64> = outbox
        .iter()
        .map(|b| b.iter().map(|(_, m)| program.message_bytes(m)).sum())
        .collect();
    let mut resident: u64 = bucket_bytes.iter().sum();
    let mut order: Vec<usize> = (0..outbox.len()).collect();
    order.sort_by_key(|&d| (std::cmp::Reverse(bucket_bytes[d]), d));
    let mut spill = vec![false; outbox.len()];
    for &d in &order {
        if resident <= share || bucket_bytes[d] == 0 {
            break;
        }
        spill[d] = true;
        resident -= bucket_bytes[d];
    }
    for (dest, bucket) in outbox.into_iter().enumerate() {
        if !spill[dest] {
            sealed.outbox.push(RoutedBucket::Mem(bucket));
            continue;
        }
        let spill_start_us = tracer.map(Tracer::now_us);
        let spill_started = Instant::now();
        let path = shared.governor.spill_path(superstep, worker, dest);
        let written = if shared.faults.trip_fail_spill_write(superstep) {
            Err(CkptError::Io(std::io::Error::other(
                "injected fault: spill write failure",
            )))
        } else {
            write_spill(&path, &bucket)
        };
        let file_bytes = written.map_err(|source| WorkerFailure::Spill {
            worker: worker as u32,
            op: "write",
            source,
        })?;
        sealed.buckets_spilled += 1;
        sealed.spilled_message_bytes += bucket_bytes[dest];
        sealed.spill_file_bytes += file_bytes;
        sealed.spill_write_time += spill_started.elapsed();
        if let Some(t) = tracer {
            t.span_at(
                "spill_write",
                Category::Spill,
                tid,
                spill_start_us.unwrap_or(0),
                spill_started.elapsed().as_micros() as u64,
                vec![
                    ("superstep", superstep.into()),
                    ("dest", dest.into()),
                    ("messages", bucket.len().into()),
                    ("file_bytes", file_bytes.into()),
                ],
            );
        }
        let messages = bucket.len() as u64;
        // The drained bucket rides along so its capacity is recycled
        // exactly like a resident bucket's.
        let mut spare = bucket;
        spare.clear();
        sealed.outbox.push(RoutedBucket::Spilled {
            path,
            messages,
            spare,
        });
    }
    Ok(sealed)
}

/// Per-worker results of one delivery phase.
pub(crate) struct DeliverOut<M> {
    /// Messages moved into this worker's inbox (next superstep's pending).
    pub delivered: u64,
    /// Halted vertices reactivated by a delivered message.
    pub reactivated: u32,
    /// Drained buckets (in sender order) handed back so their capacity can
    /// be recycled into the senders' next outboxes.
    pub spent: RawOutbox<M>,
    /// Spill files replayed (and deleted) during this delivery.
    pub files_replayed: u64,
    pub spill_read_time: Duration,
}

/// Per-worker results of one gather phase (a gathered superstep's
/// replacement for exchange + delivery). The meter counts what the
/// equivalent push superstep would have put on the wire, so structural
/// metrics stay bit-identical across schedules.
pub(crate) struct GatherOut {
    /// Messages pending for this worker's vertices (next superstep's
    /// pending), whether written to its inboxes or left captured.
    pub delivered: u64,
    /// Halted vertices reactivated by a gathered message.
    pub reactivated: u32,
    pub meter: Meter,
}

/// The senders' side of a gathered superstep, one entry per worker.
enum Senders<'s, P: VertexProgram> {
    Captured(Vec<RwLockReadGuard<'s, Captured<P::Message>>>),
    /// Which send sites fired, and the post-kernel values the payloads
    /// are re-evaluated against.
    Recomputed(Vec<RwLockReadGuard<'s, VertexStore<P>>>),
}

/// Rebuilds any receiver's inbox of a gathered superstep from the senders'
/// side: the one routine behind the gather phase, and behind the inbox
/// view compute and checkpoints read after a [`PullMode::Captured`]
/// superstep ([`Fill::inbox`]).
///
/// Determinism mirrors push exactly. `in_sources` lists in-edges in
/// forward-edge-id order — (sender ascending, adjacency position
/// ascending) — which is precisely the order a sender worker's broadcasts
/// fill its push bucket in, and the walk splits them
/// into ascending sender-worker segments just like delivery appends
/// buckets in ascending sender-worker order. So the inbox contents,
/// message/byte meters and reactivation counts are bit-identical to a push
/// superstep's.
pub(crate) struct Fill<'s, P: VertexProgram> {
    graph: &'s Graph,
    starts: &'s [u32],
    program: &'s P,
    senders: Senders<'s, P>,
    /// Every captured column is full (see [`Columns::full`]).
    full: bool,
}

impl<'s, P: VertexProgram> Fill<'s, P> {
    /// Reads the payloads captured at `superstep`. Read-locks every
    /// worker's column of that superstep's parity until dropped.
    pub fn captured(shared: &'s Shared<'_, P>, program: &'s P, superstep: u32) -> Self {
        let columns = shared.captured[superstep as usize % 2]
            .iter()
            .map(read_lock)
            .collect();
        Self::new(
            shared.graph,
            &shared.starts,
            program,
            Senders::Captured(columns),
        )
    }

    /// Re-evaluates the payloads of this superstep's fired send sites.
    /// Read-locks every worker's store until dropped.
    pub fn recomputed(shared: &'s Shared<'_, P>, program: &'s P) -> Self {
        let stores = shared.stores.iter().map(read_lock).collect();
        Self::new(
            shared.graph,
            &shared.starts,
            program,
            Senders::Recomputed(stores),
        )
    }

    fn new(graph: &'s Graph, starts: &'s [u32], program: &'s P, senders: Senders<'s, P>) -> Self {
        let full = match &senders {
            Senders::Captured(columns) => columns.iter().all(|c| c.full()),
            Senders::Recomputed(_) => false,
        };
        Fill {
            graph,
            starts,
            program,
            senders,
            full,
        }
    }

    /// `receiver`'s captured messages, read in place.
    ///
    /// # Panics
    ///
    /// Panics for recomputed payloads, which exist only once
    /// [`fill`](Fill::fill) evaluates them.
    pub fn inbox(&self, receiver: u32) -> Inbox<'_, P::Message> {
        let Senders::Captured(columns) = &self.senders else {
            unreachable!("only captured payloads can be read in place")
        };
        let columns = Columns {
            columns,
            starts: self.starts,
            full: self.full,
        };
        Inbox::gathered(self.graph.in_sources(NodeId(receiver)), columns)
    }

    /// Appends `receiver`'s re-evaluated messages to `inbox` in push
    /// delivery order, and hands `segment` each sender worker's share of
    /// them.
    ///
    /// # Panics
    ///
    /// Panics for captured payloads, which are read in place instead.
    pub fn fill(
        &self,
        receiver: u32,
        inbox: &mut Vec<P::Message>,
        mut segment: impl FnMut(usize, &[P::Message]),
    ) {
        let Senders::Recomputed(stores) = &self.senders else {
            unreachable!("captured payloads are read in place")
        };
        let sources = self.graph.in_sources(NodeId(receiver));
        // In step with `sources`, for the edge ids payloads depend on.
        let mut in_edges = self.graph.in_neighbors(NodeId(receiver));
        let (mut at, mut w) = (0, 0);
        while let Some(&first) = sources.get(at) {
            // The segment of sender worker `w`, which owns ids `lo..hi`:
            // the run of sources below `hi`. Workers only move forward.
            while first >= self.starts[w + 1] {
                w += 1;
            }
            let (lo, hi) = (self.starts[w], self.starts[w + 1]);
            let end = at + sources[at..].iter().take_while(|&&s| s < hi).count();
            let seg = inbox.len();
            let store = &stores[w];
            for (src, edge) in in_edges.by_ref().take(end - at) {
                let local = (src.0 - lo) as usize;
                if store.sent[local] {
                    let value = &store.values[local];
                    inbox.push(self.program.pull_message(self.graph, src, edge, value));
                }
            }
            segment(w, &inbox[seg..]);
            at = end;
        }
    }
}

impl<P: VertexProgram> WorkerState<P> {
    /// A gathered superstep's replacement for exchange + delivery. Under
    /// [`PullMode::Recomputed`] it walks every owned vertex's in-edges
    /// through [`Fill`] and meters each sender-worker segment as the
    /// messages that worker would have put on the wire, writing the
    /// re-evaluated messages into `inbox_out` and swapping the double
    /// buffer, as delivery does.
    ///
    /// [`PullMode::Captured`] payloads are not copied here: they
    /// stay in the captured columns, which nothing overwrites until the
    /// superstep after, and the next compute reads them through an
    /// [`Inbox`] view. Every such payload reaches each of its sender's
    /// out-neighbours unchanged, so compute already metered the broadcasts
    /// sender-side ([`WorkerState::broadcasts`]) and the walk visits only
    /// halted vertices, to count those a message wakes.
    pub fn gather(
        &mut self,
        shared: &Shared<'_, P>,
        step: Step,
    ) -> Result<GatherOut, WorkerFailure> {
        let Step {
            superstep,
            mode,
            deadline_at,
            ..
        } = step;
        let worker = self.index;
        let tracer = shared.tracer.as_ref();
        let start_us = tracer.map(Tracer::now_us);
        let program = read_lock(&shared.program);
        let program: &P = &program;
        // Safe to read-lock every store or column for the whole phase:
        // compute and gather are barrier-separated, so no worker holds its
        // write lock here.
        let fill = match mode {
            PullMode::Captured => Fill::captured(shared, program, superstep),
            PullMode::Recomputed => Fill::recomputed(shared, program),
            PullMode::Unsupported => unreachable!("gather phase dispatched with no pull mode"),
        };
        let in_place = mode == PullMode::Captured;
        let mut meter = std::mem::take(&mut self.broadcasts);
        let mut delivered = meter.messages;
        let mut reactivated: u32 = 0;
        for local in 0..self.halted.len() {
            // Cooperative watchdog, same cadence as the compute loop.
            if local & 0xFF == 0 {
                check_deadline(deadline_at, worker as u32)?;
            }
            let receiver = self.base + local as u32;
            let received = if in_place {
                self.halted[local] && !fill.inbox(receiver).is_empty()
            } else {
                let inbox = &mut self.inbox_out[local];
                debug_assert!(inbox.is_empty());
                fill.fill(receiver, inbox, |w, segment| {
                    meter.segment(program, segment, w != worker);
                });
                delivered += inbox.len() as u64;
                !inbox.is_empty()
            };
            if self.halted[local] && received {
                reactivated += 1;
            }
        }
        drop(fill);
        if let Some(t) = tracer {
            t.span(
                "gather",
                Category::Runtime,
                worker as u32 + 1,
                start_us.unwrap_or(0),
                vec![
                    ("superstep", superstep.into()),
                    ("delivered", delivered.into()),
                    ("reactivated", reactivated.into()),
                    ("remote", meter.remote_messages.into()),
                ],
            );
        }
        if !in_place {
            // Same double-buffer handoff as delivery: the gathered messages
            // become the next superstep's `inbox_in`.
            std::mem::swap(&mut self.inbox_in, &mut self.inbox_out);
        }
        Ok(GatherOut {
            delivered,
            reactivated,
            meter,
        })
    }

    /// Moves incoming messages into this worker's out-buffer inbox — zero
    /// clones on the exchange path — preserving ascending sender-worker
    /// order, then swaps the double buffer. Spilled buckets are replayed
    /// from disk (into their carried-along spare, so the file contents land
    /// in the same allocation a resident bucket would occupy) at the exact
    /// position their sender holds in the order, so delivery order is
    /// identical to an unspilled run; each replayed file is deleted.
    pub fn deliver(
        &mut self,
        shared: &Shared<'_, P>,
        (step, incoming): (Step, Vec<RoutedBucket<P::Message>>),
    ) -> Result<DeliverOut<P::Message>, WorkerFailure>
    where
        P::Message: Persist,
    {
        let worker = self.index as u32;
        let tracer = shared.tracer.as_ref();
        let start_us = tracer.map(Tracer::now_us);
        let mut delivered: u64 = 0;
        let mut reactivated: u32 = 0;
        let mut files_replayed: u64 = 0;
        let mut spill_read_time = Duration::ZERO;
        // Largest single inbox after delivery — the per-vertex memory
        // high-water mark. Only tracked when traced.
        let mut inbox_hwm: usize = 0;
        let traced = tracer.is_some();
        let base = self.base as usize;
        let mut spent: RawOutbox<P::Message> = Vec::with_capacity(incoming.len());
        for routed in incoming {
            // Cooperative watchdog, once per sender bucket.
            check_deadline(step.deadline_at, worker)?;
            let mut bucket = match routed {
                RoutedBucket::Mem(bucket) => bucket,
                RoutedBucket::Spilled {
                    path,
                    messages,
                    mut spare,
                } => {
                    let read_started = Instant::now();
                    read_spill_into(&path, messages, &mut spare).map_err(|source| {
                        WorkerFailure::Spill {
                            worker,
                            op: "read",
                            source,
                        }
                    })?;
                    spill_read_time += read_started.elapsed();
                    files_replayed += 1;
                    // Replay is single-use; a failed delete is harmless
                    // (the run directory is per-run and temp-scoped).
                    let _ = std::fs::remove_file(&path);
                    spare
                }
            };
            for (dst, m) in bucket.drain(..) {
                let local = dst as usize - base;
                if self.halted[local] && self.inbox_out[local].is_empty() {
                    reactivated += 1;
                }
                self.inbox_out[local].push(m);
                if traced {
                    inbox_hwm = inbox_hwm.max(self.inbox_out[local].len());
                }
                delivered += 1;
            }
            spent.push(bucket);
        }
        if let Some(t) = tracer {
            t.span(
                "deliver",
                Category::Runtime,
                worker + 1,
                start_us.unwrap_or(0),
                vec![
                    ("delivered", delivered.into()),
                    ("reactivated", reactivated.into()),
                    ("inbox_hwm", inbox_hwm.into()),
                    ("files_replayed", files_replayed.into()),
                ],
            );
        }
        // `inbox_in` was fully drained during the vertex phase; after the
        // swap it holds the next superstep's messages and the drained
        // buffer (capacity intact) becomes the next delivery target.
        std::mem::swap(&mut self.inbox_in, &mut self.inbox_out);
        Ok(DeliverOut {
            delivered,
            reactivated,
            spent,
            files_replayed,
            spill_read_time,
        })
    }
}

#[cfg(test)]
mod tests;
