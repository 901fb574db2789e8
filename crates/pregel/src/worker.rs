//! Workers: the per-run shared state, one worker's share of the graph, the
//! vertex-kernel and snapshot phases, and the [`Executor`] that runs a
//! phase on every worker.
//!
//! A run owns one [`WorkerState`] per worker: the worker's contiguous vertex
//! range (halted flags) plus one **flat inbox** ([`Inboxes`]: a message
//! column and per-vertex offsets). The vertex values live apart, in
//! [`Shared::stores`], so a gathered superstep can read every range. Each
//! superstep's compute phase runs the kernels against the inbox and routes
//! outgoing messages into per-destination-worker buckets, which the
//! exchange layer seals (meter, spill) and later delivers into the same
//! inbox: compute has read it by then, so it needs no second buffer.
//!
//! After a [`PullMode::Captured`] superstep the pending
//! messages are in no inbox: they are still the senders' payloads in
//! [`Shared::captured`] ([`Pending::Captured`]). The next compute hands
//! each kernel an [`Inbox`] view that walks the receiver's in-edges and
//! folds those payloads in place, copying none of them. A checkpoint taken
//! in between walks the same view, so it serializes the inbox a push run
//! would hold.
//!
//! A phase is a plain function of one worker's state, the [`Shared`] run
//! state and a per-worker input. [`Executor::each`] runs it on every worker
//! and returns the outputs in ascending worker order — the order every
//! merge at the barrier relies on. It has two transports: **inline** on the
//! calling thread when the run has one worker (every job `gmd` serves runs
//! that way, so it must not pay for a thread), and otherwise a **pool** of
//! threads that lives for the whole run, one per worker, parked on its task
//! channel between phases. Nothing is spawned per superstep.

use crate::checkpoint::VertexSections;
use crate::error::{PregelError, WorkerFailure};
use crate::exchange::{seal, Fill, Meter, RawOutbox, Sealed};
use crate::globals::{AggMap, Globals};
use crate::govern::Governor;
use crate::inbox::{Captured, Inbox, Inboxes};
use crate::program::{PullMode, PullSink, VertexContext, VertexProgram};
use gm_ckpt::{FaultPlan, Persist};
use gm_graph::{Graph, NodeId};
use gm_obs::{Category, Tracer};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

/// Read-only state shared with the workers. The program sits behind a
/// lock because the master kernel needs `&mut P` between phases while the
/// workers read `&P` during them; the lock is only ever contended across
/// phase boundaries, never within one.
pub(crate) struct Shared<'a, P: VertexProgram> {
    pub graph: &'a Graph,
    pub program: RwLock<&'a mut P>,
    pub globals: RwLock<Globals>,
    /// One per-vertex store per worker. A worker takes the write lock on
    /// its own store for compute/snapshot phases; gathered supersteps take
    /// read locks on all stores (phases are barrier-separated, so the two
    /// access patterns never overlap).
    pub stores: Vec<RwLock<VertexStore<P>>>,
    /// Captured broadcast payloads, one column per worker, double-buffered
    /// by superstep parity: a [`PullMode::Captured`] superstep `s` writes
    /// `captured[s % 2]` while its compute folds superstep `s - 1`'s
    /// payloads out of the other buffer. Each column has its own lock,
    /// apart from the stores, because that fold reads every worker's
    /// column while each worker writes its own.
    pub captured: [Vec<RwLock<Captured<P::Message>>>; 2],
    /// Worker range starts; worker `w` owns `starts[w]..starts[w + 1]`.
    pub starts: Vec<u32>,
    /// Trace destination, cloned out of the config; `None` disables all
    /// instrumentation at the cost of one branch per phase.
    pub tracer: Option<Tracer>,
    /// Fault-injection plan; the production default is empty and costs one
    /// slice iteration (over zero elements) per consultation.
    pub faults: FaultPlan,
    /// Resolved resource limits; entirely inactive (all `None`) unless the
    /// config sets a budget.
    pub governor: Governor,
}

pub(crate) fn read_lock<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

pub(crate) fn write_lock<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// One worker's per-vertex state, kept in [`Shared`] so gathered
/// supersteps can read other workers' vertices. `sent` is intra-superstep
/// pull scratch: reset at the top of every [`PullMode::Recomputed`]
/// compute phase and consumed by the same superstep's gather, so it never
/// needs to be checkpointed.
pub(crate) struct VertexStore<P: VertexProgram> {
    pub values: Vec<P::VertexValue>,
    /// Whether the vertex's send site fired
    /// ([`PullMode::Recomputed`] supersteps).
    pub sent: Vec<bool>,
}

impl<P: VertexProgram> VertexStore<P> {
    pub fn from_values(values: Vec<P::VertexValue>) -> Self {
        VertexStore {
            values,
            // Sized lazily at the first recomputed superstep; other runs
            // never allocate it.
            sent: Vec::new(),
        }
    }
}

/// Where the messages a superstep consumes are.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Pending {
    /// In every worker's `inbox`: delivered by push, gathered eagerly
    /// under [`PullMode::Recomputed`], or restored from a snapshot.
    Delivered,
    /// Still in the columns captured at this superstep, read in place
    /// through each receiver's [`Inbox`] view.
    Captured(u32),
}

/// What every worker is told about the superstep a phase belongs to.
#[derive(Clone, Copy)]
pub(crate) struct Step {
    pub superstep: u32,
    /// The direction: `Unsupported` routes (push); otherwise compute
    /// absorbs sends (captured or marked) and gather reads them.
    pub mode: PullMode,
    /// Where this superstep's incoming messages are.
    pub pending: Pending,
    /// Cooperative watchdog cutoff for this superstep, when budgeted.
    pub deadline_at: Option<Instant>,
}

/// Returns the watchdog failure once `deadline_at` has passed.
pub(crate) fn check_deadline(
    deadline_at: Option<Instant>,
    worker: u32,
) -> Result<(), WorkerFailure> {
    match deadline_at {
        Some(at) if Instant::now() >= at => Err(WorkerFailure::Deadline { worker }),
        _ => Ok(()),
    }
}

/// A worker's share of the computation: a contiguous vertex range with its
/// halted flags and inbox. Owned by one pool thread for the whole run (or
/// by the calling thread when single-worker). The vertex values live apart
/// in [`Shared::stores`] so gathered supersteps can read every range.
pub(crate) struct WorkerState<P: VertexProgram> {
    pub index: usize,
    pub base: u32,
    pub halted: Vec<bool>,
    /// The messages this superstep's kernels consume, when
    /// [`Pending::Delivered`]; the next delivery or gather overwrites them.
    pub inbox: Inboxes<P::Message>,
    /// This superstep's captured broadcasts, metered sender-side by
    /// compute; handed to the gather.
    pub broadcasts: Meter,
    /// Per owned vertex, its out-edges into this worker's own range: the
    /// local share of a broadcast. Built at the first captured superstep.
    local_out: Vec<u32>,
    /// The vertex whose kernel is running, so a caught panic can be
    /// attributed to it; `None` outside the vertex loop.
    running: Option<u32>,
}

/// Per-worker results of one compute phase.
pub(crate) struct ComputeOut<M> {
    pub agg: AggMap,
    /// Vertices whose kernel ran.
    pub computed: u32,
    /// Vertices in this range left unhalted after the kernel ran.
    pub not_halted: u32,
    pub compute_time: Duration,
    /// The outgoing messages, metered and (past the budget) spilled.
    pub sealed: Sealed<M>,
}

impl<P: VertexProgram> WorkerState<P> {
    pub fn new(index: usize, starts: &[u32]) -> Self {
        let base = starts[index];
        let len = (starts[index + 1] - base) as usize;
        WorkerState::from_restored(index, base, vec![false; len], Inboxes::empty(len))
    }

    /// Rebuilds a worker's state from a snapshot's vertex-indexed slices.
    /// The restored inbox holds the messages the checkpointed superstep
    /// was about to consume.
    pub fn from_restored(
        index: usize,
        base: u32,
        halted: Vec<bool>,
        inbox: Inboxes<P::Message>,
    ) -> Self {
        WorkerState {
            index,
            base,
            halted,
            inbox,
            broadcasts: Meter::default(),
            local_out: Vec::new(),
            running: None,
        }
    }

    /// Serializes this worker's range for a checkpoint: values, halted
    /// flags, and the pending inbox, each in local vertex order.
    pub fn snapshot(
        &mut self,
        shared: &Shared<'_, P>,
        pending: Pending,
    ) -> Result<VertexSections, WorkerFailure>
    where
        P::VertexValue: Persist,
        P::Message: Persist,
    {
        let tracer = shared.tracer.as_ref();
        let start_us = tracer.map(Tracer::now_us);
        // Each buffer is sized once from the in-memory widths (exact for
        // fixed-width values and messages) rather than grown by doubling:
        // the sections are the largest buffers a checkpoint allocates.
        let len = self.halted.len();
        let mut values = Vec::with_capacity(len * size_of::<P::VertexValue>());
        for v in &read_lock(&shared.stores[self.index]).values {
            v.persist(&mut values);
        }
        let mut halted = Vec::with_capacity(len);
        for h in &self.halted {
            h.persist(&mut halted);
        }
        let messages: usize = match pending {
            Pending::Delivered => self.inbox.messages().len(),
            // At most one per in-edge.
            Pending::Captured(_) => (self.base..self.base + len as u32)
                .map(|v| shared.graph.in_degree(NodeId(v)) as usize)
                .sum(),
        };
        // A `u64` length per vertex, then the messages.
        let mut inbox = Vec::with_capacity(len * 8 + messages * size_of::<P::Message>());
        match pending {
            Pending::Delivered => self.inbox.persist(&mut inbox),
            // Read through the view the next compute would get, and
            // written as `Vec<M>` persists (length, then each message), so
            // the bytes do not depend on the schedule.
            Pending::Captured(at) => {
                let program = read_lock(&shared.program);
                let fill = Fill::captured(shared, &**program, at);
                for local in 0..self.halted.len() {
                    let messages = fill.inbox(self.base + local as u32);
                    (messages.len() as u64).persist(&mut inbox);
                    messages.for_each(|m| m.persist(&mut inbox));
                }
            }
        }
        if let Some(t) = tracer {
            t.span(
                "snapshot",
                Category::Ckpt,
                self.index as u32 + 1,
                start_us.unwrap_or(0),
                vec![("bytes", (values.len() + halted.len() + inbox.len()).into())],
            );
        }
        Ok(VertexSections {
            values,
            halted,
            inbox,
        })
    }

    /// Runs the vertex kernels for this range, then hands the routed
    /// outgoing buckets to [`seal`] — all inside the worker.
    ///
    /// Returns a [`WorkerFailure`] instead of panicking for every failure
    /// the phase itself can observe: deadline overruns (checked every 256
    /// vertices) and spill I/O errors.
    pub fn compute(
        &mut self,
        shared: &Shared<'_, P>,
        (step, spare): (Step, RawOutbox<P::Message>),
    ) -> Result<ComputeOut<P::Message>, WorkerFailure>
    where
        P::Message: Persist,
    {
        let Step {
            superstep,
            mode,
            pending,
            deadline_at,
        } = step;
        let worker = self.index as u32;
        if shared.faults.trip_panic_in_compute(superstep, worker) {
            panic!(
                "injected fault: compute panic at superstep {superstep} on worker {}",
                self.index
            );
        }
        if shared.faults.trip_hang_in_compute(superstep, worker) {
            // Simulated wedged kernel: spin until the deadline watchdog
            // cancels the phase. A 5s backstop keeps a misconfigured test
            // (hang fault, no deadline) from wedging the whole suite.
            let hung_at = Instant::now();
            loop {
                check_deadline(deadline_at, worker)?;
                if hung_at.elapsed() > Duration::from_secs(5) {
                    return Err(WorkerFailure::Deadline { worker });
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let program = read_lock(&shared.program);
        let globals = read_lock(&shared.globals);
        let mut store = write_lock(&shared.stores[self.index]);
        let tracer = shared.tracer.as_ref();
        let compute_start_us = tracer.map(Tracer::now_us);
        let compute_started = Instant::now();
        // Recycled buckets from the previous exchange: empty, but with the
        // capacity earlier supersteps grew. Pad on the first superstep.
        let mut outbox = spare;
        outbox.resize_with(shared.starts.len() - 1, Vec::new);
        debug_assert!(outbox.iter().all(|b| b.is_empty()));
        let VertexStore { values, sent } = &mut *store;
        let len = values.len();
        // Intra-superstep gather scratch: reset here, consumed by this
        // superstep's gather phase. A vertex the loop below skips sends
        // nothing, exactly like push.
        let mut captured = None;
        match mode {
            PullMode::Unsupported => {}
            PullMode::Captured => {
                let mut column = write_lock(&shared.captured[superstep as usize % 2][self.index]);
                column.reset(len);
                captured = Some(column);
                if self.local_out.len() != len {
                    let own = self.base..self.base + len as u32;
                    self.local_out = own
                        .clone()
                        .map(|v| {
                            let targets = shared.graph.out_neighbors(NodeId(v));
                            targets.filter(|(t, _)| own.contains(&t.0)).count() as u32
                        })
                        .collect();
                }
            }
            PullMode::Recomputed => {
                sent.clear();
                sent.resize(len, false);
            }
        }
        // Messages still captured by the previous superstep never land in
        // the inbox: each kernel reads them in place.
        let fill = match pending {
            Pending::Delivered => None,
            Pending::Captured(at) => Some(Fill::captured(shared, &**program, at)),
        };
        let cuts = &shared.starts[1..shared.starts.len() - 1];
        let mut agg = AggMap::new();
        let mut computed: u32 = 0;
        let mut voted_halt: u32 = 0;
        for local in 0..len {
            let id = self.base + local as u32;
            self.running = Some(id);
            let messages = match &fill {
                None => Inbox::from(self.inbox.get(local)),
                Some(fill) => fill.inbox(id),
            };
            if self.halted[local] && messages.is_empty() {
                continue;
            }
            // Cooperative watchdog: cheap enough to leave in the hot loop
            // (one branch when unbudgeted), frequent enough that a slow —
            // not wedged — kernel is cancelled within 256 vertices.
            if local & 0xFF == 0 {
                check_deadline(deadline_at, worker)?;
            }
            self.halted[local] = false;
            computed += 1;
            let mut slot = None;
            let mut ctx = VertexContext {
                id: NodeId(id),
                superstep,
                graph: shared.graph,
                broadcast: &globals,
                agg: &mut agg,
                outbox: &mut outbox,
                cuts,
                halted: &mut self.halted[local],
                pull: match mode {
                    PullMode::Unsupported => PullSink::Route,
                    PullMode::Captured => PullSink::Capture(&mut slot),
                    PullMode::Recomputed => PullSink::Mark(&mut sent[local]),
                },
            };
            program.vertex_compute(&mut ctx, &mut values[local], messages);
            if self.halted[local] {
                voted_halt += 1;
            }
            if let (Some(column), Some(m)) = (captured.as_mut(), slot) {
                let local_copies = self.local_out[local];
                let remote_copies = shared.graph.out_degree(NodeId(id)) - local_copies;
                let bytes = program.message_bytes(&m);
                self.broadcasts
                    .broadcast(local_copies.into(), remote_copies.into(), bytes);
                column.set(local, m);
            }
        }
        self.running = None;
        if let Some(column) = captured.as_mut() {
            column.settle();
        }
        let compute_time = compute_started.elapsed();
        if let Some(t) = tracer {
            t.span_at(
                "compute",
                Category::Runtime,
                worker + 1,
                compute_start_us.unwrap_or(0),
                compute_time.as_micros() as u64,
                vec![
                    ("superstep", superstep.into()),
                    ("computed", computed.into()),
                ],
            );
        }
        let sealed = seal(&**program, shared, self.index, superstep, outbox)?;
        Ok(ComputeOut {
            agg,
            computed,
            not_halted: computed - voted_halt,
            compute_time,
            sealed,
        })
    }
}

/// A task for one pool thread: a phase bound to its input, run on the
/// thread's worker state.
type Task<'s, P> = Box<dyn FnOnce(&mut WorkerState<P>) + Send + 's>;

/// A phase: one worker's state, the shared run state, the worker's input.
pub(crate) type Phase<'a, P, I, O> =
    fn(&mut WorkerState<P>, &Shared<'a, P>, I) -> Result<O, WorkerFailure>;

/// Runs phases on every worker of a run (see the [module docs](self)).
pub(crate) struct Executor<'s, 'a, P: VertexProgram> {
    shared: &'s Shared<'a, P>,
    transport: Transport<'s, P>,
}

enum Transport<'s, P: VertexProgram> {
    /// The only worker, run on the calling thread.
    Inline(WorkerState<P>),
    /// One task channel per pool thread, in worker order.
    Pool(Vec<mpsc::Sender<Task<'s, P>>>),
}

impl<'s, 'a, P> Executor<'s, 'a, P>
where
    P: VertexProgram + Send + Sync,
{
    /// Runs `body` with an executor over `states`: inline for one worker,
    /// otherwise on a pool of scoped threads that lives exactly as long as
    /// `body`.
    pub fn with<R>(
        shared: &Shared<'a, P>,
        states: Vec<WorkerState<P>>,
        body: impl FnOnce(&mut Executor<'_, 'a, P>) -> R,
    ) -> R {
        let states = match <[WorkerState<P>; 1]>::try_from(states) {
            Ok([state]) => {
                return body(&mut Executor {
                    shared,
                    transport: Transport::Inline(state),
                })
            }
            Err(states) => states,
        };
        std::thread::scope(|scope| {
            let (tasks, threads): (Vec<_>, Vec<_>) = states
                .into_iter()
                .map(|mut state| {
                    let (tx, rx) = mpsc::channel::<Task<'_, P>>();
                    let thread = scope.spawn(move || {
                        while let Ok(task) = rx.recv() {
                            task(&mut state);
                        }
                        state
                    });
                    (tx, thread)
                })
                .unzip();
            // The executor, and with it every task channel, is dropped at
            // the end of this statement, so the threads leave their loops.
            let out = body(&mut Executor {
                shared,
                transport: Transport::Pool(tasks),
            });
            // Each thread hands its state back to be dropped here, on the
            // thread that allocated it. Dropped on the pool threads instead,
            // the states raised glibc's dynamic mmap threshold in some runs:
            // `dense_pagerank` peaked at 109 MB instead of 88 MB in 6 of 10.
            for thread in threads {
                if let Err(panic) = thread.join() {
                    std::panic::resume_unwind(panic);
                }
            }
            out
        })
    }

    /// Runs `phase` at `superstep` on every worker, worker `w` with
    /// `inputs[w]`, and returns the outputs in worker order — or the
    /// failure of the first worker to report one.
    pub fn each<I, O>(
        &mut self,
        superstep: u32,
        phase: Phase<'a, P, I, O>,
        inputs: Vec<I>,
    ) -> Result<Vec<O>, PregelError>
    where
        I: Send + 's,
        O: Send + 's,
    {
        let shared = self.shared;
        let failed = |f: WorkerFailure| f.at(superstep, shared.governor.deadline);
        let tasks = match &mut self.transport {
            Transport::Inline(state) => {
                return inputs
                    .into_iter()
                    .map(|input| guarded(phase, state, shared, input).map_err(failed))
                    .collect();
            }
            Transport::Pool(tasks) => tasks,
        };
        let lost = || PregelError::WorkerPanicked {
            superstep,
            worker: None,
            vertex: None,
            detail: "worker channel closed without a reply".into(),
        };
        let (reply_tx, replies) = mpsc::channel();
        for (w, (to_worker, input)) in tasks.iter().zip(inputs).enumerate() {
            let reply_tx = reply_tx.clone();
            to_worker
                .send(Box::new(move |state: &mut WorkerState<P>| {
                    let _ = reply_tx.send((w, guarded(phase, state, shared, input)));
                }))
                .map_err(|_| lost())?;
        }
        drop(reply_tx);
        let mut outs: Vec<Option<O>> = tasks.iter().map(|_| None).collect();
        for _ in 0..tasks.len() {
            let (w, out) = replies.recv().map_err(|_| lost())?;
            outs[w] = Some(out.map_err(failed)?);
        }
        // Every worker replied exactly once, so every slot is filled.
        Ok(outs.into_iter().flatten().collect())
    }
}

/// Runs one phase on one worker, turning a panic into a
/// [`WorkerFailure`] attributed to the worker and to the vertex whose
/// kernel was running.
fn guarded<'a, P: VertexProgram, I, O>(
    phase: Phase<'a, P, I, O>,
    state: &mut WorkerState<P>,
    shared: &Shared<'a, P>,
    input: I,
) -> Result<O, WorkerFailure> {
    state.running = None;
    match catch_unwind(AssertUnwindSafe(|| phase(state, shared, input))) {
        Ok(out) => out,
        Err(payload) => Err(WorkerFailure::from_panic(
            state.index as u32,
            state.running,
            payload,
        )),
    }
}

/// What a vertex costs a superstep beyond its in-edges, in units of one
/// in-edge: the kernel call, the captured payload and its meter, the
/// inbox view, the halted checks. Native PageRank on 50,000-vertex R-MATs
/// at one worker spends about 29 ns per vertex and 1.1 ns per in-edge of
/// a pulled superstep (EXPERIMENTS.md, "Cost-balanced partition"). The
/// constant is tuned for pulled supersteps. A pushed message costs about
/// 17 ns end to end on the same graphs under `Schedule::Push` (14–18 ns;
/// EXPERIMENTS.md, "A flat inbox"), about fifteen pulled in-edges, and the
/// out-edges a sender routes are not weighed, so push runs balance worse
/// under this weight: max ÷ mean compute 1.13–1.20 on `dense_pagerank`'s
/// graph, against 1.09–1.11 under `1 + out_degree`.
const VERTEX_COST: u64 = 26;

/// The weight [`partition`] balances: [`VERTEX_COST`] plus one unit per
/// in-edge, the messages the vertex's inbox holds, pushed or pulled.
pub(crate) fn vertex_cost(graph: &Graph, v: NodeId) -> u64 {
    VERTEX_COST + u64::from(graph.in_degree(v))
}

/// The worker that owns vertex `v`, given the interior range cuts
/// (`starts[1..num_workers]` of [`partition`]): how many cuts are at or
/// below `v`. A count over every cut rather than a binary search, because
/// routed destinations arrive in random order, which a search's branch
/// mispredicts about half the time; the count's trip count is the worker
/// count, so nothing in it depends on `v`.
#[inline]
pub(crate) fn worker_of(cuts: &[u32], v: u32) -> usize {
    cuts.iter().map(|&cut| usize::from(v >= cut)).sum()
}

/// Splits vertices into `num_workers` contiguous ranges balanced by
/// [`vertex_cost`]: each range's cost is within one vertex's cost of the
/// even share. Returns `num_workers + 1` range starts.
pub(crate) fn partition(graph: &Graph, num_workers: usize) -> Vec<u32> {
    let n = graph.num_nodes();
    let total = u64::from(n) * VERTEX_COST + u64::from(graph.num_edges());
    let mut starts = Vec::with_capacity(num_workers + 1);
    starts.push(0u32);
    let mut acc: u64 = 0;
    let mut next_cut = 1;
    for v in 0..n {
        acc += vertex_cost(graph, NodeId(v));
        while next_cut < num_workers && acc >= next_cut as u64 * total / num_workers as u64 {
            starts.push(v + 1);
            next_cut += 1;
        }
    }
    while starts.len() < num_workers {
        starts.push(n);
    }
    starts.push(n);
    debug_assert_eq!(starts.len(), num_workers + 1);
    starts
}

#[cfg(test)]
mod tests {
    use super::worker_of;
    use gm_graph::rng::check;

    #[test]
    fn worker_of_matches_a_binary_search_over_the_starts() {
        check(
            "worker_of_matches_a_binary_search_over_the_starts",
            256,
            |rng| {
                let n = 1 + rng.below(100) as u32;
                let workers = 1 + rng.below(8) as usize;
                // Nondecreasing cuts: equal neighbours, or a cut at 0 or `n`,
                // leave a range empty.
                let mut cuts: Vec<u32> = (1..workers)
                    .map(|_| rng.below(u64::from(n) + 1) as u32)
                    .collect();
                for at in 1..cuts.len() {
                    if rng.chance(0.3) {
                        cuts[at] = cuts[at - 1];
                    }
                }
                cuts.sort_unstable();
                let starts: Vec<u32> = [0].into_iter().chain(cuts.clone()).chain([n]).collect();
                for v in 0..n {
                    let want = starts.partition_point(|&s| s <= v) - 1;
                    assert_eq!(worker_of(&cuts, v), want, "vertex {v}, starts {starts:?}");
                }
            },
        );
    }
}
