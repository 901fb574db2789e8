//! The vertex-program trait and the master/vertex execution contexts.

use crate::globals::{AggMap, Globals};
use crate::inbox::Inbox;
use crate::value::{GlobalValue, ReduceOp};
use gm_ckpt::{ByteReader, CkptError};
use gm_graph::{EdgeId, Graph, NodeId, OutNeighbors};

/// How a vertex phase's sends can be realized on the receiver side.
///
/// Reported per superstep by [`VertexProgram::pull_mode`] and consumed by
/// the runtime's `Schedule::{Pull, Auto}` scheduling: in a *gathered*
/// (pull) superstep the exchange phase is skipped entirely and each
/// receiver walks its in-edges, reading the sender's message in place.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PullMode {
    /// The upcoming vertex phase cannot be gathered; the runtime must run
    /// the ordinary push exchange.
    Unsupported,
    /// The kernel's single neighbor-broadcast payload is independent of
    /// the connecting edge: the sender evaluates it once, the runtime
    /// captures it in a per-vertex slot, and each receiver's next kernel
    /// reads it from that slot in place, through its [`Inbox`].
    Captured,
    /// The payload depends on the connecting edge (e.g. SSSP's
    /// `dist + e.len`): the sender only marks that its send fired, and
    /// each receiver re-evaluates the payload per in-edge via
    /// [`VertexProgram::pull_message`].
    Recomputed,
}

/// Where a vertex's sends go during the compute phase.
///
/// `Route` is the ordinary push path. Under a gathered superstep the
/// runtime installs `Capture`/`Mark` so the kernel's neighbor-broadcast is
/// absorbed into per-sender state instead of being routed — the gather
/// phase reconstructs the identical message stream receiver-side.
#[derive(Debug)]
pub(crate) enum PullSink<'a, M> {
    /// Push: route every message to its destination worker's bucket.
    Route,
    /// Captured pull: store the (edge-independent) broadcast payload.
    Capture(&'a mut Option<M>),
    /// Recomputed pull: record only that the send site fired.
    Mark(&'a mut bool),
}

/// What the master tells the framework at the start of a superstep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MasterDecision {
    /// Run the vertex phase of this superstep and keep going.
    Continue,
    /// Stop the computation immediately; the vertex phase of this superstep
    /// does not run (GPS's `haltComputation()`).
    Halt,
}

/// A Pregel/GPS program: one sequential master kernel plus one
/// vertex-parallel kernel, executed once per superstep each.
///
/// Implementations must be `Send + Sync` to run: the runtime's persistent
/// worker pool shares `&self` across worker threads during the vertex phase
/// (and the coordinator's `&mut self` borrow is itself sent into the pool's
/// scope). Mutable master state lives in `self` and is only touched by
/// [`master_compute`](VertexProgram::master_compute), which runs exclusively
/// between phases.
pub trait VertexProgram {
    /// Per-vertex state (the fields of GPS's vertex class). `Sync` because
    /// gathered supersteps let every worker *read* every other worker's
    /// vertex store (behind an `RwLock`) while recomputing pulled payloads.
    type VertexValue: Clone + Send + Sync;
    /// Message payload exchanged between vertices. `Sync` for the same
    /// reason: captured payloads are cloned cross-worker at gather time.
    type Message: Clone + Send + Sync;

    /// Serialized size of a message in bytes — what the paper's "network
    /// I/O" metric counts. Return the wire size GPS's serialization would
    /// produce for this payload.
    fn message_bytes(&self, m: &Self::Message) -> u64;

    /// Sequential computation at the start of each superstep (GPS's
    /// `master.compute()`). Sees the aggregates written by vertices in the
    /// *previous* superstep, and broadcasts globals visible to vertices in
    /// *this* superstep.
    fn master_compute(&mut self, ctx: &mut MasterContext<'_>) -> MasterDecision;

    /// Vertex-parallel computation (GPS's `vertex.compute()`), invoked once
    /// per active vertex per superstep with the messages sent to this vertex
    /// in the previous superstep, in push delivery order whatever the
    /// schedule.
    ///
    /// After a push superstep `messages` views this vertex's delivered
    /// inbox. After a [`PullMode::Captured`] superstep it walks this vertex's in-edges and reads each sender's captured
    /// payload in place: nothing is copied into an inbox first, so a
    /// kernel that folds its messages with [`Inbox::for_each`] folds the
    /// senders' payloads directly.
    fn vertex_compute(
        &self,
        ctx: &mut VertexContext<'_, '_, Self::Message>,
        value: &mut Self::VertexValue,
        messages: Inbox<'_, Self::Message>,
    );

    /// Whether *any* superstep of this program can run as a gathered
    /// (pull) superstep. `Schedule::Pull` refuses programs that return
    /// `false` with a structured [`PregelError::NotPullable`] instead of
    /// silently computing wrong answers.
    ///
    /// [`PregelError::NotPullable`]: crate::PregelError::NotPullable
    fn pull_supported(&self) -> bool {
        false
    }

    /// Pull flavor of the *next* vertex phase. Queried by the coordinator
    /// after [`master_compute`](VertexProgram::master_compute) returns, so
    /// state-machine programs can answer for the state the master just
    /// selected.
    ///
    /// Contract for returning anything other than
    /// [`PullMode::Unsupported`]: the phase's only send must be a
    /// broadcast to all out-neighbors ([`VertexContext::send_to_nbrs`], or
    /// [`VertexContext::mark_send`] under `Recomputed`) whose payload is a
    /// pure function of the sender's *post-kernel* value, the connecting
    /// edge, and this superstep's broadcasts. Targeted
    /// [`VertexContext::send`] calls panic in a gathered superstep.
    fn pull_mode(&self) -> PullMode {
        PullMode::Unsupported
    }

    /// Re-evaluates the message `src` sent along `edge` in this superstep,
    /// against the sender's post-kernel `src_value`. Only called in
    /// [`PullMode::Recomputed`] supersteps, for senders whose kernel marked
    /// its send site as fired.
    fn pull_message(
        &self,
        graph: &Graph,
        src: NodeId,
        edge: EdgeId,
        src_value: &Self::VertexValue,
    ) -> Self::Message {
        let _ = (graph, src, edge, src_value);
        unreachable!("pull_message is only called when pull_mode() returns Recomputed")
    }

    /// Serializes the program's mutable master state (everything
    /// [`master_compute`](VertexProgram::master_compute) reads or writes
    /// across supersteps) into the snapshot's `master` section. Programs
    /// whose master is stateless keep the default no-op; stateful programs
    /// must override both this and
    /// [`restore_master_state`](VertexProgram::restore_master_state) or a
    /// recovered run will diverge from an uninterrupted one.
    fn save_master_state(&self, out: &mut Vec<u8>) {
        let _ = out;
    }

    /// Restores the state written by
    /// [`save_master_state`](VertexProgram::save_master_state). Called on
    /// the resume path before the superstep loop re-enters; must consume
    /// exactly the bytes its counterpart wrote.
    fn restore_master_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), CkptError> {
        let _ = r;
        Ok(())
    }

    /// Checks the vertex values and pending messages decoded from a
    /// snapshot against the graph the run resumes on, so that well-formed
    /// but wrong sections are refused at decode, as a [`CkptError`],
    /// rather than failing a worker later. Programs whose values or
    /// messages hold vertex ids they later send to override it; the
    /// default accepts everything.
    fn check_restored(
        &self,
        graph: &Graph,
        values: &[Self::VertexValue],
        inboxes: &[Vec<Self::Message>],
    ) -> Result<(), CkptError> {
        let _ = (graph, values, inboxes);
        Ok(())
    }

    /// Names this program and the encoding of its vertex values and
    /// messages. Every snapshot carries it in its `program` section, and a
    /// resume skips and removes any snapshot whose section is missing or
    /// different: another program, or another encoding of this one, wrote
    /// it. Must not vary between processes. Hand-written programs keep the
    /// empty default; compiled programs derive theirs from their signature.
    fn program_identity(&self) -> &[u8] {
        &[]
    }
}

/// Context handed to [`VertexProgram::master_compute`].
#[derive(Debug)]
pub struct MasterContext<'a> {
    pub(crate) superstep: u32,
    pub(crate) aggregates: &'a AggMap,
    pub(crate) broadcast: &'a mut Globals,
    pub(crate) num_nodes: u32,
    pub(crate) active_vertices: u32,
    pub(crate) pending_messages: u64,
}

impl MasterContext<'_> {
    /// Current superstep number, starting at 0.
    pub fn superstep(&self) -> u32 {
        self.superstep
    }

    /// Number of vertices in the graph.
    pub fn num_nodes(&self) -> u32 {
        self.num_nodes
    }

    /// Vertices that will execute in this superstep's vertex phase
    /// (not halted, or reactivated by a pending message).
    pub fn active_vertices(&self) -> u32 {
        self.active_vertices
    }

    /// Messages awaiting delivery in this superstep.
    pub fn pending_messages(&self) -> u64 {
        self.pending_messages
    }

    /// Reads an aggregate written by vertices in the previous superstep.
    pub fn agg(&self, key: &str) -> Option<GlobalValue> {
        self.aggregates.get(key)
    }

    /// Reads an aggregate with a fallback identity value.
    pub fn agg_or(&self, key: &str, default: GlobalValue) -> GlobalValue {
        self.aggregates.get_or(key, default)
    }

    /// Broadcasts `key = value` to every vertex for this superstep
    /// (GPS's `Global.put` from the master).
    pub fn put_global(&mut self, key: &str, value: GlobalValue) {
        self.broadcast.put(key, value);
    }

    /// Reads back a broadcast set in this or an earlier superstep.
    pub fn get_global(&self, key: &str) -> Option<GlobalValue> {
        self.broadcast.get(key)
    }
}

/// Context handed to [`VertexProgram::vertex_compute`].
///
/// Lifetime `'a` is the per-superstep borrow; `'g` is the graph borrow.
#[derive(Debug)]
pub struct VertexContext<'a, 'g, M> {
    pub(crate) id: NodeId,
    pub(crate) superstep: u32,
    pub(crate) graph: &'g Graph,
    pub(crate) broadcast: &'a Globals,
    pub(crate) agg: &'a mut AggMap,
    /// One bucket per destination worker.
    pub(crate) outbox: &'a mut [Vec<(u32, M)>],
    /// Worker range starts; worker `w` owns `starts[w]..starts[w+1]`.
    pub(crate) range_starts: &'a [u32],
    pub(crate) halted: &'a mut bool,
    /// Where sends go this superstep (push routing or a pull sink).
    pub(crate) pull: PullSink<'a, M>,
}

impl<'g, M: Clone> VertexContext<'_, 'g, M> {
    /// This vertex's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Current superstep number.
    pub fn superstep(&self) -> u32 {
        self.superstep
    }

    /// The graph being processed.
    ///
    /// Pregel vertices only know their own adjacency; programs should
    /// restrict themselves to this vertex's neighborhood (the compiler-
    /// generated programs do). The full reference is exposed for the
    /// runtime-internal iterators below.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// Number of vertices in the graph (GPS exposes this to vertices).
    pub fn num_nodes(&self) -> u32 {
        self.graph.num_nodes()
    }

    /// Out-degree of this vertex (`getNumNbrs()` / Green-Marl `Degree()`).
    pub fn out_degree(&self) -> u32 {
        self.graph.out_degree(self.id)
    }

    /// Out-neighbors of this vertex with edge ids (for edge properties,
    /// which Pregel exposes only at the source vertex).
    pub fn out_neighbors(&self) -> OutNeighbors<'g> {
        self.graph.out_neighbors(self.id)
    }

    /// Sends `m` to every out-neighbor (GPS's `sendToNbrs`). One message is
    /// accounted per out-edge, parallel edges included.
    ///
    /// In a gathered (pull) superstep this does not route anything: the
    /// payload is captured (or the send merely marked) and receivers read
    /// it in place during the gather phase.
    pub fn send_to_nbrs(&mut self, m: M) {
        match &mut self.pull {
            PullSink::Capture(slot) => {
                **slot = Some(m);
                return;
            }
            PullSink::Mark(fired) => {
                **fired = true;
                return;
            }
            PullSink::Route => {}
        }
        // Clone per edge; route each copy to its destination's worker.
        let nbrs: OutNeighbors<'g> = self.graph.out_neighbors(self.id);
        for (t, _) in nbrs {
            self.send(t, m.clone());
        }
    }

    /// True when this superstep's sends are gathered receiver-side instead
    /// of routed (the runtime chose a pull superstep).
    pub fn pull_gathered(&self) -> bool {
        !matches!(self.pull, PullSink::Route)
    }

    /// Records that this vertex's neighbor-broadcast fired, without
    /// materializing a payload. Returns `true` when the send was absorbed
    /// by a [`PullMode::Recomputed`] gather sink — the runtime will
    /// re-evaluate the payload per in-edge via
    /// [`VertexProgram::pull_message`]. Returns `false` in a push
    /// superstep, in which case the caller must perform its ordinary
    /// per-edge sends.
    ///
    /// # Panics
    ///
    /// Panics under a [`PullMode::Captured`] sink: an edge-dependent send
    /// site cannot be captured, so reaching one means
    /// [`VertexProgram::pull_mode`] misreported the phase.
    pub fn mark_send(&mut self) -> bool {
        match &mut self.pull {
            PullSink::Mark(fired) => {
                **fired = true;
                true
            }
            PullSink::Capture(_) => {
                panic!("edge-dependent send under a Captured pull sink: pull_mode() misreported")
            }
            PullSink::Route => false,
        }
    }

    /// Sends `m` to an arbitrary vertex by id (GPS's `sendToVertex`).
    ///
    /// # Panics
    ///
    /// Panics if `dst` is out of range, or if called in a gathered (pull)
    /// superstep — targeted sends cannot be reconstructed receiver-side,
    /// so a phase that performs them must report
    /// [`PullMode::Unsupported`]. Routing it anyway would silently drop
    /// the message (gathered supersteps discard the outbox).
    pub fn send(&mut self, dst: NodeId, m: M) {
        assert!(
            matches!(self.pull, PullSink::Route),
            "targeted send during a gathered superstep: pull_mode() misreported this phase"
        );
        assert!(
            dst.0 < self.graph.num_nodes(),
            "message destination {dst} out of range"
        );
        let w = self.range_starts.partition_point(|&s| s <= dst.0) - 1;
        self.outbox[w].push((dst.0, m));
    }

    /// Reads a master broadcast for this superstep.
    pub fn get_global(&self, key: &str) -> Option<GlobalValue> {
        self.broadcast.get(key)
    }

    /// Reads a master broadcast, panicking with the key name if missing.
    ///
    /// # Panics
    ///
    /// Panics if `key` was never broadcast.
    pub fn expect_global(&self, key: &str) -> GlobalValue {
        self.broadcast.expect(key)
    }

    /// Folds `value` into the named global with reduction `op`; the master
    /// observes the aggregate at the start of the next superstep.
    pub fn reduce_global(&mut self, key: &str, op: ReduceOp, value: GlobalValue) {
        self.agg.reduce(key, op, value);
    }

    /// Deactivates this vertex. It will be skipped in subsequent supersteps
    /// until a message arrives for it.
    pub fn vote_to_halt(&mut self) {
        *self.halted = true;
    }
}
