//! The program shell: the half of a compiled program's execution that does
//! not depend on how its code runs.
//!
//! Both execution legs — the interpreter behind [`crate::run_compiled`]
//! and every `gm-core::rustgen` module — are a [`Leg`] inside one shell
//! ([`run_leg`]). The shell owns, once, everything that runs per superstep
//! or per job rather than per vertex: the master driver loop with its
//! state log, `PickRandom` stream and `Return` slot; argument binding; the
//! snapshot's `master` section and program identity
//! ([`program_identity`]); and the [`CompiledOutcome`]. It reads the
//! program's interface from a [`Signature`], which the interpreter derives
//! from PIR ([`with_signature`]) and rustgen prints as a `static`. A leg
//! supplies its data layout, its vertex side (statically dispatched, so
//! the hot loop is the leg's own), and per-state master, post and
//! transition code over its own typed globals.

use crate::eval::PickRng;
use gm_core::kernel::{CPull, Lowered};
use gm_core::pir::PregelProgram;
use gm_core::seqinterp::{property_arg, scalar_arg, ArgValue};
use gm_core::types::Ty;
use gm_core::value::{Value, NIL_NODE};
use gm_graph::{EdgeId, Graph, NodeId};
use gm_pregel::{
    ByteReader, CkptError, GlobalValue, Inbox, MasterContext, MasterDecision, Metrics, Persist,
    PregelConfig, PregelError, PullMode, VertexContext, VertexProgram,
};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Errors from running a compiled program on either leg.
#[derive(Debug)]
pub enum RunError {
    /// Bad or missing procedure argument.
    BadArgument(String),
    /// The BSP runtime failed (e.g. superstep limit).
    Pregel(PregelError),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::BadArgument(m) => write!(f, "bad argument: {m}"),
            RunError::Pregel(e) => write!(f, "pregel runtime error: {e}"),
        }
    }
}

impl Error for RunError {}

impl From<PregelError> for RunError {
    fn from(e: PregelError) -> Self {
        RunError::Pregel(e)
    }
}

/// Result of executing a compiled program.
#[derive(Debug, Clone)]
pub struct CompiledOutcome {
    /// The `Return` value, if any.
    pub ret: Option<Value>,
    /// Final node-property contents by (unique) name.
    pub node_props: HashMap<String, Vec<Value>>,
    /// Final master globals.
    pub globals: HashMap<String, Value>,
    /// Superstep/message/timing counters from the BSP runtime.
    pub metrics: Metrics,
    /// Which machine state each vertex superstep executed, aligned with
    /// [`Metrics::per_superstep`]: the execution trace of the generated
    /// state machine.
    pub states: Vec<usize>,
}

/// One state of the machine, as the shell sees it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct State<'a> {
    /// For a vertex state, the global slots its kernel reads (broadcast
    /// before its vertex phase); `None` for a master-only state.
    pub kernel: Option<&'a [usize]>,
    /// How its vertex phase may be gathered.
    pub pull: PullMode,
}

/// A compiled program's interface: every name and scalar type the shell
/// binds, persists or reports, and the states it drives. Columns are in
/// slot order, the order [`Row`] slots and kernel global reads use.
#[derive(Clone, Debug, PartialEq)]
pub struct Signature<'a> {
    /// Master globals (scalar parameters included).
    pub globals: &'a [(&'a str, Ty)],
    /// Node properties, by element type.
    pub node_props: &'a [(&'a str, Ty)],
    /// Edge properties, by element type.
    pub edge_props: &'a [(&'a str, Ty)],
    /// Scalar parameters: required arguments, bound to the global of the
    /// same name.
    pub params: &'a [(&'a str, Ty)],
    /// The `Return` type.
    pub ret: Option<Ty>,
    /// The states, in PIR order; state 0 is the entry.
    pub states: &'a [State<'a>],
}

/// Derives `program`'s [`Signature`] from its PIR and its lowering, and
/// hands it to `f` — the table rustgen prints as a native module's
/// `SIGNATURE`.
pub fn with_signature<R>(
    program: &PregelProgram,
    lowered: &Lowered,
    f: impl FnOnce(&Signature<'_>) -> R,
) -> R {
    fn names(cols: &[(String, Ty)]) -> Vec<(&str, Ty)> {
        (cols.iter().map(|(n, ty)| (n.as_str(), ty.clone()))).collect()
    }
    let states: Vec<State<'_>> = (lowered.kernels.iter())
        .map(|k| State {
            kernel: k.as_ref().map(|k| k.reads_globals.as_slice()),
            pull: match k.as_ref().map(|k| &k.pull) {
                Some(CPull::Captured) => PullMode::Captured,
                Some(CPull::Recomputed(_)) => PullMode::Recomputed,
                Some(CPull::Push) | None => PullMode::Unsupported,
            },
        })
        .collect();
    f(&Signature {
        globals: &names(&program.globals),
        node_props: &names(&program.node_props),
        edge_props: &names(&program.edge_props),
        params: &names(&program.scalar_params),
        ret: program.ret.clone(),
        states: &states,
    })
}

/// A row of typed slots the shell builds and reads by index: a leg's
/// globals, or one vertex's properties.
pub trait Row {
    /// A row of `len` slots holding `value(slot)`, each already of the
    /// slot's declared type.
    fn build(len: usize, value: impl Fn(usize) -> Value) -> Self;

    /// The value in `slot`.
    fn get(&self, slot: usize) -> Value;

    /// The in-neighbour ids a vertex row collected for `InNbrs`; none for
    /// a row of globals.
    fn in_nbrs(&self) -> &[u32] {
        &[]
    }

    /// Whether the row holds exactly `len` slots: always, for a row of
    /// typed fields; a row decoded as a list may hold any number.
    fn has_slots(&self, len: usize) -> bool {
        let _ = len;
        true
    }
}

impl Row for Vec<Value> {
    fn build(len: usize, value: impl Fn(usize) -> Value) -> Self {
        (0..len).map(value).collect()
    }

    fn get(&self, slot: usize) -> Value {
        self[slot]
    }
}

/// What master code sees besides its globals: the graph, the
/// `G.PickRandom()` stream and the `Return` slot.
pub struct Master<'a> {
    /// The input graph, for `NumNodes`/`NumEdges`.
    pub graph: &'a Graph,
    pub(crate) rng: PickRng,
    ret: Option<Value>,
    pub(crate) finished: bool,
}

impl Master<'_> {
    /// `G.PickRandom()`: a node drawn from the seeded stream; panics on an
    /// empty graph.
    pub fn pick_random(&mut self) -> u32 {
        let n = self.graph.num_nodes();
        assert!(n > 0, "PickRandom on an empty graph");
        self.rng.pick(n)
    }

    /// `Return`: records the value and stops the machine. The caller
    /// returns from its block at once.
    pub fn finish(&mut self, ret: Option<Value>) {
        self.ret = ret;
        self.finished = true;
    }
}

/// One execution leg: how a program's code runs. Every method is per
/// state; the shell passes the state it settled on.
pub trait Leg: Send + Sync {
    /// The master globals, one typed slot per [`Signature::globals`] entry.
    type Globals: Row + Send + Sync;
    /// Per-vertex state, one slot per [`Signature::node_props`] entry.
    type VertexValue: Row + Clone + Send + Sync + Persist;
    /// A message.
    type Message: Clone + Send + Sync + Persist;

    /// The name of how this leg persists vertex values and messages, part
    /// of the program identity every snapshot carries. The default names
    /// the layout every `gm-core::rustgen` module writes: each slot's raw
    /// field, untagged. The interpreter's tagged values override it.
    const ENCODING: &'static str = "native";

    /// Runs the master block of `state`.
    fn master(&self, state: usize, g: &mut Self::Globals, m: &mut Master<'_>);

    /// Runs the post block of `state`; `agg` holds the aggregates of the
    /// vertex phase that just ran (`None` for a master-only state).
    fn post(
        &self,
        state: usize,
        g: &mut Self::Globals,
        m: &mut Master<'_>,
        agg: Option<&MasterContext<'_>>,
    );

    /// The state after `state` (`None` halts).
    fn transition(&self, state: usize, g: &Self::Globals, m: &mut Master<'_>) -> Option<usize>;

    /// The kernel of vertex state `state` (see
    /// [`VertexProgram::vertex_compute`]).
    fn vertex_compute(
        &self,
        state: usize,
        g: &Self::Globals,
        ctx: &mut VertexContext<'_, '_, Self::Message>,
        value: &mut Self::VertexValue,
        messages: Inbox<'_, Self::Message>,
    );

    /// See [`VertexProgram::message_bytes`].
    fn message_bytes(&self, m: &Self::Message) -> u64;

    /// The sender id `m` carries if its tag's handler stores in-neighbours
    /// (the preamble's message): the receiver stores the id in its row.
    fn in_nbr(&self, m: &Self::Message) -> Option<u32> {
        let _ = m;
        None
    }

    /// The message `src` sent along `edge` in `Recomputed` state `state`
    /// (see [`VertexProgram::pull_message`]).
    fn pull_message(
        &self,
        state: usize,
        g: &Self::Globals,
        graph: &Graph,
        src: NodeId,
        edge: EdgeId,
        src_value: &Self::VertexValue,
    ) -> Self::Message {
        let _ = (g, graph, src, edge, src_value);
        unreachable!("state {state} is not Recomputed")
    }
}

/// A job's arguments, checked against a [`Signature`]: every length,
/// kind and element type is validated, and no column is copied.
pub struct Bound<'a> {
    sig: &'a Signature<'a>,
    num_edges: usize,
    nodes: Vec<Option<&'a [Value]>>,
    edges: Vec<Option<&'a [Value]>>,
    globals: Vec<Value>,
}

impl<'a> Bound<'a> {
    fn new(
        sig: &'a Signature<'a>,
        graph: &Graph,
        args: &'a HashMap<String, ArgValue>,
    ) -> Result<Self, RunError> {
        let columns = |cols: &[(&str, Ty)], edge, len: u32| {
            (cols.iter())
                .map(|(name, ty)| property_arg(args, name, ty, edge, len as usize))
                .collect::<Result<Vec<_>, _>>()
                .map_err(RunError::BadArgument)
        };
        let nodes = columns(sig.node_props, false, graph.num_nodes())?;
        let edges = columns(sig.edge_props, true, graph.num_edges())?;
        let default = |(_, ty): &(&str, Ty)| Value::default_for(ty);
        let mut globals: Vec<Value> = sig.globals.iter().map(default).collect();
        for (name, ty) in sig.params {
            let v = scalar_arg(args, name, ty).map_err(RunError::BadArgument)?;
            if let Some(slot) = sig.globals.iter().position(|(g, _)| g == name) {
                globals[slot] = v;
            }
        }
        Ok(Bound {
            sig,
            num_edges: graph.num_edges() as usize,
            nodes,
            edges,
            globals,
        })
    }

    /// Edge property `slot` in edge order, each element coerced to the
    /// property's type (its default where the job passed no column).
    pub fn edge(&self, slot: usize) -> impl Iterator<Item = Value> + '_ {
        let (col, ty) = (self.edges[slot], &self.sig.edge_props[slot].1);
        let default = Value::default_for(ty);
        (0..self.num_edges).map(move |e| col.map_or(default, |c| c[e].coerce(ty)))
    }

    fn node(&self, slot: usize, n: NodeId) -> Value {
        let ty = &self.sig.node_props[slot].1;
        self.nodes[slot].map_or(Value::default_for(ty), |c| c[n.index()].coerce(ty))
    }
}

/// Runs leg `leg` of the program `sig` describes: binds `args`, builds the
/// leg from the bound arguments, executes the machine and assembles the
/// outcome. Arguments follow the sequential interpreter's conventions
/// ([`gm_core::seqinterp::run_procedure`]); `seed` drives `G.PickRandom()`
/// with the same draw sequence.
///
/// # Errors
///
/// [`RunError::BadArgument`] for malformed arguments and
/// [`RunError::Pregel`] for runtime failures.
pub fn run_leg<'a, L: Leg>(
    sig: &'a Signature<'a>,
    graph: &'a Graph,
    args: &'a HashMap<String, ArgValue>,
    seed: u64,
    config: &PregelConfig,
    leg: impl FnOnce(&Bound<'a>) -> L,
) -> Result<CompiledOutcome, RunError> {
    let bound = Bound::new(sig, graph, args)?;
    let mut shell = Shell {
        sig,
        identity: program_identity(sig, L::ENCODING),
        leg: leg(&bound),
        globals: L::Globals::build(sig.globals.len(), |slot| bound.globals[slot]),
        master: Master {
            graph,
            rng: PickRng::seed_from_u64(seed),
            ret: None,
            finished: false,
        },
        seed,
        prev_state: None,
        cur_state: 0,
        state_log: Vec::new(),
    };
    let props = sig.node_props.len();
    let init = |n: NodeId| L::VertexValue::build(props, |slot| bound.node(slot, n));
    let result = gm_pregel::run(graph, &mut shell, init, config)?;

    let values = &result.values;
    Ok(CompiledOutcome {
        ret: shell.master.ret,
        node_props: (sig.node_props.iter().enumerate())
            .map(|(slot, (name, _))| {
                (
                    name.to_string(),
                    values.iter().map(|v| v.get(slot)).collect(),
                )
            })
            .collect(),
        globals: (sig.globals.iter().enumerate())
            .map(|(slot, (name, _))| (name.to_string(), shell.globals.get(slot)))
            .collect(),
        metrics: result.metrics,
        states: shell.state_log,
    })
}

/// Version of the legs' vertex-value and message encodings, part of the
/// program identity every snapshot carries. Bump it whenever a leg
/// changes how it persists a vertex value or a message, so that older
/// snapshots start the run afresh instead of being misread. Version 2:
/// the in-neighbor preamble's message carries its ordinary tag, no
/// longer 255.
pub const ENCODING_VERSION: u32 = 2;

/// The [`VertexProgram::program_identity`] of the program `sig` describes,
/// run on a leg whose [`Leg::ENCODING`] is `encoding`:
/// `<encoding>/v<ENCODING_VERSION>/<hash>`, where the hash is FNV-1a 64
/// over every name, type, kernel read list and pull mode in `sig`.
pub fn program_identity(sig: &Signature<'_>, encoding: &str) -> Vec<u8> {
    let mut bytes = Vec::new();
    for cols in [sig.globals, sig.node_props, sig.edge_props, sig.params] {
        cols.len().persist(&mut bytes);
        for (name, ty) in cols {
            (name.to_string(), ty.to_string()).persist(&mut bytes);
        }
    }
    sig.ret.as_ref().map(Ty::to_string).persist(&mut bytes);
    sig.states.len().persist(&mut bytes);
    for state in sig.states {
        let reads = state.kernel.map(|reads| reads.to_vec());
        let pull = match state.pull {
            PullMode::Unsupported => 0u8,
            PullMode::Captured => 1,
            PullMode::Recomputed => 2,
        };
        (reads, pull).persist(&mut bytes);
    }
    let hash = gm_graph::hash::Fnv1a::hash(&bytes);
    format!("{encoding}/v{ENCODING_VERSION}/{hash:016x}").into_bytes()
}

/// The leg-independent [`VertexProgram`]: the master driver around a leg.
struct Shell<'a, L: Leg> {
    sig: &'a Signature<'a>,
    /// Derived once per run from `sig` and the leg's encoding.
    identity: Vec<u8>,
    leg: L,
    globals: L::Globals,
    master: Master<'a>,
    seed: u64,
    prev_state: Option<usize>,
    /// Set by the master before each vertex phase.
    cur_state: usize,
    /// States visited, one per vertex superstep (the execution trace).
    state_log: Vec<usize>,
}

impl<L: Leg> VertexProgram for Shell<'_, L> {
    type VertexValue = L::VertexValue;
    type Message = L::Message;

    #[inline]
    fn message_bytes(&self, m: &L::Message) -> u64 {
        self.leg.message_bytes(m)
    }

    fn pull_supported(&self) -> bool {
        (self.sig.states.iter()).any(|s| s.pull != PullMode::Unsupported)
    }

    #[inline]
    fn pull_mode(&self) -> PullMode {
        self.sig.states[self.cur_state].pull
    }

    #[inline]
    fn pull_message(
        &self,
        graph: &Graph,
        src: NodeId,
        edge: EdgeId,
        src_value: &L::VertexValue,
    ) -> L::Message {
        (self.leg).pull_message(self.cur_state, &self.globals, graph, src, edge, src_value)
    }

    fn master_compute(&mut self, ctx: &mut MasterContext<'_>) -> MasterDecision {
        let (leg, g, m) = (&self.leg, &mut self.globals, &mut self.master);
        if m.finished {
            return MasterDecision::Halt;
        }
        let mut current = match self.prev_state {
            None => 0,
            Some(prev) => {
                leg.post(prev, g, m, Some(ctx));
                if m.finished {
                    return MasterDecision::Halt;
                }
                match leg.transition(prev, g, m) {
                    Some(next) => next,
                    None => return MasterDecision::Halt,
                }
            }
        };
        // Master chain: run through master-only states within this call.
        let mut steps: u64 = 0;
        let reads = loop {
            steps += 1;
            assert!(
                steps < 10_000_000,
                "master state machine did not reach a vertex state"
            );
            leg.master(current, g, m);
            if m.finished {
                return MasterDecision::Halt;
            }
            if let Some(reads) = self.sig.states[current].kernel {
                break reads;
            }
            leg.post(current, g, m, None);
            match leg.transition(current, g, m) {
                Some(next) => current = next,
                None => return MasterDecision::Halt,
            }
        };
        // Broadcast the state number (as GPS does) and the globals the
        // kernel reads.
        ctx.put_global("_state", GlobalValue::Int(current as i64));
        for &slot in reads {
            ctx.put_global(self.sig.globals[slot].0, to_g(g.get(slot)));
        }
        self.cur_state = current;
        self.prev_state = Some(current);
        self.state_log.push(current);
        MasterDecision::Continue
    }

    #[inline]
    fn vertex_compute(
        &self,
        ctx: &mut VertexContext<'_, '_, L::Message>,
        value: &mut L::VertexValue,
        messages: Inbox<'_, L::Message>,
    ) {
        (self.leg).vertex_compute(self.cur_state, &self.globals, ctx, value, messages);
    }

    // Snapshots are cut before `master_compute`, so `cur_state` need not
    // be saved: the master recomputes it on the first post-restore
    // superstep. The RNG is stored as its draw count and replayed from the
    // seed (see [`PickRng`]).
    fn save_master_state(&self, out: &mut Vec<u8>) {
        let section = MasterSection {
            draws: self.master.rng.draws(),
            prev_state: self.prev_state,
            finished: self.master.finished,
            ret: self.master.ret,
            globals: (0..self.sig.globals.len())
                .map(|slot| self.globals.get(slot))
                .collect(),
            state_log: self.state_log.clone(),
        };
        section.encode(self.sig, out);
    }

    fn restore_master_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), CkptError> {
        let s = MasterSection::decode(self.sig, r)?;
        self.master.rng = PickRng::replay(self.seed, s.draws);
        self.master.finished = s.finished;
        self.master.ret = s.ret;
        self.globals = L::Globals::build(s.globals.len(), |slot| s.globals[slot]);
        self.prev_state = s.prev_state;
        self.state_log = s.state_log;
        Ok(())
    }

    // Vertex ids a kernel may send to: stored in-neighbours, whether
    // already in a row or still in flight in the in-neighbour preamble's
    // messages, and node-valued properties, which may also be NIL.
    fn check_restored(
        &self,
        graph: &Graph,
        values: &[L::VertexValue],
        inboxes: &[Vec<L::Message>],
    ) -> Result<(), CkptError> {
        let slots = self.sig.node_props.len();
        if !values.iter().all(|v| v.has_slots(slots)) {
            return Err(CkptError::Decode(format!(
                "a snapshot vertex row does not hold the program's {slots} properties"
            )));
        }
        let n = graph.num_nodes();
        let node_slots: Vec<usize> = (self.sig.node_props.iter().enumerate())
            .filter(|(_, (_, ty))| *ty == Ty::Node)
            .map(|(slot, _)| slot)
            .collect();
        let stored = values.iter().flat_map(|v| v.in_nbrs().iter().copied());
        let in_flight = inboxes.iter().flatten().filter_map(|m| self.leg.in_nbr(m));
        let bad_id = stored.chain(in_flight).find(|&id| id >= n).map(Value::Node);
        let bad_prop = || {
            (values.iter())
                .flat_map(|v| node_slots.iter().map(|&slot| v.get(slot)))
                .find(|v| !matches!(*v, Value::Node(id) if id < n || id == NIL_NODE))
        };
        let bad = bad_id.or_else(bad_prop);
        match bad {
            Some(v) => Err(CkptError::Decode(format!(
                "snapshot holds {v} where a vertex of the {n}-vertex graph belongs"
            ))),
            None => Ok(()),
        }
    }

    fn program_identity(&self) -> &[u8] {
        &self.identity
    }
}

/// A snapshot's `master` section, decoded against a program's
/// [`Signature`]: the master state of both legs, in one encoding.
#[derive(Clone, Debug, PartialEq)]
pub struct MasterSection {
    /// `PickRandom` draws taken.
    pub draws: u64,
    /// The vertex state of the last superstep.
    pub prev_state: Option<usize>,
    /// Whether `Return` ran.
    pub finished: bool,
    /// The `Return` value.
    pub ret: Option<Value>,
    /// Globals by slot, each of its declared type.
    pub globals: Vec<Value>,
    /// The vertex state of every superstep so far.
    pub state_log: Vec<usize>,
}

impl MasterSection {
    /// Encodes the section for the program `sig` describes. Globals go by
    /// name, in sorted order, so the bytes do not depend on slot order.
    pub fn encode(&self, sig: &Signature<'_>, out: &mut Vec<u8>) {
        self.draws.persist(out);
        self.prev_state.map(|s| s as u64).persist(out);
        self.finished.persist(out);
        self.ret.is_some().persist(out);
        if let Some(v) = &self.ret {
            put_value(v, out);
        }
        let mut by_name: Vec<usize> = (0..sig.globals.len()).collect();
        by_name.sort_by_key(|&slot| sig.globals[slot].0);
        by_name.len().persist(out);
        for slot in by_name {
            let name = sig.globals[slot].0;
            (name.len() as u64).persist(out);
            out.extend_from_slice(name.as_bytes());
            put_value(&self.globals[slot], out);
        }
        let log: Vec<u64> = self.state_log.iter().map(|&s| s as u64).collect();
        log.persist(out);
    }

    /// Decodes a section against `sig`, checking every state id, the
    /// global count, every global's name and value type, and the `Return`
    /// type.
    ///
    /// # Errors
    ///
    /// [`CkptError`] for truncated or malformed bytes, and
    /// [`CkptError::Decode`] for a section written by another program.
    pub fn decode(sig: &Signature<'_>, r: &mut ByteReader<'_>) -> Result<Self, CkptError> {
        let bad = |m: String| CkptError::Decode(m);
        let state = |s: u64| match usize::try_from(s) {
            Ok(s) if s < sig.states.len() => Ok(s),
            _ => Err(bad(format!("snapshot state {s} is out of range"))),
        };
        let typed = |v: Value, ty: &Ty, what: &str| {
            v.try_coerce(ty)
                .map_err(|e| bad(format!("snapshot {what}: {e}")))
        };
        let draws = u64::restore(r)?;
        let prev_state = Option::<u64>::restore(r)?.map(state).transpose()?;
        let finished = bool::restore(r)?;
        let ret = match (bool::restore(r)?, &sig.ret) {
            (false, _) => None,
            (true, Some(ty)) => Some(typed(get_value(r)?, ty, "return value")?),
            (true, None) => return Err(bad("snapshot returns a value, the program none".into())),
        };
        let n = usize::restore(r)?;
        if n != sig.globals.len() {
            return Err(bad(format!(
                "snapshot holds {n} globals, the program has {}",
                sig.globals.len()
            )));
        }
        let mut globals = vec![None; n];
        for _ in 0..n {
            let (name, v) = (String::restore(r)?, get_value(r)?);
            let slot = (sig.globals.iter().position(|(g, _)| *g == name))
                .ok_or_else(|| bad(format!("snapshot global `{name}` is unknown")))?;
            let v = typed(v, &sig.globals[slot].1, &format!("global `{name}`"))?;
            if globals[slot].replace(v).is_some() {
                return Err(bad(format!("snapshot global `{name}` appears twice")));
            }
        }
        let state_log = (Vec::<u64>::restore(r)?.into_iter())
            .map(state)
            .collect::<Result<_, _>>()?;
        Ok(MasterSection {
            draws,
            prev_state,
            finished,
            ret,
            // `n` distinct slots of `n`: every one is filled.
            globals: globals.into_iter().flatten().collect(),
            state_log,
        })
    }
}

// `Value` lives in gm-core and `Persist` in gm-ckpt, so the orphan rule
// forbids a trait impl; a local tag-byte codec bridges the two.
fn put_value(v: &Value, out: &mut Vec<u8>) {
    match *v {
        Value::Int(x) => (0u8, x).persist(out),
        Value::Double(x) => (1u8, x).persist(out),
        Value::Bool(x) => (2u8, x).persist(out),
        Value::Node(x) => (3u8, x).persist(out),
        Value::Edge(x) => (4u8, x).persist(out),
    }
}

fn get_value(r: &mut ByteReader<'_>) -> Result<Value, CkptError> {
    Ok(match u8::restore(r)? {
        0 => Value::Int(Persist::restore(r)?),
        1 => Value::Double(Persist::restore(r)?),
        2 => Value::Bool(Persist::restore(r)?),
        3 => Value::Node(Persist::restore(r)?),
        4 => Value::Edge(Persist::restore(r)?),
        t => return Err(CkptError::Decode(format!("invalid Value tag {t:#04x}"))),
    })
}

/// Persists a row of values: its length, then each value.
pub(crate) fn put_values(values: &[Value], out: &mut Vec<u8>) {
    values.len().persist(out);
    values.iter().for_each(|v| put_value(v, out));
}

/// Restores a row [`put_values`] wrote.
pub(crate) fn get_values(r: &mut ByteReader<'_>) -> Result<Vec<Value>, CkptError> {
    let n = r.read_len(2)?; // a tag byte and at least one payload byte each
    (0..n).map(|_| get_value(r)).collect()
}

/// A value as the runtime's broadcasts and aggregates carry it.
pub(crate) fn to_g(v: Value) -> GlobalValue {
    match v {
        Value::Int(x) => GlobalValue::Int(x),
        Value::Double(x) => GlobalValue::Double(x),
        Value::Bool(x) => GlobalValue::Bool(x),
        Value::Node(x) => GlobalValue::Node(x),
        Value::Edge(x) => GlobalValue::Int(x as i64),
    }
}
