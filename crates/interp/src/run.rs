//! The state-machine driver: implements [`gm_pregel::VertexProgram`] for a
//! compiled [`PregelProgram`].
//!
//! The whole machine — vertex kernels, master blocks, post blocks and
//! transitions — runs in the slot-resolved form of [`gm_core::kernel`],
//! through the one evaluator [`crate::exec::eval`], so neither the hot
//! per-vertex path nor the master performs string hashing or map lookups.
//! Globals live in a slot-indexed row; the ones a kernel reads are
//! materialized once per superstep by the master; message payloads are
//! shared via `Arc` so a fan-out to ten thousand neighbors clones a
//! pointer, not a vector.

use crate::eval::PickRng;
use crate::exec::{eval, EvalCx};
use gm_core::ast::AssignOp;
use gm_core::kernel::{self, CAction, CExpr, CInstr, CMInstr, Lowered};
use gm_core::pir::{PregelProgram, StateId, Transition, IN_NBRS_TAG};
use gm_core::seqinterp::ArgValue;
use gm_core::value::{apply_reduce, Value};
use gm_core::{Compiled, Pullability};
use gm_graph::{EdgeId, Graph, NodeId};
use gm_pregel::{
    run, ByteReader, CkptError, GlobalValue, MasterContext, MasterDecision, Metrics, Persist,
    PregelConfig, PregelError, PullMode, ReduceOp, VertexContext, VertexProgram,
};
use std::cell::RefCell;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Per-vertex state: the property row plus the in-neighbor array.
#[derive(Clone, Debug)]
pub struct VertexData {
    props: Vec<Value>,
    in_nbrs: Vec<u32>,
}

/// A message: tag plus payload values in layout order (shared on fan-out).
#[derive(Clone, Debug)]
pub struct Msg {
    tag: u8,
    payload: Arc<[Value]>,
}

// `Value` lives in gm-core and `Persist` in gm-ckpt, so the orphan rule
// forbids a trait impl; a local tag-byte codec bridges the two.
fn put_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Int(x) => {
            0u8.persist(out);
            x.persist(out);
        }
        Value::Double(x) => {
            1u8.persist(out);
            x.persist(out);
        }
        Value::Bool(x) => {
            2u8.persist(out);
            x.persist(out);
        }
        Value::Node(x) => {
            3u8.persist(out);
            x.persist(out);
        }
        Value::Edge(x) => {
            4u8.persist(out);
            x.persist(out);
        }
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

impl Persist for VertexData {
    fn persist(&self, out: &mut Vec<u8>) {
        self.props.len().persist(out);
        for v in &self.props {
            put_value(v, out);
        }
        self.in_nbrs.persist(out);
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<Self, CkptError> {
        let n = usize::restore(r)?;
        let mut props = Vec::new();
        for _ in 0..n {
            props.push(get_value(r)?);
        }
        Ok(VertexData {
            props,
            in_nbrs: Persist::restore(r)?,
        })
    }
}

impl Persist for Msg {
    fn persist(&self, out: &mut Vec<u8>) {
        self.tag.persist(out);
        self.payload.len().persist(out);
        for v in self.payload.iter() {
            put_value(v, out);
        }
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<Self, CkptError> {
        let tag = u8::restore(r)?;
        let n = usize::restore(r)?;
        let mut payload = Vec::new();
        for _ in 0..n {
            payload.push(get_value(r)?);
        }
        Ok(Msg {
            tag,
            payload: Arc::from(payload),
        })
    }
}

/// Errors from [`run_compiled`].
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

/// One executed superstep, for tracing/debugging generated programs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStep {
    /// Which state of the machine ran its vertex phase.
    pub state: usize,
    /// Vertices whose kernel executed.
    pub active_vertices: u32,
    /// Messages sent during the superstep.
    pub messages_sent: u64,
    /// Serialized bytes of those messages.
    pub message_bytes: u64,
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
    /// Which machine state each superstep executed (aligned with
    /// [`Metrics::per_superstep`]) — the execution trace of the generated
    /// state machine.
    pub trace: Vec<TraceStep>,
}

/// Executes `compiled` on `graph` with the given arguments.
///
/// Arguments use the same convention as the sequential interpreter
/// ([`gm_core::seqinterp::run_procedure`]), so differential tests can feed
/// both sides identically. `seed` drives `G.PickRandom()` with the same
/// draw sequence as the sequential interpreter.
///
/// # Errors
///
/// Returns [`RunError::BadArgument`] for malformed arguments and
/// [`RunError::Pregel`] for runtime failures.
pub fn run_compiled(
    graph: &Graph,
    compiled: &Compiled,
    args: &HashMap<String, ArgValue>,
    seed: u64,
    config: &PregelConfig,
) -> Result<CompiledOutcome, RunError> {
    let program = &compiled.program;

    // Initial property columns.
    let mut prop_tys = Vec::new();
    let mut columns: Vec<Option<Vec<Value>>> = Vec::new();
    for (name, ty) in &program.node_props {
        prop_tys.push(ty.clone());
        match args.get(name) {
            Some(ArgValue::NodeProp(v)) => {
                if v.len() != graph.num_nodes() as usize {
                    return Err(RunError::BadArgument(format!(
                        "node property `{name}` has wrong length"
                    )));
                }
                columns.push(Some(v.clone()));
            }
            Some(_) => {
                return Err(RunError::BadArgument(format!(
                    "`{name}` must be a node property"
                )))
            }
            None => columns.push(None),
        }
    }

    let mut edge_cols = Vec::new();
    for (name, ty) in &program.edge_props {
        let values = match args.get(name) {
            Some(ArgValue::EdgeProp(v)) => {
                if v.len() != graph.num_edges() as usize {
                    return Err(RunError::BadArgument(format!(
                        "edge property `{name}` has wrong length"
                    )));
                }
                v.clone()
            }
            Some(_) => {
                return Err(RunError::BadArgument(format!(
                    "`{name}` must be an edge property"
                )))
            }
            None => vec![Value::default_for(ty); graph.num_edges() as usize],
        };
        edge_cols.push(values);
    }

    // Master globals: params from args, locals at defaults.
    let mut globals: Vec<Value> = (program.globals.iter())
        .map(|(_, ty)| Value::default_for(ty))
        .collect();
    for (name, ty) in &program.scalar_params {
        let v = match args.get(name) {
            Some(ArgValue::Scalar(v)) => v
                .try_coerce(ty)
                .map_err(|e| RunError::BadArgument(format!("`{name}`: {e}")))?,
            Some(_) => return Err(RunError::BadArgument(format!("`{name}` must be a scalar"))),
            None => {
                return Err(RunError::BadArgument(format!(
                    "missing scalar argument `{name}`"
                )))
            }
        };
        if let Some(slot) = program.globals.iter().position(|(g, _)| g == name) {
            globals[slot] = v;
        }
    }

    // Verified PIR always lowers; a failure is a compiler bug.
    let pre = kernel::lower(program).unwrap_or_else(|e| panic!("{e}"));

    let defaults: Vec<Value> = prop_tys.iter().map(Value::default_for).collect();
    let init = |n: NodeId| VertexData {
        props: columns
            .iter()
            .enumerate()
            .map(|(i, col)| match col {
                Some(v) => v[n.index()],
                None => defaults[i],
            })
            .collect(),
        in_nbrs: Vec::new(),
    };

    let mut machine = Machine::new(program, &pre, &edge_cols, graph, globals, seed);
    let result = run(graph, &mut machine, init, config)?;

    let mut node_props: HashMap<String, Vec<Value>> = HashMap::new();
    for (i, (name, _)) in program.node_props.iter().enumerate() {
        node_props.insert(
            name.clone(),
            result.values.iter().map(|v| v.props[i]).collect(),
        );
    }
    let trace = machine
        .state_log
        .iter()
        .zip(&result.metrics.per_superstep)
        .map(|(&state, m)| TraceStep {
            state,
            active_vertices: m.active_vertices,
            messages_sent: m.messages_sent,
            message_bytes: m.message_bytes,
        })
        .collect();
    Ok(CompiledOutcome {
        ret: machine.ret,
        node_props,
        globals: (program.globals.iter().map(|(name, _)| name.clone()))
            .zip(machine.globals)
            .collect(),
        metrics: result.metrics,
        trace,
    })
}

struct Machine<'a> {
    program: &'a PregelProgram,
    pre: &'a Lowered,
    /// Pullability verdict per state (aligned with `program.states`).
    pullable: Vec<Pullability>,
    edge_cols: &'a [Vec<Value>],
    graph: &'a Graph,
    /// Master globals by slot (aligned with `program.globals`).
    globals: Vec<Value>,
    seed: u64,
    rng: PickRng,
    prev_state: Option<StateId>,
    /// Set by the master before each vertex phase.
    cur_state: StateId,
    /// Broadcast values in the current kernel's slot order.
    cur_globals: Vec<Value>,
    /// States visited, one per vertex superstep (the execution trace).
    state_log: Vec<StateId>,
    ret: Option<Value>,
    finished: bool,
}

impl<'a> Machine<'a> {
    /// A machine at its entry state, with master globals `globals`.
    fn new(
        program: &'a PregelProgram,
        pre: &'a Lowered,
        edge_cols: &'a [Vec<Value>],
        graph: &'a Graph,
        globals: Vec<Value>,
        seed: u64,
    ) -> Self {
        // Per-state pullability verdicts: recorded by the compiler pass
        // when it ran, recomputed here otherwise (hand-built PIR in tests).
        let pullable = if program.pullable.len() == program.states.len() {
            program.pullable.clone()
        } else {
            gm_core::pullability::analyze(program)
        };
        Machine {
            program,
            pre,
            pullable,
            edge_cols,
            graph,
            globals,
            seed,
            rng: PickRng::seed_from_u64(seed),
            prev_state: None,
            cur_state: 0,
            cur_globals: Vec::new(),
            state_log: Vec::new(),
            ret: None,
            finished: false,
        }
    }

    /// Evaluates master code: every global by slot, the graph size and
    /// the master's RNG; no vertex.
    fn master_eval(&mut self, e: &CExpr) -> Value {
        let rng = RefCell::new(&mut self.rng);
        let cx = EvalCx {
            globals: &self.globals,
            num_nodes: self.graph.num_nodes(),
            num_edges: self.graph.num_edges(),
            rng: Some(&rng),
            ..EvalCx::default()
        };
        eval(e, &cx)
    }

    fn run_minstrs(&mut self, instrs: &[CMInstr], agg: Option<&MasterContext<'_>>) {
        for m in instrs {
            if self.finished {
                return;
            }
            match m {
                CMInstr::Assign {
                    slot,
                    op,
                    value,
                    ty,
                } => {
                    let v = self.master_eval(value).coerce(ty);
                    self.globals[*slot] = apply_reduce(*op, self.globals[*slot], v);
                }
                CMInstr::FoldAgg { slot, op, agg_key } => {
                    if let Some(gv) = agg.and_then(|ctx| ctx.agg(agg_key)) {
                        self.globals[*slot] = apply_reduce(*op, self.globals[*slot], from_g(gv));
                    }
                }
                CMInstr::If {
                    cond,
                    then_branch,
                    else_branch,
                } => {
                    if self.master_eval(cond).as_bool() {
                        self.run_minstrs(then_branch, agg);
                    } else {
                        self.run_minstrs(else_branch, agg);
                    }
                }
                CMInstr::SetReturn { value, coerce } => {
                    self.ret = value.as_ref().map(|e| {
                        let v = self.master_eval(e);
                        coerce.as_ref().map_or(v, |t| v.coerce(t))
                    });
                    self.finished = true;
                }
            }
        }
    }

    fn eval_transition(&mut self, t: &Transition<CExpr>) -> Option<StateId> {
        match t {
            Transition::Goto(id) => Some(*id),
            Transition::Branch {
                cond,
                then_to,
                else_to,
            } => Some(if self.master_eval(cond).as_bool() {
                *then_to
            } else {
                *else_to
            }),
            Transition::Halt => None,
        }
    }
}

impl VertexProgram for Machine<'_> {
    type VertexValue = VertexData;
    type Message = Msg;

    fn message_bytes(&self, m: &Msg) -> u64 {
        if m.tag == IN_NBRS_TAG {
            self.pre.in_nbrs_bytes
        } else {
            self.pre.msg_bytes[m.tag as usize]
        }
    }

    fn has_combiner(&self) -> bool {
        self.program.combinable.iter().any(Option::is_some)
    }

    fn combine(&self, a: &Msg, b: &Msg) -> Option<Msg> {
        if a.tag != b.tag || a.tag == IN_NBRS_TAG {
            return None;
        }
        let op = self
            .program
            .combinable
            .get(a.tag as usize)
            .copied()
            .flatten()?;
        Some(Msg {
            tag: a.tag,
            payload: Arc::from(vec![apply_reduce(op, a.payload[0], b.payload[0])]),
        })
    }

    fn pull_supported(&self) -> bool {
        self.pullable
            .iter()
            .any(|p| matches!(p, Pullability::Pullable { .. }))
    }

    fn pull_mode(&self) -> PullMode {
        // `NoSends` states map to `Unsupported` on purpose: a gather walks
        // every in-edge, which is wasted work when nothing was sent.
        match self.pullable.get(self.cur_state) {
            Some(Pullability::Pullable {
                edge_dependent: false,
            }) => PullMode::Captured,
            Some(Pullability::Pullable {
                edge_dependent: true,
            }) => PullMode::Recomputed,
            _ => PullMode::Unsupported,
        }
    }

    fn pull_message(
        &self,
        graph: &Graph,
        src: NodeId,
        edge: EdgeId,
        src_value: &VertexData,
    ) -> Msg {
        let site = self.pre.kernels[self.cur_state]
            .as_ref()
            .and_then(|k| k.send_site.as_ref())
            .expect("Recomputed verdict implies a recorded single send site");
        // The pullability analysis guarantees the payload reads no kernel
        // locals and no kernel-written properties, so evaluating it here —
        // after the sender's kernel ran — reproduces the pushed payload.
        let cx = EvalCx {
            props: &src_value.props,
            globals: &self.cur_globals,
            self_id: src.0,
            out_degree: graph.out_degree(src),
            in_nbrs_len: src_value.in_nbrs.len(),
            edge_cols: self.edge_cols,
            edge: edge.index(),
            num_nodes: graph.num_nodes(),
            num_edges: graph.num_edges(),
            ..EvalCx::default()
        };
        Msg {
            tag: site.tag,
            payload: site.payload.iter().map(|p| eval(p, &cx)).collect(),
        }
    }

    fn master_compute(&mut self, ctx: &mut MasterContext<'_>) -> MasterDecision {
        if self.finished {
            return MasterDecision::Halt;
        }
        let masters = &self.pre.masters;
        let mut current = match self.prev_state {
            None => 0,
            Some(prev) => {
                self.run_minstrs(&masters[prev].post, Some(ctx));
                if self.finished {
                    return MasterDecision::Halt;
                }
                match self.eval_transition(&masters[prev].transition) {
                    Some(id) => id,
                    None => return MasterDecision::Halt,
                }
            }
        };
        // Master chain: run through master-only states within this call.
        let mut steps: u64 = 0;
        loop {
            steps += 1;
            assert!(
                steps < 10_000_000,
                "master state machine did not reach a vertex state"
            );
            self.run_minstrs(&masters[current].master, None);
            if self.finished {
                return MasterDecision::Halt;
            }
            if self.pre.kernels[current].is_some() {
                break;
            }
            self.run_minstrs(&masters[current].post, None);
            match self.eval_transition(&masters[current].transition) {
                Some(next) => current = next,
                None => return MasterDecision::Halt,
            }
        }
        // Broadcast the state number (as GPS does) and materialize the
        // globals the kernel reads, in slot order, for the vertex phase.
        ctx.put_global("_state", GlobalValue::Int(current as i64));
        let kernel = self.pre.kernels[current]
            .as_ref()
            .expect("loop exits on vertex states");
        self.cur_globals = kernel
            .reads_globals
            .iter()
            .map(|&g| self.globals[g])
            .collect();
        for (&g, v) in kernel.reads_globals.iter().zip(&self.cur_globals) {
            ctx.put_global(&self.program.globals[g].0, to_g(*v));
        }
        self.cur_state = current;
        self.prev_state = Some(current);
        self.state_log.push(current);
        MasterDecision::Continue
    }

    fn vertex_compute(
        &self,
        ctx: &mut VertexContext<'_, '_, Msg>,
        value: &mut VertexData,
        messages: &[Msg],
    ) {
        let Some(kernel) = self.pre.kernels[self.cur_state].as_ref() else {
            return;
        };
        let self_id = ctx.id().0;
        let out_degree = ctx.out_degree();

        // ---- receive phase (messages from the previous superstep) ----
        if !messages.is_empty() {
            let snapshot: Option<Vec<Value>> = kernel.snapshot_needed.then(|| value.props.clone());
            for msg in messages {
                if msg.tag == IN_NBRS_TAG {
                    if kernel.stores_in_nbrs {
                        value.in_nbrs.push(msg.payload[0].as_node());
                    }
                    continue;
                }
                let Some(handler) = kernel.handler(msg.tag) else {
                    continue; // dangling message — dropped, as in the paper
                };
                let in_nbrs_len = value.in_nbrs.len();
                let eval_recv = |props: &[Value], e: &CExpr| -> Value {
                    eval(
                        e,
                        &EvalCx {
                            props,
                            snapshot: snapshot.as_deref(),
                            payload: &msg.payload,
                            globals: &self.cur_globals,
                            self_id,
                            out_degree,
                            in_nbrs_len,
                            edge_cols: self.edge_cols,
                            num_nodes: self.graph.num_nodes(),
                            num_edges: self.graph.num_edges(),
                            ..EvalCx::default()
                        },
                    )
                };
                if let Some(g) = &handler.guard {
                    if !eval_recv(&value.props, g).as_bool() {
                        continue;
                    }
                }
                for step in &handler.steps {
                    if let Some(g) = &step.guard {
                        if !eval_recv(&value.props, g).as_bool() {
                            continue;
                        }
                    }
                    match &step.action {
                        CAction::WriteOwn {
                            prop,
                            op,
                            value: ve,
                            ty,
                        } => {
                            let v = eval_recv(&value.props, ve).coerce(ty);
                            value.props[*prop] = apply_reduce(*op, value.props[*prop], v);
                        }
                        CAction::ReduceGlobal {
                            name,
                            op,
                            value: ve,
                        } => {
                            let v = eval_recv(&value.props, ve);
                            ctx.reduce_global(name, to_reduce_op(*op), to_g(v));
                        }
                        CAction::StoreInNbr => {
                            value.in_nbrs.push(msg.payload[0].as_node());
                        }
                    }
                }
            }
        }

        // ---- body phase ----
        let VertexData { props, in_nbrs } = value;
        let mut locals = vec![Value::Int(0); kernel.locals.len()];
        let mut deferred: Vec<(usize, Value)> = Vec::new();
        let filter_ok = match &kernel.filter {
            Some(f) => {
                let cx = EvalCx {
                    props,
                    locals: &locals,
                    globals: &self.cur_globals,
                    self_id,
                    out_degree,
                    in_nbrs_len: in_nbrs.len(),
                    edge_cols: self.edge_cols,
                    num_nodes: self.graph.num_nodes(),
                    num_edges: self.graph.num_edges(),
                    ..EvalCx::default()
                };
                eval(f, &cx).as_bool()
            }
            None => true,
        };
        if filter_ok {
            self.exec_instrs(
                ctx,
                &kernel.body,
                props,
                in_nbrs,
                &mut locals,
                &mut deferred,
                self_id,
                out_degree,
            );
        }
        for (idx, v) in deferred {
            props[idx] = v;
        }
    }

    // Snapshots are cut before `master_compute`, so `cur_state` and
    // `cur_globals` need not be saved — the master recomputes them on the
    // first post-restore superstep. The RNG is stored as its draw count
    // and replayed from the seed (see [`PickRng`]).
    fn save_master_state(&self, out: &mut Vec<u8>) {
        self.rng.draws().persist(out);
        self.prev_state.map(|s| s as u64).persist(out);
        self.finished.persist(out);
        self.ret.is_some().persist(out);
        if let Some(v) = &self.ret {
            put_value(v, out);
        }
        // By name, in sorted order: the bytes do not depend on slot order.
        let names = &self.program.globals;
        let mut order: Vec<usize> = (0..names.len()).collect();
        order.sort_by(|&a, &b| names[a].0.cmp(&names[b].0));
        order.len().persist(out);
        for slot in order {
            names[slot].0.persist(out);
            put_value(&self.globals[slot], out);
        }
        self.state_log.len().persist(out);
        for &s in &self.state_log {
            (s as u64).persist(out);
        }
    }

    fn restore_master_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), CkptError> {
        let draws = u64::restore(r)?;
        self.rng = PickRng::replay(self.seed, draws, self.graph.num_nodes());
        let prev: Option<u64> = Persist::restore(r)?;
        self.prev_state = prev.map(|s| s as StateId);
        self.finished = Persist::restore(r)?;
        self.ret = if bool::restore(r)? {
            Some(get_value(r)?)
        } else {
            None
        };
        let n = usize::restore(r)?;
        if n != self.globals.len() {
            return Err(CkptError::Decode(format!(
                "snapshot holds {n} globals, the program has {}",
                self.globals.len()
            )));
        }
        for _ in 0..n {
            let name = String::restore(r)?;
            let slot = (self.program.globals.iter().position(|(g, _)| *g == name))
                .ok_or_else(|| CkptError::Decode(format!("snapshot global `{name}` is unknown")))?;
            self.globals[slot] = get_value(r)?;
        }
        let n = usize::restore(r)?;
        let mut log = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            log.push(u64::restore(r)? as StateId);
        }
        self.state_log = log;
        Ok(())
    }
}

impl Machine<'_> {
    #[allow(clippy::too_many_arguments)]
    fn exec_instrs(
        &self,
        ctx: &mut VertexContext<'_, '_, Msg>,
        instrs: &[CInstr],
        props: &mut Vec<Value>,
        in_nbrs: &[u32],
        locals: &mut Vec<Value>,
        deferred: &mut Vec<(usize, Value)>,
        self_id: u32,
        out_degree: u32,
    ) {
        macro_rules! cx {
            () => {
                cx!(0)
            };
            ($edge:expr) => {
                EvalCx {
                    props,
                    locals,
                    globals: &self.cur_globals,
                    self_id,
                    out_degree,
                    in_nbrs_len: in_nbrs.len(),
                    edge_cols: self.edge_cols,
                    edge: $edge,
                    num_nodes: self.graph.num_nodes(),
                    num_edges: self.graph.num_edges(),
                    ..EvalCx::default()
                }
            };
        }
        for instr in instrs {
            match instr {
                CInstr::Local {
                    slot,
                    op,
                    value,
                    ty,
                } => {
                    let v = eval(value, &cx!()).coerce(ty);
                    locals[*slot] = match op {
                        AssignOp::Assign => v,
                        _ => apply_reduce(*op, locals[*slot], v),
                    };
                }
                CInstr::WriteOwn {
                    prop,
                    op,
                    value,
                    ty,
                } => {
                    let v = eval(value, &cx!()).coerce(ty);
                    if *op == AssignOp::Defer {
                        deferred.push((*prop, v));
                    } else {
                        props[*prop] = apply_reduce(*op, props[*prop], v);
                    }
                }
                CInstr::ReduceGlobal { name, op, value } => {
                    let v = eval(value, &cx!());
                    ctx.reduce_global(name, to_reduce_op(*op), to_g(v));
                }
                CInstr::SendToNbrs {
                    tag,
                    payload,
                    edge_dependent,
                } => {
                    if *edge_dependent {
                        // In a Recomputed gather superstep `mark_send`
                        // absorbs the broadcast; the runtime re-evaluates
                        // the payload per in-edge via `pull_message`.
                        if !ctx.mark_send() {
                            for (t, e) in ctx.out_neighbors() {
                                let values: Arc<[Value]> =
                                    payload.iter().map(|p| eval(p, &cx!(e.index()))).collect();
                                ctx.send(
                                    t,
                                    Msg {
                                        tag: *tag,
                                        payload: values,
                                    },
                                );
                            }
                        }
                    } else {
                        let values: Arc<[Value]> =
                            payload.iter().map(|p| eval(p, &cx!())).collect();
                        ctx.send_to_nbrs(Msg {
                            tag: *tag,
                            payload: values,
                        });
                    }
                }
                CInstr::SendToInNbrs { tag, payload } => {
                    let values: Arc<[Value]> = payload.iter().map(|p| eval(p, &cx!())).collect();
                    for &nbr in in_nbrs {
                        ctx.send(
                            NodeId(nbr),
                            Msg {
                                tag: *tag,
                                payload: Arc::clone(&values),
                            },
                        );
                    }
                }
                CInstr::SendTo { dst, tag, payload } => {
                    let d = eval(dst, &cx!()).as_node();
                    let values: Arc<[Value]> = payload.iter().map(|p| eval(p, &cx!())).collect();
                    ctx.send(
                        NodeId(d),
                        Msg {
                            tag: *tag,
                            payload: values,
                        },
                    );
                }
                CInstr::SendIdToNbrs => {
                    let payload: Arc<[Value]> = Arc::from(vec![Value::Node(self_id)]);
                    ctx.send_to_nbrs(Msg {
                        tag: IN_NBRS_TAG,
                        payload,
                    });
                }
                CInstr::If {
                    cond,
                    then_branch,
                    else_branch,
                } => {
                    let c = eval(cond, &cx!()).as_bool();
                    let branch = if c { then_branch } else { else_branch };
                    self.exec_instrs(
                        ctx, branch, props, in_nbrs, locals, deferred, self_id, out_degree,
                    );
                }
            }
        }
    }
}

fn to_g(v: Value) -> GlobalValue {
    match v {
        Value::Int(x) => GlobalValue::Int(x),
        Value::Double(x) => GlobalValue::Double(x),
        Value::Bool(x) => GlobalValue::Bool(x),
        Value::Node(x) => GlobalValue::Node(x),
        Value::Edge(x) => GlobalValue::Int(x as i64),
    }
}

fn from_g(g: GlobalValue) -> Value {
    match g {
        GlobalValue::Int(x) => Value::Int(x),
        GlobalValue::Double(x) => Value::Double(x),
        GlobalValue::Bool(x) => Value::Bool(x),
        GlobalValue::Node(x) => Value::Node(x),
    }
}

fn to_reduce_op(op: AssignOp) -> ReduceOp {
    match op {
        AssignOp::Add => ReduceOp::Sum,
        AssignOp::Min => ReduceOp::Min,
        AssignOp::Max => ReduceOp::Max,
        AssignOp::Or => ReduceOp::Or,
        AssignOp::And => ReduceOp::And,
        other => panic!("global reduction operator {other:?} not supported by the runtime"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_core::{compile, CompileOptions};

    fn run_src(graph: &Graph, src: &str, args: &HashMap<String, ArgValue>) -> CompiledOutcome {
        let compiled = compile(src, &CompileOptions::default()).expect("compiles");
        run_compiled(graph, &compiled, args, 42, &PregelConfig::sequential()).expect("runs")
    }

    /// Also runs the sequential interpreter on the *original* source and
    /// compares node-prop and return results.
    fn differential(graph: &Graph, src: &str, args: &HashMap<String, ArgValue>) {
        use gm_core::seqinterp::run_procedure;
        let mut prog = gm_core::parser::parse(src).unwrap();
        gm_core::normalize::desugar_bulk(&mut prog);
        let infos = gm_core::sema::check(&mut prog).unwrap();
        let seq = run_procedure(graph, &prog.procedures[0], &infos[0], args, 42).unwrap();

        let out = run_src(graph, src, args);
        assert_eq!(seq.ret, out.ret, "return values differ");
        for (name, vals) in &out.node_props {
            if let Some(seq_vals) = seq.node_props.get(name) {
                assert_eq!(seq_vals, vals, "property `{name}` differs");
            }
        }
    }

    #[test]
    fn push_count_matches_sequential() {
        let g = gm_graph::gen::rmat(64, 256, 5);
        differential(
            &g,
            "Procedure f(G: Graph, cnt: N_P<Int>) {
                Foreach (n: G.Nodes) {
                    Foreach (t: n.Nbrs) {
                        t.cnt += 1;
                    }
                }
            }",
            &HashMap::new(),
        );
    }

    #[test]
    fn global_reduction_and_return() {
        let g = gm_graph::gen::star(5);
        differential(
            &g,
            "Procedure f(G: Graph) : Int {
                Int s = 0;
                Foreach (n: G.Nodes) {
                    s += n.Degree();
                }
                Return s;
            }",
            &HashMap::new(),
        );
    }

    #[test]
    fn pull_program_flips_and_matches() {
        let g = gm_graph::gen::rmat(48, 200, 9);
        let bars: Vec<Value> = (0..48).map(|i| Value::Int((i * 13) % 31)).collect();
        differential(
            &g,
            "Procedure f(G: Graph, foo: N_P<Int>, bar: N_P<Int>) {
                Foreach (n: G.Nodes) {
                    Foreach (t: n.InNbrs) {
                        n.foo max= t.bar;
                    }
                }
            }",
            &HashMap::from([("bar".to_owned(), ArgValue::NodeProp(bars))]),
        );
    }

    #[test]
    fn while_loop_with_exist_condition() {
        let g = gm_graph::gen::path(6);
        differential(
            &g,
            "Procedure f(G: Graph, v: N_P<Bool>) : Int {
                Int rounds = 0;
                Foreach (n: G.Nodes)(n.InDegree() == 0) {
                    n.v = True;
                }
                While (Exist(n: G.Nodes)(!n.v)) {
                    Foreach (n: G.Nodes)(n.v) {
                        Foreach (t: n.Nbrs) {
                            t.v = True;
                        }
                    }
                    rounds += 1;
                }
                Return rounds;
            }",
            &HashMap::new(),
        );
    }

    #[test]
    fn bulk_assignment_and_random_write() {
        let g = gm_graph::gen::path(5);
        differential(
            &g,
            "Procedure f(G: Graph, root: Node, dist: N_P<Int>) {
                G.dist = (G == root) ? 0 : INF;
            }",
            &HashMap::from([("root".to_owned(), ArgValue::Scalar(Value::Node(2)))]),
        );
    }

    #[test]
    fn edge_properties_ship_in_payload() {
        let g = gm_graph::gen::path(4);
        let weights = vec![Value::Int(5), Value::Int(7), Value::Int(11)];
        differential(
            &g,
            "Procedure f(G: Graph, len: E_P<Int>, d: N_P<Int>) {
                Foreach (n: G.Nodes) {
                    Foreach (s: n.Nbrs) {
                        Edge e = s.ToEdge();
                        s.d min= e.len;
                    }
                }
            }",
            &HashMap::from([("len".to_owned(), ArgValue::EdgeProp(weights))]),
        );
    }

    #[test]
    fn in_neighbor_preamble_counts_messages() {
        let g = gm_graph::gen::star(4); // 0 → 1..4
        let out = run_src(
            &g,
            "Procedure f(G: Graph, c: N_P<Int>, m: N_P<Bool>) {
                Foreach (i: G.Nodes) {
                    i.m = True;
                }
                Foreach (j: G.Nodes)(j.m) {
                    Foreach (u: j.InNbrs) {
                        u.c += 1;
                    }
                }
            }",
            &HashMap::new(),
        );
        // Hub has out-degree 4 → receives 4 "count" messages.
        assert_eq!(out.node_props["c"][0], Value::Int(4));
        // Preamble: 4 id messages + 4 in-neighbor messages.
        assert_eq!(out.metrics.total_messages, 8);
    }

    #[test]
    fn bfs_program_end_to_end() {
        let mut b = gm_graph::GraphBuilder::new(6);
        b.extend([(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]);
        let g = b.build();
        differential(
            &g,
            "Procedure f(G: Graph, root: Node, sigma: N_P<Double>) {
                Foreach (i: G.Nodes) {
                    i.sigma = 0.0;
                }
                root.sigma = 1.0;
                InBFS (v: G.Nodes From root) {
                    v.sigma += Sum(w: v.UpNbrs){w.sigma};
                }
            }",
            &HashMap::from([("root".to_owned(), ArgValue::Scalar(Value::Node(0)))]),
        );
    }

    #[test]
    fn results_identical_across_worker_counts() {
        let g = gm_graph::gen::rmat(64, 256, 11);
        let src = "Procedure f(G: Graph, cnt: N_P<Int>) {
            Foreach (n: G.Nodes) {
                Foreach (t: n.Nbrs) {
                    t.cnt += 1;
                }
            }
        }";
        let compiled = compile(src, &CompileOptions::default()).unwrap();
        let base = run_compiled(
            &g,
            &compiled,
            &HashMap::new(),
            0,
            &PregelConfig::sequential(),
        )
        .unwrap();
        for w in [2, 4] {
            let out = run_compiled(
                &g,
                &compiled,
                &HashMap::new(),
                0,
                &PregelConfig::with_workers(w),
            )
            .unwrap();
            assert_eq!(out.node_props["cnt"], base.node_props["cnt"]);
            assert_eq!(out.metrics.supersteps, base.metrics.supersteps);
            assert_eq!(
                out.metrics.total_message_bytes,
                base.metrics.total_message_bytes
            );
        }
    }

    #[test]
    fn missing_argument_is_reported() {
        let g = gm_graph::gen::path(3);
        let compiled = compile(
            "Procedure f(G: Graph, k: Int) : Int { Return k; }",
            &CompileOptions::default(),
        )
        .unwrap();
        let err = run_compiled(
            &g,
            &compiled,
            &HashMap::new(),
            0,
            &PregelConfig::sequential(),
        )
        .unwrap_err();
        assert!(matches!(err, RunError::BadArgument(_)));
        assert!(err.to_string().contains("k"));
    }

    #[test]
    fn a_wrongly_typed_scalar_argument_is_a_bad_argument() {
        let g = gm_graph::gen::path(3);
        let compiled = compile(
            "Procedure f(G: Graph, root: Node) : Node { Return root; }",
            &CompileOptions::default(),
        )
        .unwrap();
        let args = HashMap::from([("root".to_owned(), ArgValue::Scalar(Value::Bool(true)))]);
        let err = run_compiled(&g, &compiled, &args, 0, &PregelConfig::sequential()).unwrap_err();
        assert!(matches!(err, RunError::BadArgument(_)));
        assert_eq!(
            err.to_string(),
            "bad argument: `root`: cannot coerce Bool(true) to Node"
        );
    }

    #[test]
    fn master_state_restores_by_name_and_rejects_an_unknown_global() {
        let g = gm_graph::gen::path(3);
        let compiled = |src| compile(src, &CompileOptions::default()).unwrap().program;
        let (a, b) = (
            compiled("Procedure f(G: Graph, k: Int) : Int { Return k + 1; }"),
            compiled("Procedure f(G: Graph, j: Int) : Int { Return j + 1; }"),
        );
        let (pre_a, pre_b) = (kernel::lower(&a).unwrap(), kernel::lower(&b).unwrap());
        let row = |p: &PregelProgram, v| vec![Value::Int(v); p.globals.len()];
        let mut saved = Vec::new();
        Machine::new(&a, &pre_a, &[], &g, row(&a, 7), 0).save_master_state(&mut saved);

        let mut same = Machine::new(&a, &pre_a, &[], &g, row(&a, 0), 0);
        same.restore_master_state(&mut ByteReader::new(&saved))
            .unwrap();
        assert_eq!(same.globals, row(&a, 7));

        let mut other = Machine::new(&b, &pre_b, &[], &g, row(&b, 0), 0);
        let err = other
            .restore_master_state(&mut ByteReader::new(&saved))
            .unwrap_err();
        assert!(
            err.to_string().contains("snapshot global `k` is unknown"),
            "{err}"
        );
    }
}
