//! The interpreter leg: a compiled [`gm_core::pir::PregelProgram`] run by
//! the shared [`crate::shell`].
//!
//! The whole machine — vertex kernels, master blocks, post blocks and
//! transitions — runs in the slot-resolved form of [`gm_core::kernel`],
//! through the one evaluator [`crate::exec::eval`], so neither the hot
//! per-vertex path nor the master performs string hashing or map lookups.
//! Globals live in one slot-indexed row that master and vertex code read
//! alike; message payloads are shared via `Arc` so a fan-out to ten
//! thousand neighbors clones a pointer, not a vector.

use crate::exec::{eval, EvalCx};
use crate::shell::{
    get_values, put_values, run_leg, to_g, with_signature, CompiledOutcome, Leg, Master, Row,
    RunError,
};
use gm_core::ast::AssignOp;
use gm_core::kernel::{self, CAction, CExpr, CInstr, CKernel, CMInstr, CPull, Lowered};
use gm_core::pir::Transition;
use gm_core::seqinterp::ArgValue;
use gm_core::value::{apply_reduce, Value};
use gm_core::Compiled;
use gm_graph::{EdgeId, Graph, NodeId};
use gm_pregel::{
    ByteReader, CkptError, GlobalValue, Inbox, MasterContext, Persist, PregelConfig, ReduceOp,
    VertexContext,
};
use std::cell::RefCell;
use std::collections::HashMap;
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

impl Persist for VertexData {
    fn persist(&self, out: &mut Vec<u8>) {
        put_values(&self.props, out);
        self.in_nbrs.persist(out);
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<Self, CkptError> {
        Ok(VertexData {
            props: get_values(r)?,
            in_nbrs: Persist::restore(r)?,
        })
    }
}

impl Persist for Msg {
    fn persist(&self, out: &mut Vec<u8>) {
        self.tag.persist(out);
        put_values(&self.payload, out);
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<Self, CkptError> {
        Ok(Msg {
            tag: u8::restore(r)?,
            payload: Arc::from(get_values(r)?),
        })
    }
}

/// Executes `compiled` on `graph` with the given arguments: the
/// interpreter leg inside the shared [`crate::shell`].
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
    // Verified PIR always lowers; a failure is a compiler bug.
    let pre = kernel::lower(program).unwrap_or_else(|e| panic!("{e}"));
    with_signature(program, &pre, |sig| {
        run_leg(sig, graph, args, seed, config, |b| Machine {
            pre: &pre,
            in_nbr_tag: pre.in_nbr_tag(),
            edge_cols: (0..sig.edge_props.len())
                .map(|i| b.edge(i).collect())
                .collect(),
            graph,
        })
    })
}

/// The interpreter leg: lowered code run through [`crate::exec::eval`].
struct Machine<'a> {
    pre: &'a Lowered,
    /// The tag whose handler stores in-neighbors.
    in_nbr_tag: Option<u8>,
    edge_cols: Vec<Vec<Value>>,
    graph: &'a Graph,
}

impl Row for VertexData {
    fn build(len: usize, value: impl Fn(usize) -> Value) -> Self {
        VertexData {
            props: (0..len).map(value).collect(),
            in_nbrs: Vec::new(),
        }
    }

    fn get(&self, slot: usize) -> Value {
        self.props[slot]
    }

    fn in_nbrs(&self) -> &[u32] {
        &self.in_nbrs
    }

    fn has_slots(&self, len: usize) -> bool {
        self.props.len() == len
    }
}

/// Evaluates master code: every global by slot, the graph size and the
/// master's RNG; no vertex.
fn master_eval(e: &CExpr, g: &[Value], m: &mut Master<'_>) -> Value {
    let (num_nodes, num_edges) = (m.graph.num_nodes(), m.graph.num_edges());
    let rng = RefCell::new(&mut m.rng);
    let cx = EvalCx {
        globals: g,
        num_nodes,
        num_edges,
        rng: Some(&rng),
        ..EvalCx::default()
    };
    eval(e, &cx)
}

fn run_minstrs(
    instrs: &[CMInstr],
    g: &mut Vec<Value>,
    m: &mut Master<'_>,
    agg: Option<&MasterContext<'_>>,
) {
    for instr in instrs {
        if m.finished {
            return;
        }
        match instr {
            CMInstr::Assign {
                slot,
                op,
                value,
                ty,
            } => {
                let v = master_eval(value, g, m).coerce(ty);
                g[*slot] = apply_reduce(*op, g[*slot], v);
            }
            CMInstr::FoldAgg { slot, op, agg_key } => {
                if let Some(gv) = agg.and_then(|ctx| ctx.agg(agg_key)) {
                    g[*slot] = apply_reduce(*op, g[*slot], from_g(gv));
                }
            }
            CMInstr::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let taken = if master_eval(cond, g, m).as_bool() {
                    then_branch
                } else {
                    else_branch
                };
                run_minstrs(taken, g, m, agg);
            }
            CMInstr::SetReturn { value, coerce } => {
                let ret = value.as_ref().map(|e| {
                    let v = master_eval(e, g, m);
                    coerce.as_ref().map_or(v, |t| v.coerce(t))
                });
                m.finish(ret);
            }
        }
    }
}

impl Leg for Machine<'_> {
    type Globals = Vec<Value>;
    type VertexValue = VertexData;
    type Message = Msg;

    const ENCODING: &'static str = "interp";

    fn master(&self, state: usize, g: &mut Vec<Value>, m: &mut Master<'_>) {
        run_minstrs(&self.pre.masters[state].master, g, m, None);
    }

    fn post(
        &self,
        state: usize,
        g: &mut Vec<Value>,
        m: &mut Master<'_>,
        agg: Option<&MasterContext<'_>>,
    ) {
        run_minstrs(&self.pre.masters[state].post, g, m, agg);
    }

    fn transition(&self, state: usize, g: &Vec<Value>, m: &mut Master<'_>) -> Option<usize> {
        match &self.pre.masters[state].transition {
            Transition::Goto(id) => Some(*id),
            Transition::Branch {
                cond,
                then_to,
                else_to,
            } => Some(if master_eval(cond, g, m).as_bool() {
                *then_to
            } else {
                *else_to
            }),
            Transition::Halt => None,
        }
    }

    fn message_bytes(&self, m: &Msg) -> u64 {
        self.pre.msg_bytes[m.tag as usize]
    }

    fn in_nbr(&self, m: &Msg) -> Option<u32> {
        (Some(m.tag) == self.in_nbr_tag).then(|| match m.payload.first() {
            Some(Value::Node(id)) => *id,
            // Malformed: refused like an id past the last vertex.
            _ => u32::MAX,
        })
    }

    fn pull_message(
        &self,
        state: usize,
        g: &Vec<Value>,
        graph: &Graph,
        src: NodeId,
        edge: EdgeId,
        src_value: &VertexData,
    ) -> Msg {
        let Some(CKernel {
            pull: CPull::Recomputed(site),
            ..
        }) = &self.pre.kernels[state]
        else {
            unreachable!("state {state} is not Recomputed")
        };
        // The verdict guarantees the payload reads no kernel locals and no
        // kernel-written properties, so evaluating it here — after the
        // sender's kernel ran — reproduces the pushed payload.
        let cx = EvalCx {
            props: &src_value.props,
            globals: g,
            self_id: src.0,
            out_degree: graph.out_degree(src),
            in_nbrs_len: src_value.in_nbrs.len(),
            edge_cols: &self.edge_cols,
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

    fn vertex_compute(
        &self,
        state: usize,
        g: &Vec<Value>,
        ctx: &mut VertexContext<'_, '_, Msg>,
        value: &mut VertexData,
        messages: Inbox<'_, Msg>,
    ) {
        let Some(kernel) = self.pre.kernels[state].as_ref() else {
            return;
        };
        let self_id = ctx.id().0;
        let out_degree = ctx.out_degree();

        // ---- receive phase (messages from the previous superstep) ----
        if !messages.is_empty() {
            let snapshot: Option<Vec<Value>> = kernel.snapshot_needed.then(|| value.props.clone());
            messages.for_each(|msg| {
                let Some(handler) = kernel.handler(msg.tag) else {
                    return; // dangling message — dropped, as in the paper
                };
                let in_nbrs_len = value.in_nbrs.len();
                let eval_recv = |props: &[Value], e: &CExpr| -> Value {
                    eval(
                        e,
                        &EvalCx {
                            props,
                            snapshot: snapshot.as_deref(),
                            payload: &msg.payload,
                            globals: g,
                            self_id,
                            out_degree,
                            in_nbrs_len,
                            edge_cols: &self.edge_cols,
                            num_nodes: self.graph.num_nodes(),
                            num_edges: self.graph.num_edges(),
                            ..EvalCx::default()
                        },
                    )
                };
                if let Some(g) = &handler.guard {
                    if !eval_recv(&value.props, g).as_bool() {
                        return;
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
            });
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
                    globals: g,
                    self_id,
                    out_degree,
                    in_nbrs_len: in_nbrs.len(),
                    edge_cols: &self.edge_cols,
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
                g,
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
}

impl Machine<'_> {
    #[allow(clippy::too_many_arguments)]
    fn exec_instrs(
        &self,
        ctx: &mut VertexContext<'_, '_, Msg>,
        g: &[Value],
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
                    globals: g,
                    self_id,
                    out_degree,
                    in_nbrs_len: in_nbrs.len(),
                    edge_cols: &self.edge_cols,
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
                CInstr::If {
                    cond,
                    then_branch,
                    else_branch,
                } => {
                    let c = eval(cond, &cx!()).as_bool();
                    let branch = if c { then_branch } else { else_branch };
                    self.exec_instrs(
                        ctx, g, branch, props, in_nbrs, locals, deferred, self_id, out_degree,
                    );
                }
            }
        }
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
    use crate::shell::MasterSection;
    use gm_core::{compile, CompileOptions};

    /// Halves integer weights into a `Double` property: only a coerced
    /// column divides as `Double`.
    const HALF: &str = "Procedure half(G: Graph, len: E_P<Double>, r: N_P<Double>) {
        Foreach (n: G.Nodes) {
            Foreach (s: n.Nbrs) {
                Edge e = s.ToEdge();
                s.r += e.len / 2;
            }
        }
    }";

    /// Three nodes, four edges weighted 3, 4, 9, 1 — passed as `Int`s, as
    /// `gmc run` passes a weighted edge list.
    fn half_fixture() -> (Graph, HashMap<String, ArgValue>) {
        let mut b = gm_graph::GraphBuilder::new(3);
        b.extend([(0, 1), (0, 2), (1, 2), (2, 0)]);
        let weights = [3, 4, 9, 1].map(Value::Int).to_vec();
        (
            b.build(),
            HashMap::from([("len".to_owned(), ArgValue::EdgeProp(weights))]),
        )
    }

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

    /// The `master` section of the newest snapshot a run of `src` with a
    /// checkpoint every superstep writes.
    fn master_section(src: &str, args: &HashMap<String, ArgValue>) -> Vec<u8> {
        let dir = std::env::temp_dir().join(format!("gm-interp-master-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = PregelConfig {
            checkpoint: Some(gm_pregel::CheckpointConfig::new(&dir, 1)),
            ..PregelConfig::sequential()
        };
        let compiled = compile(src, &CompileOptions::default()).unwrap();
        run_compiled(&gm_graph::gen::path(3), &compiled, args, 0, &config).unwrap();
        let mut files: Vec<_> = (std::fs::read_dir(&dir).unwrap())
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "gmck"))
            .collect();
        files.sort();
        let snap = gm_pregel::Snapshot::read(files.last().expect("a snapshot")).unwrap();
        let bytes = snap.section("master").unwrap().to_vec();
        let _ = std::fs::remove_dir_all(&dir);
        bytes
    }

    #[test]
    fn master_state_restores_by_name_and_rejects_an_unknown_global() {
        let count = |k| {
            format!(
                "Procedure f(G: Graph, {k}: Int, c: N_P<Int>) {{
                    Foreach (n: G.Nodes) {{ n.c = {k}; }}
                }}"
            )
        };
        let args = HashMap::from([("k".to_owned(), ArgValue::Scalar(Value::Int(7)))]);
        let saved = master_section(&count("k"), &args);
        let decode = |src: &str| {
            let program = compile(src, &CompileOptions::default()).unwrap().program;
            let pre = kernel::lower(&program).unwrap();
            let mut r = ByteReader::new(&saved);
            with_signature(&program, &pre, |sig| MasterSection::decode(sig, &mut r))
        };
        let same = decode(&count("k")).unwrap();
        assert_eq!(same.globals, vec![Value::Int(7)]);
        let err = decode(&count("j")).unwrap_err();
        assert!(
            matches!(&err, CkptError::Decode(m) if m.contains("snapshot global `k` is unknown")),
            "{err}"
        );
    }

    #[test]
    fn columns_are_coerced_to_their_element_type() {
        let (g, args) = half_fixture();
        let out = run_src(&g, HALF, &args);
        let half = [0.5, 1.5, 6.5].map(Value::Double);
        assert_eq!(out.node_props["r"], half);
        differential(&g, HALF, &args);
    }

    #[test]
    fn a_bool_in_a_double_column_is_a_bad_argument() {
        let (g, mut args) = half_fixture();
        let bools = vec![Value::Bool(true); 4];
        args.insert("len".to_owned(), ArgValue::EdgeProp(bools));
        let compiled = compile(HALF, &CompileOptions::default()).unwrap();
        let err = run_compiled(&g, &compiled, &args, 0, &PregelConfig::sequential()).unwrap_err();
        assert_eq!(
            err.to_string(),
            "bad argument: `len`[0]: cannot coerce Bool(true) to Double"
        );
    }
}
