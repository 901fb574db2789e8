//! Translation of Pregel-canonical Green-Marl into the [`crate::pir`] state
//! machine (§3.1 of the paper).
//!
//! The walk mirrors the paper's rules:
//!
//! * **State machine construction** — sequential statements accumulate into
//!   the master code of the next state; every parallel `Foreach` seals one
//!   vertex state. `While`/branching `If` become master-only junction
//!   states (free at runtime, since the master executes through them inside
//!   one `master.compute` call).
//! * **Vertex and global object construction** — scalars declared in
//!   sequential code become master globals (broadcast on demand, reduced
//!   via the aggregation map); properties become vertex fields.
//! * **Neighborhood communication** — an inner loop becomes a send in this
//!   state plus a receive handler in the next vertex state; the payload is
//!   inferred by dataflow (sender-scoped reads of the receive-side code).
//! * **Multiple communication** — each send site gets its own message tag.
//! * **Random writing** — writes through non-iterator node variables become
//!   `sendToVertex` messages carrying the reduced value.
//! * **Edge properties** — reads through `ToEdge()` locals are evaluated
//!   per edge at send time and shipped in the payload.
//! * **Incoming neighbors** (§4.3) — a send along in-edges (or an
//!   `InDegree()` read) switches on the two-superstep preamble that
//!   materializes each vertex's in-neighbor array. It is an ordinary
//!   message: a `sender: Node` layout appended after the program's own
//!   tags, a state sending `SELF` to all out-neighbors, and a state whose
//!   handler stores the payload with `StoreInNbr`.

use crate::ast::*;
use crate::astutil::mentions;
use crate::diag::{Diagnostics, Span};
use crate::pir::*;
use crate::report::{Step, TransformReport};
use crate::sema::ProcInfo;
use crate::types::Ty;
use crate::value::Value;
use std::collections::{HashMap, HashSet};

/// Translates a canonical procedure into a [`PregelProgram`].
///
/// # Errors
///
/// Returns diagnostics for constructs that slipped past the canonical check
/// (defensive; the public pipeline runs [`crate::canonical`] first).
pub fn translate(
    proc: &Procedure,
    info: &ProcInfo,
    report: &mut TransformReport,
) -> Result<PregelProgram, Diagnostics> {
    let graph = info.graph.clone();
    let mut tx = Tx {
        info,
        graph: graph.clone(),
        globals: Vec::new(),
        global_set: HashSet::new(),
        node_props: Vec::new(),
        edge_props: Vec::new(),
        prop_set: HashSet::new(),
        vertex_locals: HashSet::new(),
        states: Vec::new(),
        pending_master: Vec::new(),
        pending_recvs: Vec::new(),
        unresolved: Vec::new(),
        messages: Vec::new(),
        uses_in_nbrs: false,
        diags: Diagnostics::new(),
    };

    // Parameters.
    let mut scalar_params = Vec::new();
    for p in &proc.params {
        match &p.ty {
            Ty::Graph => {}
            Ty::NodeProp(inner) => {
                tx.node_props.push((p.name.clone(), (**inner).clone()));
                tx.prop_set.insert(p.name.clone());
            }
            Ty::EdgeProp(inner) => {
                tx.edge_props.push((p.name.clone(), (**inner).clone()));
                tx.prop_set.insert(p.name.clone());
            }
            scalar => {
                scalar_params.push((p.name.clone(), scalar.clone()));
                tx.globals.push((p.name.clone(), scalar.clone()));
                tx.global_set.insert(p.name.clone());
            }
        }
    }

    tx.build_block(&proc.body);
    tx.finalize();
    // `InDegree()` in vertex code also needs the in-neighbor array: GPS
    // vertices only know their out-edges.
    tx.uses_in_nbrs |= calls_in_degree(&tx.states);
    if tx.uses_in_nbrs {
        tx.prepend_in_nbrs_preamble();
        report.record(Step::IncomingNeighbors);
    }

    if tx.diags.has_errors() {
        return Err(tx.diags);
    }

    let program = PregelProgram {
        name: proc.name.clone(),
        graph_param: graph,
        scalar_params,
        node_props: tx.node_props,
        edge_props: tx.edge_props,
        globals: tx.globals,
        messages: tx.messages,
        uses_in_nbrs: tx.uses_in_nbrs,
        combiners: false,
        ret: proc.ret.clone(),
        states: tx.states,
    };

    // Table 3 bookkeeping.
    report.record(Step::StateMachine);
    report.record(Step::MessageClassGen);
    if !program.globals.is_empty() {
        report.record(Step::GlobalObject);
    }
    if program.needs_tag_byte() {
        report.record(Step::MultipleComm);
    }
    if program
        .states
        .iter()
        .flat_map(|s| s.vertex.iter())
        .any(|k| kernel_has_send_to(&k.body))
    {
        report.record(Step::RandomWriting);
    }
    if program_reads_edge_props(&program) {
        report.record(Step::EdgeProperty);
    }

    Ok(program)
}

/// Whether any vertex kernel calls `InDegree()`.
fn calls_in_degree(states: &[State]) -> bool {
    let mut found = false;
    for k in states.iter().flat_map(|s| s.vertex.iter()) {
        k.visit_exprs(&mut |e| {
            e.visit(&mut |x| {
                found |= matches!(&x.kind, ExprKind::Call { method, .. } if method == "InDegree")
            })
        });
    }
    found
}

/// Whether any send payload reads the connecting edge's properties.
fn program_reads_edge_props(program: &PregelProgram) -> bool {
    let mut found = false;
    for k in program.states.iter().flat_map(|s| s.vertex.iter()) {
        VInstr::visit(&k.body, &mut |i| {
            if let VInstr::SendToNbrs { payload, .. } = i {
                for e in payload {
                    e.visit(&mut |x| {
                        found |= matches!(&x.kind, ExprKind::Prop { obj, .. } if obj == EDGE)
                    });
                }
            }
        });
    }
    found
}

/// Converts a deferred own-write into a plain one when no later
/// instruction in the same kernel body reads the property — the common
/// case (PageRank's `t.pr <= val` is the final touch of `pr`), and a
/// precondition for the state-merging optimizations, which fuse later code
/// into the same kernel.
fn demote_safe_defers(body: &mut [VInstr]) {
    let instrs_read_prop = |instrs: &[VInstr], prop: &str| {
        let mut found = false;
        VInstr::visit(instrs, &mut |i| {
            for e in i.exprs() {
                e.visit(&mut |x| {
                    found |= matches!(&x.kind, ExprKind::Prop { prop: p, .. } if p == prop)
                });
            }
        });
        found
    };
    for i in 0..body.len() {
        let prop = match &body[i] {
            VInstr::WriteOwn {
                prop,
                op: AssignOp::Defer,
                ..
            } => prop.clone(),
            _ => continue,
        };
        if !instrs_read_prop(&body[i + 1..], &prop) {
            if let VInstr::WriteOwn { op, .. } = &mut body[i] {
                *op = AssignOp::Assign;
            }
        }
    }
    // Defers nested under Ifs are left untouched (conservative).
}

fn kernel_has_send_to(body: &[VInstr]) -> bool {
    let mut found = false;
    VInstr::visit(body, &mut |i| found |= matches!(i, VInstr::SendTo { .. }));
    found
}

/// Which transition slot of a state is awaiting its successor id.
#[derive(Clone, Copy, Debug)]
enum Slot {
    Goto,
    BranchThen,
    BranchElse,
}

struct Tx<'a> {
    info: &'a ProcInfo,
    graph: String,
    globals: Vec<(String, Ty)>,
    global_set: HashSet<String>,
    node_props: Vec<(String, Ty)>,
    edge_props: Vec<(String, Ty)>,
    prop_set: HashSet<String>,
    vertex_locals: HashSet<String>,
    states: Vec<State>,
    pending_master: Vec<MInstr>,
    pending_recvs: Vec<RecvHandler>,
    unresolved: Vec<(StateId, Slot)>,
    messages: Vec<MessageLayout>,
    uses_in_nbrs: bool,
    diags: Diagnostics,
}

impl Tx<'_> {
    fn error(&mut self, span: Span, msg: impl Into<String>) {
        self.diags.error(span, msg);
    }

    // ---- state machine assembly ----

    fn resolve_links_to(&mut self, id: StateId) {
        let mut bad: Option<(StateId, Slot)> = None;
        for (state, slot) in self.unresolved.drain(..) {
            let t = &mut self.states[state].transition;
            match (slot, t) {
                (Slot::Goto, t) => *t = Transition::Goto(id),
                (Slot::BranchThen, Transition::Branch { then_to, .. }) => *then_to = id,
                (Slot::BranchElse, Transition::Branch { else_to, .. }) => *else_to = id,
                // A branch slot recorded against a non-branch transition is
                // an internal linker bug; report it instead of panicking so
                // the user sees a diagnostic (the dangling placeholder
                // target is then caught again by the PIR verifier).
                (slot, _) => bad = Some((state, slot)),
            }
        }
        if let Some((state, slot)) = bad {
            let t = &self.states[state].transition;
            self.error(
                Span::synthetic(),
                format!(
                    "internal compiler error: transition slot {slot:?} of state {state} \
                     cannot be patched into {t:?}"
                ),
            );
        }
    }

    /// Pushes a state, wiring all unresolved predecessors to it. The new
    /// state becomes the unresolved predecessor of whatever comes next
    /// (unless it branches, in which case the caller manages slots).
    fn push_state(&mut self, mut state: State) -> StateId {
        let id = self.states.len();
        self.resolve_links_to(id);
        // Compute aggregate folds for this state's kernel.
        if let Some(kernel) = &state.vertex {
            state.post = fold_instrs(kernel);
        }
        let branches = matches!(state.transition, Transition::Branch { .. });
        self.states.push(state);
        if !branches {
            self.unresolved.push((id, Slot::Goto));
        }
        id
    }

    /// Seals a vertex state: pending master code + pending receive handlers
    /// + the given kernel parts.
    fn seal_vertex_state(&mut self, mut kernel: VertexKernel) -> StateId {
        kernel.recvs = std::mem::take(&mut self.pending_recvs);
        demote_safe_defers(&mut kernel.body);
        kernel.reads_globals = self.kernel_global_reads(&kernel);
        let master = std::mem::take(&mut self.pending_master);
        self.push_state(State {
            master,
            vertex: Some(kernel),
            post: vec![],
            transition: Transition::Halt, // patched via unresolved links
        })
    }

    /// Ensures pending receive handlers and master code are housed in a
    /// state (used before junctions and at loop ends).
    fn flush_pending(&mut self) {
        if !self.pending_recvs.is_empty() {
            self.seal_vertex_state(VertexKernel::default());
        } else if !self.pending_master.is_empty() {
            let master = std::mem::take(&mut self.pending_master);
            self.push_state(State {
                master,
                vertex: None,
                post: vec![],
                transition: Transition::Halt,
            });
        }
    }

    fn finalize(&mut self) {
        self.flush_pending();
        // Terminal state (possibly empty): everything halts here.
        let id = self.states.len();
        self.resolve_links_to(id);
        self.states.push(State {
            master: vec![],
            vertex: None,
            post: vec![],
            transition: Transition::Halt,
        });
    }

    // ---- sequential walk ----

    fn build_block(&mut self, block: &Block) {
        for stmt in &block.stmts {
            self.build_stmt(stmt);
        }
    }

    fn build_stmt(&mut self, stmt: &Stmt) {
        let span = stmt.span;
        match &stmt.kind {
            StmtKind::VarDecl { ty, name, init } => match ty {
                Ty::NodeProp(inner) => {
                    if self.prop_set.insert(name.clone()) {
                        self.node_props.push((name.clone(), (**inner).clone()));
                    }
                }
                Ty::EdgeProp(inner) => {
                    if self.prop_set.insert(name.clone()) {
                        self.edge_props.push((name.clone(), (**inner).clone()));
                    }
                }
                scalar => {
                    if self.global_set.insert(name.clone()) {
                        self.globals.push((name.clone(), scalar.clone()));
                    }
                    let value = init.clone().unwrap_or_else(|| default_expr_for(scalar));
                    self.pending_master.push(MInstr::Assign {
                        name: name.clone(),
                        op: AssignOp::Assign,
                        value,
                    });
                }
            },
            StmtKind::Assign { target, op, value } => match target {
                Target::Scalar(name) => {
                    self.pending_master.push(MInstr::Assign {
                        name: name.clone(),
                        op: *op,
                        value: value.clone(),
                    });
                }
                Target::Prop { .. } => {
                    self.error(span, "sequential random access reached translation");
                }
            },
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                if is_pure_master(then_branch) && else_branch.as_ref().is_none_or(is_pure_master) {
                    let then_instrs = self.master_block(then_branch);
                    let else_instrs = else_branch
                        .as_ref()
                        .map(|b| self.master_block(b))
                        .unwrap_or_default();
                    self.pending_master.push(MInstr::If {
                        cond: cond.clone(),
                        then_branch: then_instrs,
                        else_branch: else_instrs,
                    });
                } else {
                    self.build_branching_if(cond, then_branch, else_branch.as_ref());
                }
            }
            StmtKind::While { cond, body, .. } => self.build_while(cond, body),
            StmtKind::Foreach(f) => self.build_vertex_loop(f, span),
            StmtKind::Return(e) => {
                self.pending_master.push(MInstr::SetReturn(e.clone()));
            }
            StmtKind::InBfs(_) => self.error(span, "InBFS reached translation"),
            StmtKind::Block(b) => self.build_block(b),
        }
    }

    /// Pure-master statements (no loops inside) as master instructions.
    fn master_block(&mut self, block: &Block) -> Vec<MInstr> {
        let mut out = Vec::new();
        for stmt in &block.stmts {
            match &stmt.kind {
                StmtKind::VarDecl { ty, name, init } => {
                    if ty.is_value() {
                        if self.global_set.insert(name.clone()) {
                            self.globals.push((name.clone(), ty.clone()));
                        }
                        out.push(MInstr::Assign {
                            name: name.clone(),
                            op: AssignOp::Assign,
                            value: init.clone().unwrap_or_else(|| default_expr_for(ty)),
                        });
                    } else {
                        self.error(stmt.span, "property declaration in a master branch");
                    }
                }
                StmtKind::Assign {
                    target: Target::Scalar(name),
                    op,
                    value,
                } => out.push(MInstr::Assign {
                    name: name.clone(),
                    op: *op,
                    value: value.clone(),
                }),
                StmtKind::If {
                    cond,
                    then_branch,
                    else_branch,
                } => {
                    let t = self.master_block(then_branch);
                    let e = else_branch
                        .as_ref()
                        .map(|b| self.master_block(b))
                        .unwrap_or_default();
                    out.push(MInstr::If {
                        cond: cond.clone(),
                        then_branch: t,
                        else_branch: e,
                    });
                }
                StmtKind::Return(e) => out.push(MInstr::SetReturn(e.clone())),
                StmtKind::Block(b) => out.extend(self.master_block(b)),
                other => {
                    self.error(stmt.span, format!("unsupported master statement {other:?}"));
                }
            }
        }
        out
    }

    fn build_branching_if(
        &mut self,
        cond: &Expr,
        then_branch: &Block,
        else_branch: Option<&Block>,
    ) {
        self.flush_pending();
        let master = std::mem::take(&mut self.pending_master);
        let junction = self.push_state(State {
            master,
            vertex: None,
            post: vec![],
            transition: Transition::Branch {
                cond: cond.clone(),
                then_to: usize::MAX,
                else_to: usize::MAX,
            },
        });
        self.unresolved = vec![(junction, Slot::BranchThen)];
        self.build_block(then_branch);
        self.flush_pending();
        let mut exits = std::mem::take(&mut self.unresolved);
        self.unresolved = vec![(junction, Slot::BranchElse)];
        if let Some(eb) = else_branch {
            self.build_block(eb);
            self.flush_pending();
        }
        exits.append(&mut self.unresolved);
        self.unresolved = exits;
    }

    fn build_while(&mut self, cond: &Expr, body: &Block) {
        self.flush_pending();
        let master = std::mem::take(&mut self.pending_master);
        let head = self.push_state(State {
            master,
            vertex: None,
            post: vec![],
            transition: Transition::Branch {
                cond: cond.clone(),
                then_to: usize::MAX,
                else_to: usize::MAX,
            },
        });
        self.unresolved = vec![(head, Slot::BranchThen)];
        self.build_block(body);
        self.flush_pending();
        self.resolve_links_to(head); // loop back
        self.unresolved = vec![(head, Slot::BranchElse)];
    }

    // ---- vertex loop translation ----

    fn build_vertex_loop(&mut self, f: &ForeachStmt, span: Span) {
        if !f.parallel || !matches!(f.source, IterSource::Nodes { .. }) {
            self.error(span, "non-canonical loop reached translation");
            return;
        }
        let outer = &f.iter;
        let mut kernel = VertexKernel {
            recvs: vec![],
            filter: f.filter.as_ref().map(|e| self.vertex_expr(e, outer, span)),
            body: vec![],
            reads_globals: vec![],
        };
        let mut new_recvs: Vec<RecvHandler> = Vec::new();
        let body = self.vertex_block(&f.body, outer, &mut new_recvs, span);
        kernel.body = body;
        self.seal_vertex_state(kernel);
        self.pending_recvs = new_recvs;
    }

    fn vertex_block(
        &mut self,
        block: &Block,
        outer: &str,
        recvs: &mut Vec<RecvHandler>,
        span: Span,
    ) -> Vec<VInstr> {
        let mut out = Vec::new();
        for stmt in &block.stmts {
            self.vertex_stmt(stmt, outer, recvs, &mut out, span);
        }
        out
    }

    fn vertex_stmt(
        &mut self,
        stmt: &Stmt,
        outer: &str,
        recvs: &mut Vec<RecvHandler>,
        out: &mut Vec<VInstr>,
        _span: Span,
    ) {
        let span = stmt.span;
        match &stmt.kind {
            StmtKind::VarDecl { ty, name, init } => {
                self.vertex_locals.insert(name.clone());
                let value = match init {
                    Some(e) => self.vertex_expr(e, outer, span),
                    None => default_expr_for(ty),
                };
                out.push(VInstr::Local {
                    name: name.clone(),
                    op: AssignOp::Assign,
                    value,
                    ty: ty.clone(),
                });
            }
            StmtKind::Assign { target, op, value } => match target {
                Target::Prop { obj, prop } if obj == outer => {
                    out.push(VInstr::WriteOwn {
                        prop: prop.clone(),
                        op: *op,
                        value: self.vertex_expr(value, outer, span),
                    });
                }
                Target::Prop { obj, prop } => {
                    // Random write: send the reduced value to `obj`.
                    let value = self.vertex_expr(value, outer, span);
                    let value_ty = value.ty.clone().unwrap_or(Ty::Int);
                    let tag = self.new_tag(vec![("v".to_owned(), value_ty.clone())]);
                    out.push(VInstr::SendTo {
                        dst: self.vertex_expr(&Expr::var(obj), outer, span),
                        tag,
                        payload: vec![value],
                    });
                    recvs.push(RecvHandler {
                        tag,
                        guard: None,
                        steps: vec![RecvStep {
                            guard: None,
                            action: RecvAction::WriteOwn {
                                prop: prop.clone(),
                                op: *op,
                                value: Expr::typed(
                                    ExprKind::Var(format!("{PAYLOAD_PREFIX}v")),
                                    value_ty,
                                ),
                            },
                        }],
                    });
                }
                Target::Scalar(name) if self.vertex_locals.contains(name) => {
                    out.push(VInstr::Local {
                        name: name.clone(),
                        op: *op,
                        value: self.vertex_expr(value, outer, span),
                        ty: self.info.ty(name).clone(),
                    });
                }
                Target::Scalar(name) => {
                    if !op.is_reduction() {
                        self.error(
                            span,
                            format!("plain global write `{name}` in a vertex phase"),
                        );
                    }
                    out.push(VInstr::ReduceGlobal {
                        name: name.clone(),
                        op: *op,
                        value: self.vertex_expr(value, outer, span),
                    });
                }
            },
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let cond = self.vertex_expr(cond, outer, span);
                let then_instrs = self.vertex_block(then_branch, outer, recvs, span);
                let else_instrs = else_branch
                    .as_ref()
                    .map(|b| self.vertex_block(b, outer, recvs, span))
                    .unwrap_or_default();
                out.push(VInstr::If {
                    cond,
                    then_branch: then_instrs,
                    else_branch: else_instrs,
                });
            }
            StmtKind::Foreach(inner) => {
                self.translate_inner_loop(inner, outer, recvs, out, span);
            }
            other => {
                self.error(span, format!("unsupported vertex statement {other:?}"));
            }
        }
    }

    /// The Neighborhood Communication pattern: one send site plus one
    /// receive handler.
    fn translate_inner_loop(
        &mut self,
        inner: &ForeachStmt,
        outer: &str,
        recvs: &mut Vec<RecvHandler>,
        out: &mut Vec<VInstr>,
        _span: Span,
    ) {
        let span = Span::synthetic();
        let t = &inner.iter;
        let along_out = match &inner.source {
            IterSource::OutNbrs { of } if of == outer => true,
            IterSource::InNbrs { of } if of == outer => false,
            _ => {
                self.error(span, "non-canonical inner loop reached translation");
                return;
            }
        };

        // Split the filter into sender-side and receiver-side conjuncts.
        let mut send_conds: Vec<Expr> = Vec::new();
        let mut recv_conds: Vec<Expr> = Vec::new();
        if let Some(filter) = &inner.filter {
            for conjunct in split_conjuncts(filter) {
                if mentions(&conjunct, t) {
                    recv_conds.push(conjunct);
                } else {
                    send_conds.push(conjunct);
                }
            }
        }

        // Collect sender-side bindings (edge vars and locals) and the
        // receive program.
        let mut pc = PayloadCx {
            outer: outer.to_owned(),
            inner: t.clone(),
            edge_vars: HashSet::new(),
            sender_locals: HashMap::new(),
            fields: Vec::new(),
            field_exprs: Vec::new(),
            composite_fields: HashMap::new(),
            graph: self.graph.clone(),
            global_set: self.global_set.clone(),
            diags: Diagnostics::new(),
            along_out,
        };
        let mut steps: Vec<RecvStep> = Vec::new();
        self.inner_body_to_recv(&inner.body, &mut pc, None, &mut steps);
        let guard = pc.rewrite_conjuncts(recv_conds);
        self.diags.errors.extend(pc.diags.errors.clone());

        let tag = self.new_tag(
            pc.fields
                .iter()
                .map(|(n, ty)| (n.clone(), ty.clone()))
                .collect(),
        );
        recvs.push(RecvHandler { tag, guard, steps });

        // The send instruction, guarded by sender-side conditions.
        let payload: Vec<Expr> = pc.field_exprs.clone();
        let send = if along_out {
            VInstr::SendToNbrs { tag, payload }
        } else {
            self.uses_in_nbrs = true;
            VInstr::SendToInNbrs { tag, payload }
        };
        let send = if send_conds.is_empty() {
            send
        } else {
            let cond = conjoin(
                send_conds
                    .into_iter()
                    .map(|c| self.vertex_expr(&c, outer, span))
                    .collect(),
            );
            VInstr::If {
                cond,
                then_branch: vec![send],
                else_branch: vec![],
            }
        };
        out.push(send);
    }

    /// Converts the inner-loop body into receive steps, accumulating
    /// payload fields for sender-scoped reads.
    fn inner_body_to_recv(
        &mut self,
        block: &Block,
        pc: &mut PayloadCx,
        guard: Option<&Expr>,
        steps: &mut Vec<RecvStep>,
    ) {
        for stmt in &block.stmts {
            match &stmt.kind {
                StmtKind::VarDecl { ty, name, init } => {
                    // Sender-side binding: an edge handle or a local
                    // computed from sender-scoped values.
                    match init {
                        Some(e)
                            if matches!(
                                &e.kind,
                                ExprKind::Call { method, .. } if method == "ToEdge"
                            ) =>
                        {
                            pc.edge_vars.insert(name.clone());
                        }
                        Some(e) => {
                            pc.sender_locals.insert(name.clone(), e.clone());
                        }
                        None => {
                            pc.sender_locals.insert(name.clone(), default_expr_for(ty));
                        }
                    }
                }
                StmtKind::Assign { target, op, value } => {
                    let value = pc.rewrite(value);
                    let action = match target {
                        Target::Prop { obj, prop } if *obj == pc.inner => RecvAction::WriteOwn {
                            prop: prop.clone(),
                            op: *op,
                            value,
                        },
                        Target::Scalar(name) if self.global_set.contains(name) => {
                            if !op.is_reduction() {
                                self.error(
                                    stmt.span,
                                    format!("plain global write `{name}` in an inner loop"),
                                );
                            }
                            RecvAction::ReduceGlobal {
                                name: name.clone(),
                                op: *op,
                                value,
                            }
                        }
                        other => {
                            self.error(stmt.span, format!("non-canonical inner write {other:?}"));
                            continue;
                        }
                    };
                    steps.push(RecvStep {
                        guard: guard.cloned(),
                        action,
                    });
                }
                StmtKind::If {
                    cond,
                    then_branch,
                    else_branch,
                } => {
                    let cond = pc.rewrite(cond);
                    let then_guard = match guard {
                        Some(g) => Expr::binary(BinOp::And, g.clone(), cond.clone()),
                        None => cond.clone(),
                    };
                    self.inner_body_to_recv(then_branch, pc, Some(&then_guard), steps);
                    if let Some(eb) = else_branch {
                        let not_cond = Expr::typed(
                            ExprKind::Unary {
                                op: UnOp::Not,
                                expr: Box::new(cond),
                            },
                            Ty::Bool,
                        );
                        let else_guard = match guard {
                            Some(g) => Expr::binary(BinOp::And, g.clone(), not_cond),
                            None => not_cond,
                        };
                        self.inner_body_to_recv(eb, pc, Some(&else_guard), steps);
                    }
                }
                other => {
                    self.error(stmt.span, format!("unsupported inner statement {other:?}"));
                }
            }
        }
    }

    fn new_tag(&mut self, fields: Vec<(String, Ty)>) -> u8 {
        // Tags are a u8, the preamble's included; a program with more send
        // sites than that would silently alias tags and miscompile, so
        // reject it instead.
        let Ok(tag) = u8::try_from(self.messages.len()) else {
            self.error(
                Span::synthetic(),
                "program requires more than 256 message types; the wire \
                 format's tag byte cannot represent them",
            );
            return u8::MAX;
        };
        self.messages.push(MessageLayout { tag, fields });
        tag
    }

    /// Inserts the two in-neighbor-construction states at the front,
    /// shifting all state ids by two: every vertex sends its id to its
    /// out-neighbors on a tag appended after the program's own, and every
    /// receiver stores the ids.
    fn prepend_in_nbrs_preamble(&mut self) {
        let tag = self.new_tag(vec![("sender".into(), Ty::Node)]);
        for state in &mut self.states {
            match &mut state.transition {
                Transition::Goto(t) => *t += 2,
                Transition::Branch {
                    then_to, else_to, ..
                } => {
                    *then_to += 2;
                    *else_to += 2;
                }
                Transition::Halt => {}
            }
        }
        let state = |recvs, body, next| State {
            master: vec![],
            vertex: Some(VertexKernel {
                recvs,
                filter: None,
                body,
                reads_globals: vec![],
            }),
            post: vec![],
            transition: Transition::Goto(next),
        };
        let send_id = VInstr::SendToNbrs {
            tag,
            payload: vec![Expr::typed(ExprKind::Var(SELF.into()), Ty::Node)],
        };
        let store = RecvHandler {
            tag,
            guard: None,
            steps: vec![RecvStep {
                guard: None,
                action: RecvAction::StoreInNbr,
            }],
        };
        let send_ids = state(vec![], vec![send_id], 1);
        let collect = state(vec![store], vec![], 2);
        self.states.splice(0..0, [send_ids, collect]);
    }

    /// Rewrites a vertex-context expression: outer-iterator references
    /// become [`SELF`].
    fn vertex_expr(&mut self, e: &Expr, outer: &str, _span: Span) -> Expr {
        let mut e = e.clone();
        crate::astutil::subst_var_expr(&mut e, outer, SELF);
        e
    }

    fn kernel_global_reads(&self, kernel: &VertexKernel) -> Vec<String> {
        let mut reads = Vec::new();
        kernel.visit_exprs(&mut |e| {
            e.visit(&mut |x| {
                if let ExprKind::Var(n) = &x.kind {
                    if self.global_set.contains(n) {
                        reads.push(n.clone());
                    }
                }
            })
        });
        reads.sort();
        reads.dedup();
        reads
    }
}

/// Context for payload inference of one send site.
struct PayloadCx {
    outer: String,
    inner: String,
    edge_vars: HashSet<String>,
    sender_locals: HashMap<String, Expr>,
    fields: Vec<(String, Ty)>,
    field_exprs: Vec<Expr>,
    /// Dedup map for composite payload fields: printed form → field name.
    composite_fields: HashMap<String, String>,
    graph: String,
    global_set: HashSet<String>,
    diags: Diagnostics,
    along_out: bool,
}

impl PayloadCx {
    /// Rewrites an expression into the *sender*'s evaluation context:
    /// outer-iterator references become [`SELF`], edge handles become
    /// [`EDGE`], and inner-body sender locals are inlined.
    fn to_sender_context(&self, e: &mut Expr) {
        // Inline sender locals first (their initializers may reference the
        // outer iterator or edge handles).
        fn inline(cx: &PayloadCx, e: &mut Expr) {
            if let ExprKind::Var(name) = &e.kind {
                if let Some(init) = cx.sender_locals.get(name) {
                    let mut replacement = init.clone();
                    inline(cx, &mut replacement);
                    replacement.span = e.span;
                    *e = replacement;
                    return;
                }
            }
            match &mut e.kind {
                ExprKind::Unary { expr, .. } => inline(cx, expr),
                ExprKind::Binary { lhs, rhs, .. } => {
                    inline(cx, lhs);
                    inline(cx, rhs);
                }
                ExprKind::Ternary {
                    cond,
                    then_val,
                    else_val,
                } => {
                    inline(cx, cond);
                    inline(cx, then_val);
                    inline(cx, else_val);
                }
                _ => {}
            }
        }
        inline(self, e);
        crate::astutil::subst_var_expr(e, &self.outer, SELF);
        for ev in &self.edge_vars {
            crate::astutil::subst_var_expr(e, ev, EDGE);
        }
    }
    /// Registers a payload field (dedup by name) and returns the reference
    /// expression used receiver-side.
    fn field(&mut self, name: String, ty: Ty, sender_expr: Expr) -> ExprKind {
        if !self.fields.iter().any(|(n, _)| *n == name) {
            self.fields.push((name.clone(), ty));
            self.field_exprs.push(sender_expr);
        }
        ExprKind::Var(format!("{PAYLOAD_PREFIX}{name}"))
    }

    fn rewrite_conjuncts(&mut self, conds: Vec<Expr>) -> Option<Expr> {
        let rewritten: Vec<Expr> = conds.iter().map(|c| self.rewrite(c)).collect();
        if rewritten.is_empty() {
            None
        } else {
            Some(conjoin(rewritten))
        }
    }

    /// Whether `e` reads anything scoped to the receiving (inner) vertex or
    /// a payload-requiring name, versus anything scoped to the sender.
    /// Returns `(uses_inner, uses_sender)`. Aggregates are not entered.
    fn scopes(&self, e: &Expr) -> (bool, bool) {
        let (mut uses_inner, mut uses_sender) = (false, false);
        Node::Expr(e).walk(&mut |n| {
            let Node::Expr(e) = n else { return true };
            let (inner, sender) = match &e.kind {
                ExprKind::Prop { obj, .. } | ExprKind::Call { obj, .. } if *obj == self.inner => {
                    (true, false)
                }
                ExprKind::Var(n) if *n == self.inner => (true, false),
                ExprKind::Prop { obj, .. } if *obj == self.outer => (false, true),
                ExprKind::Call { obj, .. } if *obj == self.outer => (false, true),
                ExprKind::Var(n) if *n == self.outer => (false, true),
                ExprKind::Prop { obj, .. } if self.edge_vars.contains(obj) => (false, true),
                ExprKind::Var(n) if self.sender_locals.contains_key(n) => (false, true),
                ExprKind::Var(n) if self.global_set.contains(n) => (false, false),
                ExprKind::Var(_) => (false, true), // outer-body vertex local
                ExprKind::Agg(_) => return false,
                _ => (false, false),
            };
            uses_inner |= inner;
            uses_sender |= sender;
            true
        });
        (uses_inner, uses_sender)
    }

    /// Rewrites an inner-body expression into receiver context:
    /// inner-iterator property reads become [`SELF`] reads; maximal
    /// sender-only subexpressions become payload fields (a hand-written
    /// program ships `pr / degree`, not `pr` and `degree` separately).
    fn rewrite(&mut self, e: &Expr) -> Expr {
        // Composite sender-only subexpression → one payload field.
        let is_composite = matches!(
            e.kind,
            ExprKind::Unary { .. } | ExprKind::Binary { .. } | ExprKind::Ternary { .. }
        );
        if is_composite {
            let (uses_inner, uses_sender) = self.scopes(e);
            if !uses_inner && uses_sender {
                let mut sender_expr = e.clone();
                self.to_sender_context(&mut sender_expr);
                let key = crate::pretty::expr_to_string(&sender_expr);
                let field_name = match self.composite_fields.get(&key) {
                    Some(name) => name.clone(),
                    None => {
                        let name = format!("_x{}", self.composite_fields.len());
                        self.composite_fields.insert(key, name.clone());
                        self.fields
                            .push((name.clone(), e.ty.clone().unwrap_or(Ty::Int)));
                        self.field_exprs.push(sender_expr);
                        name
                    }
                };
                return Expr {
                    kind: ExprKind::Var(format!("{PAYLOAD_PREFIX}{field_name}")),
                    span: e.span,
                    ty: e.ty.clone(),
                };
            }
        }
        let ty = e.ty.clone();
        let kind = match &e.kind {
            ExprKind::Prop { obj, prop } if *obj == self.inner => ExprKind::Prop {
                obj: SELF.to_owned(),
                prop: prop.clone(),
            },
            ExprKind::Prop { obj, prop } if *obj == self.outer => {
                // Sender's own property.
                self.field(
                    prop.clone(),
                    ty.clone().unwrap_or(Ty::Int),
                    Expr {
                        kind: ExprKind::Prop {
                            obj: SELF.to_owned(),
                            prop: prop.clone(),
                        },
                        span: e.span,
                        ty: ty.clone(),
                    },
                )
            }
            ExprKind::Prop { obj, prop } if self.edge_vars.contains(obj) => {
                if !self.along_out {
                    self.diags.error(
                        e.span,
                        "edge properties are not available on in-neighbor sends",
                    );
                }
                self.field(
                    format!("_edge_{prop}"),
                    ty.clone().unwrap_or(Ty::Int),
                    Expr {
                        kind: ExprKind::Prop {
                            obj: EDGE.to_owned(),
                            prop: prop.clone(),
                        },
                        span: e.span,
                        ty: ty.clone(),
                    },
                )
            }
            ExprKind::Prop { obj, .. } => {
                self.diags.error(
                    e.span,
                    format!("cannot read property through `{obj}` inside an inner loop"),
                );
                e.kind.clone()
            }
            ExprKind::Var(name) if *name == self.inner => {
                // The receiver's own id — representable receiver-side.
                ExprKind::Var(SELF.to_owned())
            }
            ExprKind::Var(name) if *name == self.outer => {
                // The sender's id travels in the payload.
                self.field(
                    "_sender".to_owned(),
                    Ty::Node,
                    Expr::typed(ExprKind::Var(SELF.to_owned()), Ty::Node),
                )
            }
            ExprKind::Var(name) if self.global_set.contains(name) => {
                // Broadcast global: readable receiver-side directly.
                ExprKind::Var(name.clone())
            }
            ExprKind::Var(name) if self.sender_locals.contains_key(name) => {
                let init = self.sender_locals[name].clone();
                let mut sender_expr = init;
                // Resolve the sender expression into sender context.
                crate::astutil::subst_var_expr(&mut sender_expr, &self.outer, SELF);
                for ev in self.edge_vars.clone() {
                    crate::astutil::subst_var_expr(&mut sender_expr, &ev, EDGE);
                }
                self.field(name.clone(), ty.clone().unwrap_or(Ty::Int), sender_expr)
            }
            ExprKind::Var(name) => {
                // Vertex local of the outer body (sender-scoped value).
                self.field(
                    name.clone(),
                    ty.clone().unwrap_or(Ty::Int),
                    Expr {
                        kind: ExprKind::Var(name.clone()),
                        span: e.span,
                        ty: ty.clone(),
                    },
                )
            }
            ExprKind::Call { obj, method, .. } if *obj == self.inner => ExprKind::Call {
                obj: SELF.to_owned(),
                method: method.clone(),
                args: vec![],
            },
            ExprKind::Call { obj, method, .. } if *obj == self.outer => self.field(
                format!("_{method}"),
                Ty::Int,
                Expr::typed(
                    ExprKind::Call {
                        obj: SELF.to_owned(),
                        method: method.clone(),
                        args: vec![],
                    },
                    Ty::Int,
                ),
            ),
            ExprKind::Call { obj, method, .. } if *obj == self.graph => ExprKind::Call {
                obj: self.graph.clone(),
                method: method.clone(),
                args: vec![],
            },
            ExprKind::Unary { op, expr } => ExprKind::Unary {
                op: *op,
                expr: Box::new(self.rewrite(expr)),
            },
            ExprKind::Binary { op, lhs, rhs } => ExprKind::Binary {
                op: *op,
                lhs: Box::new(self.rewrite(lhs)),
                rhs: Box::new(self.rewrite(rhs)),
            },
            ExprKind::Ternary {
                cond,
                then_val,
                else_val,
            } => ExprKind::Ternary {
                cond: Box::new(self.rewrite(cond)),
                then_val: Box::new(self.rewrite(then_val)),
                else_val: Box::new(self.rewrite(else_val)),
            },
            other => other.clone(),
        };
        Expr {
            kind,
            span: e.span,
            ty,
        }
    }
}

/// Aggregate folds for the next superstep: one per global reduced by this
/// kernel, combining the aggregate into the master copy.
fn fold_instrs(kernel: &VertexKernel) -> Vec<MInstr> {
    let mut folds: Vec<(String, AssignOp)> = Vec::new();
    VInstr::visit(&kernel.body, &mut |i| match i {
        VInstr::ReduceGlobal { name, op, .. } if !folds.iter().any(|(n, _)| n == name) => {
            folds.push((name.clone(), *op));
        }
        _ => {}
    });
    for r in &kernel.recvs {
        for s in &r.steps {
            if let RecvAction::ReduceGlobal { name, op, .. } = &s.action {
                if !folds.iter().any(|(n, _)| n == name) {
                    folds.push((name.clone(), *op));
                }
            }
        }
    }
    folds
        .into_iter()
        .map(|(name, op)| MInstr::FoldAgg {
            agg_key: name.clone(),
            name,
            op,
        })
        .collect()
}

fn is_pure_master(block: &Block) -> bool {
    block.stmts.iter().all(|s| match &s.kind {
        StmtKind::Foreach(_) | StmtKind::While { .. } | StmtKind::InBfs(_) => false,
        StmtKind::If {
            then_branch,
            else_branch,
            ..
        } => is_pure_master(then_branch) && else_branch.as_ref().is_none_or(is_pure_master),
        StmtKind::Block(b) => is_pure_master(b),
        StmtKind::Assign {
            target: Target::Prop { .. },
            ..
        } => false,
        _ => true,
    })
}

fn split_conjuncts(e: &Expr) -> Vec<Expr> {
    match &e.kind {
        ExprKind::Binary {
            op: BinOp::And,
            lhs,
            rhs,
        } => {
            let mut out = split_conjuncts(lhs);
            out.extend(split_conjuncts(rhs));
            out
        }
        _ => vec![e.clone()],
    }
}

fn conjoin(mut parts: Vec<Expr>) -> Expr {
    let mut acc = parts.remove(0);
    for p in parts {
        acc = Expr::typed(
            ExprKind::Binary {
                op: BinOp::And,
                lhs: Box::new(acc),
                rhs: Box::new(p),
            },
            Ty::Bool,
        );
    }
    acc
}

fn default_expr_for(ty: &Ty) -> Expr {
    match Value::default_for(ty) {
        Value::Int(v) => Expr::typed(ExprKind::IntLit(v), ty.clone()),
        Value::Double(v) => Expr::typed(ExprKind::FloatLit(v), ty.clone()),
        Value::Bool(v) => Expr::typed(ExprKind::BoolLit(v), ty.clone()),
        Value::Node(_) => Expr::typed(ExprKind::Nil, Ty::Node),
        Value::Edge(_) => Expr::typed(ExprKind::IntLit(0), Ty::Edge),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn translated(src: &str) -> PregelProgram {
        let mut p = parse(src).unwrap();
        let infos = crate::sema::check(&mut p).unwrap();
        let mut report = TransformReport::new();
        translate(&p.procedures[0], &infos[0], &mut report).expect("translate")
    }

    #[test]
    fn neighborhood_communication_makes_two_vertex_states() {
        let prog = translated(
            "Procedure f(G: Graph, foo: N_P<Int>, bar: N_P<Int>) {
                Foreach (n: G.Nodes) {
                    Foreach (t: n.Nbrs) {
                        t.foo += n.bar;
                    }
                }
            }",
        );
        // Send state; the recv handlers land in the final flush state.
        assert_eq!(prog.num_vertex_kernels(), 2, "{prog}");
        assert_eq!(prog.num_message_types(), 1);
        // Envelope (4) + one Int field (bar), no tag byte.
        assert_eq!(prog.message_bytes(0), 8);
    }

    #[test]
    fn two_sends_get_two_tags_and_tag_bytes() {
        let prog = translated(
            "Procedure f(G: Graph, even_cnt: N_P<Int>, odd_cnt: N_P<Int>, foo: N_P<Int>) {
                Foreach (n: G.Nodes) {
                    If ((n.foo % 2) == 0) {
                        Foreach (t: n.Nbrs) {
                            t.even_cnt += 1;
                        }
                    } Else {
                        Foreach (t: n.Nbrs) {
                            t.odd_cnt += 1;
                        }
                    }
                }
            }",
        );
        assert_eq!(prog.num_message_types(), 2);
        // Envelope + empty payload + tag byte.
        assert_eq!(prog.message_bytes(0), 5);
        assert_eq!(prog.message_bytes(1), 5);
    }

    #[test]
    fn in_neighbor_send_triggers_preamble() {
        let mut report = TransformReport::new();
        let mut p = parse(
            "Procedure f(G: Graph, x: N_P<Int>, m: N_P<Bool>) {
                Foreach (j: G.Nodes)(j.m) {
                    Foreach (u: j.InNbrs) {
                        u.x += 1;
                    }
                }
            }",
        )
        .unwrap();
        let infos = crate::sema::check(&mut p).unwrap();
        let prog = translate(&p.procedures[0], &infos[0], &mut report).unwrap();
        assert!(prog.uses_in_nbrs);
        assert!(report.applied(Step::IncomingNeighbors));
        // Preamble adds two vertex states at the front.
        assert!(matches!(prog.states[0].transition, Transition::Goto(1)));
        assert!(prog.states[0].vertex.is_some());
        assert!(prog.states[1].vertex.is_some());
    }

    /// A program with one send site, so one tag, per neighbor loop: `ins`
    /// loops along in-edges (each needs the preamble) and `outs` along
    /// out-edges.
    fn sends(ins: usize, outs: usize) -> String {
        let mut src = "Procedure f(G: Graph, a: N_P<Int>) {\n Foreach (n: G.Nodes) {\n".to_owned();
        for dir in ["InNbrs"]
            .repeat(ins)
            .into_iter()
            .chain(["Nbrs"].repeat(outs))
        {
            src += &format!("  Foreach (t: n.{dir}) {{ t.a += 1; }}\n");
        }
        src + " }\n}\n"
    }

    #[test]
    fn the_tag_byte_holds_256_wire_tags_the_preamble_included() {
        use crate::CompileOptions;
        let opts = CompileOptions::default();
        let p = crate::compile(&sends(0, 256), &opts).unwrap().program;
        assert_eq!((p.num_message_types(), p.messages.len()), (256, 256));
        crate::kernel::lower(&p).unwrap();
        crate::rustgen::emit_rust(&p).unwrap();

        let p = crate::compile(&sends(1, 254), &opts).unwrap().program;
        assert_eq!((p.num_message_types(), p.messages.len()), (255, 256));
        assert_eq!(p.messages[255].fields, [("sender".to_owned(), Ty::Node)]);

        for src in [sends(0, 257), sends(1, 255)] {
            let err = crate::compile(&src, &opts).unwrap_err().to_string();
            assert!(err.contains("more than 256 message types"), "{err}");
        }
    }

    #[test]
    fn while_loop_builds_branch_junction() {
        let prog = translated(
            "Procedure f(G: Graph, x: N_P<Int>) {
                Int k = 0;
                While (k < 3) {
                    Foreach (n: G.Nodes) {
                        n.x += 1;
                    }
                    k += 1;
                }
            }",
        );
        let has_branch = prog
            .states
            .iter()
            .any(|s| matches!(s.transition, Transition::Branch { .. }));
        assert!(has_branch, "{prog}");
    }

    #[test]
    fn global_reduction_folds_in_post() {
        let prog = translated(
            "Procedure f(G: Graph, cnt: N_P<Int>) : Int {
                Int s = 0;
                Foreach (n: G.Nodes) {
                    s += n.cnt;
                }
                Return s;
            }",
        );
        let vertex_state = prog
            .states
            .iter()
            .find(|s| s.vertex.is_some())
            .expect("vertex state");
        assert!(
            matches!(&vertex_state.post[..], [MInstr::FoldAgg { name, .. }] if name == "s"),
            "{prog}"
        );
    }

    #[test]
    fn random_write_uses_send_to() {
        let mut report = TransformReport::new();
        let mut p = parse(
            "Procedure f(G: Graph, m: N_P<Node>, x: N_P<Int>) {
                Foreach (n: G.Nodes)(n.m != NIL) {
                    Node b = n.m;
                    b.x = 7;
                }
            }",
        )
        .unwrap();
        let infos = crate::sema::check(&mut p).unwrap();
        let prog = translate(&p.procedures[0], &infos[0], &mut report).unwrap();
        assert!(report.applied(Step::RandomWriting));
        let kernel = prog.states[0].vertex.as_ref().unwrap();
        assert!(kernel
            .body
            .iter()
            .any(|i| matches!(i, VInstr::SendTo { .. })));
    }

    #[test]
    fn edge_property_read_lands_in_payload() {
        let mut report = TransformReport::new();
        let mut p = parse(
            "Procedure f(G: Graph, len: E_P<Int>, dist: N_P<Int>, u: N_P<Bool>) {
                Foreach (n: G.Nodes)(n.u) {
                    Foreach (s: n.Nbrs) {
                        Edge e = s.ToEdge();
                        s.dist min= n.dist + e.len;
                    }
                }
            }",
        )
        .unwrap();
        let infos = crate::sema::check(&mut p).unwrap();
        let prog = translate(&p.procedures[0], &infos[0], &mut report).unwrap();
        assert!(report.applied(Step::EdgeProperty));
        // `n.dist + e.len` is sender-only, so it ships as ONE composite
        // field — exactly what a hand-written program would send.
        let layout = &prog.messages[0];
        assert_eq!(layout.fields.len(), 1, "{:?}", layout.fields);
        assert_eq!(layout.fields[0].1, Ty::Int);
        // Envelope + 4 bytes, single type → no tag byte.
        assert_eq!(prog.message_bytes(0), 8);
    }

    #[test]
    fn receiver_filter_becomes_recv_guard() {
        let prog = translated(
            "Procedure f(G: Graph, suitor: N_P<Node>) {
                Foreach (b: G.Nodes)(b.suitor == NIL) {
                    Foreach (g: b.Nbrs)(g.suitor == NIL) {
                        g.suitor = b;
                    }
                }
            }",
        );
        // Find the recv handler.
        let handler = prog
            .states
            .iter()
            .flat_map(|s| s.vertex.iter())
            .flat_map(|k| k.recvs.iter())
            .next()
            .expect("one handler");
        assert!(handler.guard.is_some());
        // Sender id travels as a Node payload field.
        assert_eq!(prog.messages[0].fields.len(), 1);
        assert_eq!(prog.messages[0].fields[0].1, Ty::Node);
    }

    #[test]
    fn returns_become_set_return() {
        let prog = translated(
            "Procedure f(G: Graph, k: Int) : Int {
                If (k == 0) {
                    Return 0;
                }
                Return k + 1;
            }",
        );
        let has_ret = prog.states.iter().any(|s| {
            s.master
                .iter()
                .any(|m| matches!(m, MInstr::SetReturn(_) | MInstr::If { .. }))
        });
        assert!(has_ret, "{prog}");
    }
}
