//! The lowering shared by every execution leg, vertex and master side.
//!
//! The PIR reuses named AST expressions. This module resolves every name
//! in a state once — vertex kernels, master blocks, post blocks and
//! transitions — to a slot, folds `INF`/`NIL` literals into constants,
//! computes the kernel's flags (snapshotting, edge-dependent sends, the
//! pull verdict), and flattens the code
//! into [`CInstr`] and [`CMInstr`] programs over one expression form,
//! [`CExpr`]. `gm-interp` executes the result allocation-free;
//! [`crate::rustgen`] prints it as native Rust and [`crate::javagen`] as
//! GPS Java. Every backend therefore agrees on name resolution by
//! construction:
//!
//! * a `_pl_<field>` read is the current handler's payload field, and is
//!   an error outside a receive handler;
//! * a variable is a kernel local only once the `Local` instruction that
//!   introduces it has been lowered (so `x = x + 1` first reads the
//!   global `x`), and the filter never sees body locals;
//! * `Global(i)` is position `i` of `PregelProgram::globals` on both
//!   sides; a kernel lists the globals it reads (its broadcast) in
//!   first-use order: receive handlers in PIR order, then the filter, then
//!   the body;
//! * in master code every variable is a program global, and vertex-only
//!   leaves (properties, aggregates) are errors; `PickRandom` is
//!   master-only;
//! * the §4.3 in-neighbor preamble lowers like any message: its tag is the
//!   one whose handler stores in-neighbors ([`Lowered::in_nbr_tag`]).

use crate::ast::{AssignOp, BinOp, Expr, ExprKind, UnOp};
use crate::pir::{
    MInstr, PregelProgram, RecvAction, Transition, VInstr, VertexKernel, EDGE, PAYLOAD_PREFIX, SELF,
};
use crate::types::Ty;
use crate::value::{Value, NIL_NODE};
use std::collections::HashMap;

/// A name-free expression.
#[derive(Clone, Debug, PartialEq)]
pub enum CExpr {
    /// Literal (including resolved `INF`/`NIL`).
    Const(Value),
    /// Own property by slot (position in `PregelProgram::node_props`).
    Prop(usize),
    /// Property of the connecting edge, by slot (position in
    /// `PregelProgram::edge_props`).
    EdgeProp(usize),
    /// Message payload field by position.
    Payload(usize),
    /// Kernel local by slot.
    Local(usize),
    /// Global by slot (position in `PregelProgram::globals`).
    Global(usize),
    /// The executing vertex's id.
    SelfId,
    /// `Degree()` of the executing vertex.
    OutDegree,
    /// `InDegree()` (length of the in-neighbor array).
    InDegree,
    /// `G.NumNodes()`.
    NumNodes,
    /// `G.NumEdges()`.
    NumEdges,
    /// `G.PickRandom()` (master code only).
    PickRandom,
    /// Unary operation.
    Un(UnOp, Box<CExpr>),
    /// Binary operation (`&&`/`||` short-circuit).
    Bin(BinOp, Box<CExpr>, Box<CExpr>),
    /// Conditional with optional result coercion.
    Ternary {
        /// Condition.
        cond: Box<CExpr>,
        /// True branch.
        then_val: Box<CExpr>,
        /// False branch.
        else_val: Box<CExpr>,
        /// Result type to coerce to (from the checker's annotation).
        coerce: Option<Ty>,
    },
}

/// A name-free vertex instruction.
#[derive(Clone, Debug)]
pub enum CInstr {
    /// Local slot write.
    Local {
        /// Slot.
        slot: usize,
        /// Operator.
        op: AssignOp,
        /// Value.
        value: CExpr,
        /// Declared type (for coercion).
        ty: Ty,
    },
    /// Own property write.
    WriteOwn {
        /// Property slot.
        prop: usize,
        /// Operator (`Defer` buffers to kernel end).
        op: AssignOp,
        /// Value.
        value: CExpr,
        /// Property type (for coercion).
        ty: Ty,
    },
    /// Global reduction.
    ReduceGlobal {
        /// Global name (the aggregation map is string-keyed).
        name: String,
        /// Operator.
        op: AssignOp,
        /// Value.
        value: CExpr,
    },
    /// Send to all out-neighbors.
    SendToNbrs {
        /// Message tag.
        tag: u8,
        /// Payload expressions.
        payload: Vec<CExpr>,
        /// Whether any payload expression reads the connecting edge
        /// (otherwise the payload is evaluated once and shared).
        edge_dependent: bool,
    },
    /// Send to the materialized in-neighbors.
    SendToInNbrs {
        /// Message tag.
        tag: u8,
        /// Payload expressions.
        payload: Vec<CExpr>,
    },
    /// Send to one vertex.
    SendTo {
        /// Destination.
        dst: CExpr,
        /// Message tag.
        tag: u8,
        /// Payload expressions.
        payload: Vec<CExpr>,
    },
    /// Conditional.
    If {
        /// Condition.
        cond: CExpr,
        /// True branch.
        then_branch: Vec<CInstr>,
        /// False branch.
        else_branch: Vec<CInstr>,
    },
}

/// A receive step.
#[derive(Clone, Debug)]
pub struct CStep {
    /// Optional guard.
    pub guard: Option<CExpr>,
    /// The action.
    pub action: CAction,
}

/// Receive actions.
#[derive(Clone, Debug)]
pub enum CAction {
    /// Own property write.
    WriteOwn {
        /// Property slot.
        prop: usize,
        /// Operator.
        op: AssignOp,
        /// Value.
        value: CExpr,
        /// Property type.
        ty: Ty,
    },
    /// Global reduction.
    ReduceGlobal {
        /// Global name.
        name: String,
        /// Operator.
        op: AssignOp,
        /// Value.
        value: CExpr,
    },
    /// Append payload field 0, a sender id, to the in-neighbor array.
    StoreInNbr,
}

/// A receive handler.
#[derive(Clone, Debug)]
pub struct CRecv {
    /// Message tag handled.
    pub tag: u8,
    /// Optional handler-level guard.
    pub guard: Option<CExpr>,
    /// Steps per message.
    pub steps: Vec<CStep>,
}

/// A kernel's neighbor-broadcast site: what a gathered (pull) superstep
/// re-evaluates receiver-side.
#[derive(Clone, Debug, PartialEq)]
pub struct CSendSite {
    /// Message tag.
    pub tag: u8,
    /// Payload expressions, slot-resolved in the kernel.
    pub payload: Vec<CExpr>,
}

/// How a kernel's vertex phase may run gather-side, decided from its
/// lowered body. Pull inverts the loop — each receiver walks its in-edges
/// and folds its senders' messages in place — which is only sound when the
/// runtime can obtain, per (sender, edge), the exact message push would
/// have sent.
#[derive(Clone, Debug, PartialEq)]
pub enum CPull {
    /// Push only: the body sends nothing (a gather would walk every
    /// in-edge for nothing), sends anything other than exactly one
    /// neighbor broadcast (`SendTo`, `SendToInNbrs`, several sites), or
    /// broadcasts an edge-dependent payload that the kernel makes unstable.
    Push,
    /// The single broadcast's payload reads no edge: the runtime captures
    /// the value at the send site, and every out-neighbor receives it.
    Captured,
    /// The single broadcast's payload reads the edge, so gather
    /// re-evaluates it per in-edge against the sender's post-kernel row.
    /// That is exact because the payload reads no kernel local (gone after
    /// the kernel) and no property the body writes, immediate or deferred;
    /// globals and edge properties are read-only in the vertex phase.
    Recomputed(CSendSite),
}

/// A lowered vertex kernel.
#[derive(Clone, Debug)]
pub struct CKernel {
    /// Receive handlers in PIR order.
    pub recvs: Vec<CRecv>,
    /// Index into `recvs` per tag (`None` = drop).
    pub recv_by_tag: Vec<Option<usize>>,
    /// Body gate.
    pub filter: Option<CExpr>,
    /// Body program.
    pub body: Vec<CInstr>,
    /// Per local slot: the local's name and the type of its first write.
    pub locals: Vec<(String, Ty)>,
    /// The globals this kernel reads (positions in
    /// `PregelProgram::globals`), in first-use order: its broadcast.
    pub reads_globals: Vec<usize>,
    /// Whether the receive phase reads own properties (snapshot needed).
    pub snapshot_needed: bool,
    /// Whether, and how, the vertex phase may be gathered.
    pub pull: CPull,
}

impl CKernel {
    /// The handler for messages tagged `tag`, if any.
    pub fn handler(&self, tag: u8) -> Option<&CRecv> {
        let i = (*self.recv_by_tag.get(tag as usize)?)?;
        Some(&self.recvs[i])
    }
}

/// A name-free master instruction; `slot` is a position in
/// `PregelProgram::globals`.
#[derive(Clone, Debug)]
pub enum CMInstr {
    /// `global op= value`.
    Assign {
        /// Target global.
        slot: usize,
        /// Operator.
        op: AssignOp,
        /// Value.
        value: CExpr,
        /// The global's type (for coercion).
        ty: Ty,
    },
    /// Folds the vertex aggregate under `agg_key` into a global (no-op in
    /// a master block, and when no vertex wrote the aggregate).
    FoldAgg {
        /// Target global.
        slot: usize,
        /// Combining operator.
        op: AssignOp,
        /// Aggregation key (the aggregation map is string-keyed).
        agg_key: String,
    },
    /// Conditional.
    If {
        /// Condition.
        cond: CExpr,
        /// True branch.
        then_branch: Vec<CMInstr>,
        /// False branch.
        else_branch: Vec<CMInstr>,
    },
    /// Sets the return value and halts after this master block.
    SetReturn {
        /// The returned value, if any.
        value: Option<CExpr>,
        /// The declared return type (for coercion).
        coerce: Option<Ty>,
    },
}

/// The master side of one state.
#[derive(Clone, Debug)]
pub struct CMaster {
    /// Run on arrival, before the vertex phase.
    pub master: Vec<CMInstr>,
    /// Run at the start of the next superstep (aggregate folds).
    pub post: Vec<CMInstr>,
    /// Where to go next.
    pub transition: Transition<CExpr>,
}

/// The whole program, lowered.
#[derive(Clone, Debug)]
pub struct Lowered {
    /// Kernel per state (`None` for master-only states).
    pub kernels: Vec<Option<CKernel>>,
    /// Master side per state.
    pub masters: Vec<CMaster>,
    /// Serialized size per tag.
    pub msg_bytes: Vec<u64>,
}

/// Lowers every state of `program`. Fails on a name that does not
/// resolve, an `INF` without a numeric type, or a leaf used on the wrong
/// side; verified PIR has none of these.
pub fn lower(program: &PregelProgram) -> Result<Lowered, String> {
    let slots = |cols: &[(String, Ty)]| -> HashMap<String, usize> {
        cols.iter()
            .enumerate()
            .map(|(i, (n, _))| (n.clone(), i))
            .collect()
    };
    let props = slots(&program.node_props);
    let edges = slots(&program.edge_props);
    let globals = slots(&program.globals);
    let cx = |master| Cx {
        program,
        props: &props,
        edges: &edges,
        globals: &globals,
        master,
        reads_globals: Vec::new(),
        local_slot: HashMap::new(),
        locals: Vec::new(),
        payload: HashMap::new(),
    };
    let mut kernels = Vec::new();
    let mut masters = Vec::new();
    for s in &program.states {
        let kernel = s.vertex.as_ref().map(|k| lower_kernel(cx(false), k));
        kernels.push(kernel.transpose()?);
        let mut m = cx(true);
        masters.push(CMaster {
            master: m.minstrs(&s.master)?,
            post: m.minstrs(&s.post)?,
            transition: match &s.transition {
                Transition::Goto(id) => Transition::Goto(*id),
                Transition::Branch {
                    cond,
                    then_to,
                    else_to,
                } => Transition::Branch {
                    cond: m.expr(cond)?,
                    then_to: *then_to,
                    else_to: *else_to,
                },
                Transition::Halt => Transition::Halt,
            },
        });
    }
    Ok(Lowered {
        kernels,
        masters,
        msg_bytes: (0..program.messages.len())
            .map(|t| program.message_bytes(t as u8))
            .collect(),
    })
}

impl Lowered {
    /// The tag whose handler stores in-neighbors (the §4.3 preamble's
    /// message), if any handler does.
    pub fn in_nbr_tag(&self) -> Option<u8> {
        let mut handlers = self.kernels.iter().flatten().flat_map(|k| &k.recvs);
        let stores = |r: &&CRecv| (r.steps.iter()).any(|s| matches!(s.action, CAction::StoreInNbr));
        handlers.find(stores).map(|r| r.tag)
    }
}

/// `INF` (or `-INF`) at the checker's annotated type.
pub fn inf(e: &Expr, negative: bool) -> Result<Value, String> {
    match &e.ty {
        Some(ty @ (Ty::Int | Ty::Long | Ty::Float | Ty::Double)) => {
            Ok(Value::inf_for(ty, negative))
        }
        Some(other) => Err(format!("INF has no meaning at type {other}")),
        None => Err("INF expression lacks a type annotation".to_owned()),
    }
}

type R<T> = Result<T, String>;

struct Cx<'a> {
    program: &'a PregelProgram,
    props: &'a HashMap<String, usize>,
    edges: &'a HashMap<String, usize>,
    /// Global name → position in `program.globals`.
    globals: &'a HashMap<String, usize>,
    /// Lowering master code rather than a vertex kernel.
    master: bool,
    /// The globals a kernel reads, in first-use order.
    reads_globals: Vec<usize>,
    local_slot: HashMap<String, usize>,
    locals: Vec<(String, Ty)>,
    /// Payload field name → position, for the current handler.
    payload: HashMap<String, usize>,
}

impl Cx<'_> {
    /// A variable read as a global: its position in `program.globals`,
    /// recorded in a kernel's broadcast on first use.
    fn global(&mut self, name: &str) -> R<usize> {
        let side = if self.master { "master" } else { "broadcast" };
        let index = self.global_index(name, side)?;
        if !self.master && !self.reads_globals.contains(&index) {
            self.reads_globals.push(index);
        }
        Ok(index)
    }

    /// The position of global `name` in `program.globals`; `what` names
    /// the reference in the error.
    fn global_index(&self, name: &str, what: &str) -> R<usize> {
        self.globals
            .get(name)
            .copied()
            .ok_or_else(|| format!("unknown {what} global `{name}`"))
    }

    fn local(&mut self, name: &str, ty: &Ty) -> usize {
        if let Some(&s) = self.local_slot.get(name) {
            return s;
        }
        let s = self.locals.len();
        self.local_slot.insert(name.to_owned(), s);
        self.locals.push((name.to_owned(), ty.clone()));
        s
    }

    /// The slot of a written own property, and its type.
    fn prop(&self, prop: &str, what: &str) -> R<(usize, Ty)> {
        let slot = *self
            .props
            .get(prop)
            .ok_or_else(|| format!("{what} unknown property `{prop}`"))?;
        Ok((slot, self.program.node_props[slot].1.clone()))
    }

    fn exprs(&mut self, es: &[Expr]) -> R<Vec<CExpr>> {
        es.iter().map(|e| self.expr(e)).collect()
    }

    fn expr(&mut self, e: &Expr) -> R<CExpr> {
        let boxed = |cx: &mut Self, e: &Expr| cx.expr(e).map(Box::new);
        Ok(match &e.kind {
            ExprKind::IntLit(v) => CExpr::Const(Value::Int(*v)),
            ExprKind::FloatLit(v) => CExpr::Const(Value::Double(*v)),
            ExprKind::BoolLit(v) => CExpr::Const(Value::Bool(*v)),
            ExprKind::Inf { negative } => CExpr::Const(inf(e, *negative)?),
            ExprKind::Nil => CExpr::Const(Value::Node(NIL_NODE)),
            ExprKind::Var(name) if self.master => CExpr::Global(self.global(name)?),
            ExprKind::Prop { .. } | ExprKind::Agg(_) if self.master => {
                return Err("vertex-context expression reached the master".into())
            }
            ExprKind::Var(name) if name == SELF => CExpr::SelfId,
            ExprKind::Var(name) if name.starts_with(PAYLOAD_PREFIX) => {
                let field = name.trim_start_matches(PAYLOAD_PREFIX);
                CExpr::Payload(
                    *self
                        .payload
                        .get(field)
                        .ok_or_else(|| format!("unknown payload field `{field}`"))?,
                )
            }
            ExprKind::Var(name) => match self.local_slot.get(name) {
                Some(&slot) => CExpr::Local(slot),
                None => CExpr::Global(self.global(name)?),
            },
            ExprKind::Prop { obj, prop } if obj == SELF => CExpr::Prop(
                *self
                    .props
                    .get(prop)
                    .ok_or_else(|| format!("unknown property `{prop}`"))?,
            ),
            ExprKind::Prop { obj, prop } if obj == EDGE => CExpr::EdgeProp(
                *self
                    .edges
                    .get(prop)
                    .ok_or_else(|| format!("unknown edge property `{prop}`"))?,
            ),
            ExprKind::Prop { obj, .. } => return Err(format!("unresolved property base `{obj}`")),
            ExprKind::Unary { op, expr } => CExpr::Un(*op, boxed(self, expr)?),
            ExprKind::Binary { op, lhs, rhs } => {
                CExpr::Bin(*op, boxed(self, lhs)?, boxed(self, rhs)?)
            }
            ExprKind::Ternary {
                cond,
                then_val,
                else_val,
            } => CExpr::Ternary {
                cond: boxed(self, cond)?,
                then_val: boxed(self, then_val)?,
                else_val: boxed(self, else_val)?,
                coerce: e.ty.clone().filter(Ty::is_value),
            },
            ExprKind::Call { obj, method, .. } => match method.as_str() {
                "NumNodes" => CExpr::NumNodes,
                "NumEdges" => CExpr::NumEdges,
                "Degree" | "OutDegree" | "NumNbrs" if obj == SELF => CExpr::OutDegree,
                "InDegree" if obj == SELF => CExpr::InDegree,
                "PickRandom" if self.master => CExpr::PickRandom,
                other if self.master => {
                    return Err(format!("master built-in `{other}` not supported"))
                }
                other => return Err(format!("vertex built-in `{obj}.{other}()` not supported")),
            },
            ExprKind::Agg(_) => return Err("aggregate expression reached code generation".into()),
        })
    }

    fn instrs(&mut self, is: &[VInstr]) -> R<Vec<CInstr>> {
        is.iter().map(|i| self.instr(i)).collect()
    }

    fn instr(&mut self, i: &VInstr) -> R<CInstr> {
        Ok(match i {
            VInstr::Local {
                name,
                op,
                value,
                ty,
            } => {
                let value = self.expr(value)?;
                CInstr::Local {
                    slot: self.local(name, ty),
                    op: *op,
                    value,
                    ty: ty.clone(),
                }
            }
            VInstr::WriteOwn { prop, op, value } => {
                let what = if *op == AssignOp::Defer {
                    "deferred write to"
                } else {
                    "write to"
                };
                let (prop, ty) = self.prop(prop, what)?;
                CInstr::WriteOwn {
                    prop,
                    op: *op,
                    value: self.expr(value)?,
                    ty,
                }
            }
            VInstr::ReduceGlobal { name, op, value } => CInstr::ReduceGlobal {
                name: name.clone(),
                op: *op,
                value: self.expr(value)?,
            },
            VInstr::SendToNbrs { tag, payload } => {
                let payload = self.exprs(payload)?;
                let edge_dependent = payload
                    .iter()
                    .any(|e| reads(e, |l| matches!(l, CExpr::EdgeProp(_))));
                CInstr::SendToNbrs {
                    tag: *tag,
                    payload,
                    edge_dependent,
                }
            }
            VInstr::SendToInNbrs { tag, payload } => CInstr::SendToInNbrs {
                tag: *tag,
                payload: self.exprs(payload)?,
            },
            VInstr::SendTo { dst, tag, payload } => CInstr::SendTo {
                dst: self.expr(dst)?,
                tag: *tag,
                payload: self.exprs(payload)?,
            },
            VInstr::If {
                cond,
                then_branch,
                else_branch,
            } => CInstr::If {
                cond: self.expr(cond)?,
                then_branch: self.instrs(then_branch)?,
                else_branch: self.instrs(else_branch)?,
            },
        })
    }

    fn minstrs(&mut self, is: &[MInstr]) -> R<Vec<CMInstr>> {
        is.iter().map(|i| self.minstr(i)).collect()
    }

    fn minstr(&mut self, i: &MInstr) -> R<CMInstr> {
        Ok(match i {
            MInstr::Assign { name, op, value } => {
                let slot = self.global_index(name, "assigned")?;
                CMInstr::Assign {
                    slot,
                    op: *op,
                    value: self.expr(value)?,
                    ty: self.program.globals[slot].1.clone(),
                }
            }
            MInstr::FoldAgg { name, op, agg_key } => CMInstr::FoldAgg {
                slot: self.global_index(name, "folded")?,
                op: *op,
                agg_key: agg_key.clone(),
            },
            MInstr::If {
                cond,
                then_branch,
                else_branch,
            } => CMInstr::If {
                cond: self.expr(cond)?,
                then_branch: self.minstrs(then_branch)?,
                else_branch: self.minstrs(else_branch)?,
            },
            MInstr::SetReturn(value) => CMInstr::SetReturn {
                value: value.as_ref().map(|e| self.expr(e)).transpose()?,
                coerce: self.program.ret.clone(),
            },
        })
    }
}

impl CExpr {
    /// Applies `f` to this expression and then, in pre-order, to every
    /// operand below it.
    pub(crate) fn visit<'a>(&'a self, f: &mut impl FnMut(&'a CExpr)) {
        f(self);
        match self {
            CExpr::Un(_, inner) => inner.visit(f),
            CExpr::Bin(_, a, b) => {
                a.visit(f);
                b.visit(f);
            }
            CExpr::Ternary {
                cond,
                then_val,
                else_val,
                ..
            } => {
                cond.visit(f);
                then_val.visit(f);
                else_val.visit(f);
            }
            _ => {}
        }
    }
}

impl CInstr {
    /// Applies `f` to every instruction of `body` in pre-order, both
    /// branches of each `If` included.
    pub fn visit<'a>(body: &'a [CInstr], f: &mut impl FnMut(&'a CInstr)) {
        for i in body {
            f(i);
            if let CInstr::If {
                then_branch,
                else_branch,
                ..
            } = i
            {
                CInstr::visit(then_branch, f);
                CInstr::visit(else_branch, f);
            }
        }
    }
}

/// Whether `e` has a sub-expression satisfying `leaf`.
fn reads(e: &CExpr, leaf: impl Fn(&CExpr) -> bool) -> bool {
    let mut hit = false;
    e.visit(&mut |x| hit |= leaf(x));
    hit
}

/// The pull verdict of a lowered kernel body (see [`CPull`]).
fn pull_verdict(body: &[CInstr]) -> CPull {
    let mut sends = Vec::new();
    let mut written = Vec::new();
    CInstr::visit(body, &mut |i| match i {
        CInstr::SendToNbrs { .. } | CInstr::SendToInNbrs { .. } | CInstr::SendTo { .. } => {
            sends.push(i)
        }
        CInstr::WriteOwn { prop, .. } => written.push(*prop),
        _ => {}
    });
    match sends[..] {
        [CInstr::SendToNbrs {
            edge_dependent: false,
            ..
        }] => CPull::Captured,
        [CInstr::SendToNbrs { tag, payload, .. }] => {
            let unstable = |l: &CExpr| match l {
                CExpr::Local(_) => true,
                CExpr::Prop(p) => written.contains(p),
                _ => false,
            };
            if payload.iter().any(|e| reads(e, unstable)) {
                CPull::Push
            } else {
                CPull::Recomputed(CSendSite {
                    tag: *tag,
                    payload: payload.clone(),
                })
            }
        }
        _ => CPull::Push,
    }
}

fn lower_kernel(mut cx: Cx<'_>, k: &VertexKernel) -> R<CKernel> {
    let program = cx.program;
    let mut recvs = Vec::new();
    let mut recv_by_tag: Vec<Option<usize>> = vec![None; program.messages.len()];
    for r in &k.recvs {
        cx.payload = program.messages[r.tag as usize]
            .fields
            .iter()
            .enumerate()
            .map(|(i, (n, _))| (n.clone(), i))
            .collect();
        let guard = r.guard.as_ref().map(|g| cx.expr(g)).transpose()?;
        let mut steps = Vec::new();
        for s in &r.steps {
            steps.push(CStep {
                guard: s.guard.as_ref().map(|g| cx.expr(g)).transpose()?,
                action: match &s.action {
                    RecvAction::WriteOwn { prop, op, value } => {
                        let (prop, ty) = cx.prop(prop, "receive writes")?;
                        CAction::WriteOwn {
                            prop,
                            op: *op,
                            value: cx.expr(value)?,
                            ty,
                        }
                    }
                    RecvAction::ReduceGlobal { name, op, value } => CAction::ReduceGlobal {
                        name: name.clone(),
                        op: *op,
                        value: cx.expr(value)?,
                    },
                    RecvAction::StoreInNbr => CAction::StoreInNbr,
                },
            });
        }
        recv_by_tag[r.tag as usize] = Some(recvs.len());
        recvs.push(CRecv {
            tag: r.tag,
            guard,
            steps,
        });
        cx.payload.clear();
    }

    let reads_prop = |e: &CExpr| reads(e, |l| matches!(l, CExpr::Prop(_)));
    let snapshot_needed = recvs.iter().any(|r| {
        r.guard.as_ref().is_some_and(reads_prop)
            || r.steps.iter().any(|s| {
                s.guard.as_ref().is_some_and(reads_prop)
                    || match &s.action {
                        CAction::WriteOwn { value, .. } | CAction::ReduceGlobal { value, .. } => {
                            reads_prop(value)
                        }
                        CAction::StoreInNbr => false,
                    }
            })
    });

    let filter = k.filter.as_ref().map(|f| cx.expr(f)).transpose()?;
    let body = cx.instrs(&k.body)?;
    let pull = pull_verdict(&body);

    Ok(CKernel {
        recvs,
        recv_by_tag,
        filter,
        body,
        locals: cx.locals,
        reads_globals: cx.reads_globals,
        snapshot_needed,
        pull,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expr;
    use crate::pir::{MessageLayout, RecvHandler, RecvStep, State};

    /// The test program's globals: all `Int` but `r`, a `Double`.
    const GLOBALS: [&str; 8] = ["a", "b", "c", "d", "r", "v", "x", "y"];

    /// Names of the globals a kernel broadcasts, in slot order.
    fn broadcast(k: &CKernel) -> Vec<&str> {
        k.reads_globals.iter().map(|&g| GLOBALS[g]).collect()
    }

    fn add(a: Expr, b: Expr) -> Expr {
        Expr::binary(BinOp::Add, a, b)
    }

    fn local(name: &str, op: AssignOp, value: Expr) -> VInstr {
        VInstr::Local {
            name: name.into(),
            op,
            value,
            ty: Ty::Int,
        }
    }

    fn send_nbrs(payload: Expr) -> VInstr {
        VInstr::SendToNbrs {
            tag: 0,
            payload: vec![payload],
        }
    }

    /// A handler for tag 0 (payload field `v`) writing `value` into `x`.
    fn recv(guard: Option<Expr>, value: Expr) -> RecvHandler {
        RecvHandler {
            tag: 0,
            guard,
            steps: vec![RecvStep {
                guard: None,
                action: RecvAction::WriteOwn {
                    prop: "x".into(),
                    op: AssignOp::Assign,
                    value,
                },
            }],
        }
    }

    /// Lowers the one-state program around `state`: property `x`, edge
    /// property `w`, [`GLOBALS`], message tag 0 with field `v`, tag 1
    /// empty, and an `Int` return.
    fn lower_state(state: State) -> Result<Lowered, String> {
        lower(&PregelProgram {
            name: "p".into(),
            graph_param: "G".into(),
            scalar_params: vec![],
            node_props: vec![("x".into(), Ty::Int)],
            edge_props: vec![("w".into(), Ty::Int)],
            globals: (GLOBALS.iter())
                .map(|&g| (g.into(), if g == "r" { Ty::Double } else { Ty::Int }))
                .collect(),
            messages: vec![
                MessageLayout {
                    tag: 0,
                    fields: vec![("v".into(), Ty::Int)],
                },
                MessageLayout {
                    tag: 1,
                    fields: vec![],
                },
            ],
            uses_in_nbrs: false,
            ret: Some(Ty::Int),
            states: vec![state],
        })
    }

    /// Lowers a one-state program around the given kernel parts.
    fn lower_kernel_of(
        recvs: Vec<RecvHandler>,
        filter: Option<Expr>,
        body: Vec<VInstr>,
    ) -> Result<CKernel, String> {
        let mut lowered = lower_state(State {
            master: vec![],
            vertex: Some(VertexKernel {
                recvs,
                filter,
                body,
                reads_globals: vec![],
            }),
            post: vec![],
            transition: Transition::Halt,
        })?;
        Ok(lowered.kernels.remove(0).expect("vertex state"))
    }

    /// Lowers a master-only state: `master` then `transition`.
    fn lower_master_of(master: Vec<MInstr>, transition: Transition) -> Result<CMaster, String> {
        let mut lowered = lower_state(State {
            master,
            vertex: None,
            post: vec![],
            transition,
        })?;
        Ok(lowered.masters.remove(0))
    }

    fn assign(name: &str, value: Expr) -> MInstr {
        MInstr::Assign {
            name: name.into(),
            op: AssignOp::Assign,
            value,
        }
    }

    fn value_of(i: &CInstr) -> &CExpr {
        match i {
            CInstr::Local { value, .. } | CInstr::WriteOwn { value, .. } => value,
            other => panic!("no value in {other:?}"),
        }
    }

    #[test]
    fn a_payload_field_shadows_a_same_named_global_inside_its_handler() {
        let pl_v = Expr::var(&format!("{PAYLOAD_PREFIX}v"));
        let k = lower_kernel_of(
            vec![recv(None, add(pl_v.clone(), Expr::var("v")))],
            None,
            vec![],
        )
        .unwrap();
        let CAction::WriteOwn { value, .. } = &k.recvs[0].steps[0].action else {
            panic!("{:?}", k.recvs[0]);
        };
        let want = CExpr::Bin(
            BinOp::Add,
            Box::new(CExpr::Payload(0)),
            Box::new(CExpr::Global(5)),
        );
        assert_eq!(*value, want);
        assert_eq!(broadcast(&k), ["v"]);
        // The payload goes out of scope with its handler.
        let err = lower_kernel_of(vec![recv(None, Expr::int(1))], None, vec![send_nbrs(pl_v)])
            .unwrap_err();
        assert_eq!(err, "unknown payload field `v`");
    }

    #[test]
    fn a_local_reads_the_global_until_its_local_instruction_is_lowered() {
        let body = vec![
            local("x", AssignOp::Assign, add(Expr::var("x"), Expr::int(1))),
            local("x", AssignOp::Add, Expr::var("x")),
        ];
        let k = lower_kernel_of(vec![], None, body).unwrap();
        let first = CExpr::Bin(
            BinOp::Add,
            Box::new(CExpr::Global(6)),
            Box::new(CExpr::Const(Value::Int(1))),
        );
        assert_eq!(*value_of(&k.body[0]), first);
        assert_eq!(*value_of(&k.body[1]), CExpr::Local(0));
        assert_eq!(broadcast(&k), ["x"]);
        assert_eq!(k.locals, [("x".to_owned(), Ty::Int)]);
    }

    #[test]
    fn the_filter_never_sees_body_locals() {
        let body = vec![local("y", AssignOp::Assign, Expr::var("y"))];
        let k = lower_kernel_of(vec![], Some(Expr::var("y")), body).unwrap();
        assert_eq!(k.filter, Some(CExpr::Global(7)));
        assert_eq!(*value_of(&k.body[0]), CExpr::Global(7));
        assert_eq!(k.locals.len(), 1);
    }

    #[test]
    fn global_slots_are_numbered_receive_then_filter_then_body() {
        let recvs = vec![recv(Some(Expr::var("c")), Expr::var("d"))];
        let body = vec![send_nbrs(add(Expr::var("a"), Expr::var("c")))];
        let k = lower_kernel_of(recvs, Some(Expr::var("b")), body).unwrap();
        assert_eq!(broadcast(&k), ["c", "d", "b", "a"]);
        // Expressions name globals by program position, not broadcast slot.
        assert_eq!(k.recvs[0].guard, Some(CExpr::Global(2)));
        assert_eq!(k.filter, Some(CExpr::Global(1)));
        let CInstr::SendToNbrs { payload, .. } = &k.body[0] else {
            panic!("{:?}", k.body);
        };
        let want = CExpr::Bin(
            BinOp::Add,
            Box::new(CExpr::Global(0)),
            Box::new(CExpr::Global(2)),
        );
        assert_eq!(payload[0], want);
    }

    #[test]
    fn edge_dependent_marks_exactly_the_sends_whose_payload_reads_the_edge() {
        let body = vec![
            send_nbrs(add(Expr::prop(SELF, "x"), Expr::int(1))),
            send_nbrs(add(Expr::int(1), Expr::prop(EDGE, "w"))),
        ];
        let k = lower_kernel_of(vec![], None, body).unwrap();
        let flags: Vec<bool> = k
            .body
            .iter()
            .map(|i| match i {
                CInstr::SendToNbrs { edge_dependent, .. } => *edge_dependent,
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(flags, [false, true]);
    }

    #[test]
    fn a_snapshot_is_needed_only_when_a_handler_reads_own_properties() {
        let pl_v = Expr::var(&format!("{PAYLOAD_PREFIX}v"));
        let reads_payload = lower_kernel_of(vec![recv(None, pl_v.clone())], None, vec![]);
        assert!(!reads_payload.unwrap().snapshot_needed);
        let own_in_guard = Some(Expr::binary(BinOp::Lt, pl_v.clone(), Expr::prop(SELF, "x")));
        let reads_own = lower_kernel_of(vec![recv(own_in_guard, pl_v)], None, vec![]);
        assert!(reads_own.unwrap().snapshot_needed);
        // Body reads never need one.
        let body = vec![send_nbrs(Expr::prop(SELF, "x"))];
        assert!(!lower_kernel_of(vec![], None, body).unwrap().snapshot_needed);
    }

    #[test]
    fn the_send_site_is_recorded_only_for_a_single_neighbor_broadcast() {
        let edge_payload = add(Expr::prop(SELF, "x"), Expr::prop(EDGE, "w"));
        let guarded = VInstr::If {
            cond: Expr::bool(true),
            then_branch: vec![send_nbrs(edge_payload)],
            else_branch: vec![],
        };
        let pull = lower_kernel_of(vec![], None, vec![guarded.clone()])
            .unwrap()
            .pull;
        let site = CSendSite {
            tag: 0,
            payload: vec![CExpr::Bin(
                BinOp::Add,
                Box::new(CExpr::Prop(0)),
                Box::new(CExpr::EdgeProp(0)),
            )],
        };
        assert_eq!(pull, CPull::Recomputed(site));

        let two = vec![guarded, send_nbrs(Expr::int(1))];
        assert_eq!(
            lower_kernel_of(vec![], None, two).unwrap().pull,
            CPull::Push
        );
    }

    /// The verdict rules that the one-shape tests of the crate's
    /// `pullability` test module leave out: the kernel body and the
    /// verdict it must get (`Recomputed` sites are checked above).
    #[test]
    fn pull_verdicts_follow_the_lowered_body() {
        let x = || Expr::prop(SELF, "x");
        let w = || Expr::prop(EDGE, "w");
        let cases: Vec<(&str, Vec<VInstr>, &str)> = vec![
            (
                "edge payload with a global",
                vec![send_nbrs(add(Expr::var("a"), w()))],
                "recomputed",
            ),
            (
                "edge payload, deferred write after the send",
                vec![
                    send_nbrs(add(x(), w())),
                    VInstr::WriteOwn {
                        prop: "x".into(),
                        op: AssignOp::Defer,
                        value: Expr::int(1),
                    },
                ],
                "push",
            ),
            (
                "reverse edges",
                vec![VInstr::SendToInNbrs {
                    tag: 0,
                    payload: vec![Expr::int(1)],
                }],
                "push",
            ),
        ];
        for (name, body, want) in cases {
            let got = match lower_kernel_of(vec![], None, body).unwrap().pull {
                CPull::Push => "push",
                CPull::Captured => "captured",
                CPull::Recomputed(_) => "recomputed",
            };
            assert_eq!(got, want, "{name}");
        }
    }

    #[test]
    fn receive_handlers_keep_pir_order_and_index_by_tag() {
        let empty = RecvHandler {
            tag: 1,
            guard: None,
            steps: vec![],
        };
        let k = lower_kernel_of(vec![empty, recv(None, Expr::int(0))], None, vec![]).unwrap();
        let tags: Vec<u8> = k.recvs.iter().map(|r| r.tag).collect();
        assert_eq!(tags, [1, 0]);
        assert_eq!(k.handler(0).map(|r| r.tag), Some(0));
        assert_eq!(k.handler(1).map(|r| r.tag), Some(1));
        assert!(k.handler(7).is_none());
    }

    #[test]
    fn unresolved_names_and_meaningless_inf_are_errors() {
        let unknown = vec![send_nbrs(Expr::prop(SELF, "nope"))];
        assert_eq!(
            lower_kernel_of(vec![], None, unknown).unwrap_err(),
            "unknown property `nope`"
        );
        let write = vec![VInstr::WriteOwn {
            prop: "nope".into(),
            op: AssignOp::Defer,
            value: Expr::int(0),
        }];
        assert_eq!(
            lower_kernel_of(vec![], None, write).unwrap_err(),
            "deferred write to unknown property `nope`"
        );
        let bool_inf = Expr::typed(ExprKind::Inf { negative: false }, Ty::Bool);
        assert_eq!(
            lower_kernel_of(vec![], Some(bool_inf), vec![]).unwrap_err(),
            "INF has no meaning at type Bool"
        );
        let int_inf = Expr::typed(ExprKind::Inf { negative: true }, Ty::Long);
        let k = lower_kernel_of(vec![], Some(int_inf), vec![]).unwrap();
        assert_eq!(k.filter, Some(CExpr::Const(Value::Int(i64::MIN))));
    }

    #[test]
    fn master_globals_index_program_globals() {
        let fold = MInstr::FoldAgg {
            name: "d".into(),
            op: AssignOp::Add,
            agg_key: "d".into(),
        };
        let m = lower_master_of(
            vec![assign("r", parse_expr("a + y").unwrap()), fold],
            Transition::Branch {
                cond: Expr::var("x"),
                then_to: 0,
                else_to: 0,
            },
        )
        .unwrap();
        let CMInstr::Assign {
            slot, value, ty, ..
        } = &m.master[0]
        else {
            panic!("{:?}", m.master);
        };
        let a_plus_y = CExpr::Bin(
            BinOp::Add,
            Box::new(CExpr::Global(0)),
            Box::new(CExpr::Global(7)),
        );
        assert_eq!((*slot, value, ty), (4, &a_plus_y, &Ty::Double));
        assert!(matches!(m.master[1], CMInstr::FoldAgg { slot: 3, .. }));
        let Transition::Branch { cond, .. } = &m.transition else {
            panic!("{:?}", m.transition);
        };
        assert_eq!(*cond, CExpr::Global(6));
        // `PickRandom` is a master leaf; a kernel cannot draw.
        let pick = parse_expr("G.PickRandom()").unwrap();
        let m = lower_master_of(vec![assign("v", pick.clone())], Transition::Halt).unwrap();
        assert!(matches!(
            &m.master[0],
            CMInstr::Assign {
                value: CExpr::PickRandom,
                ..
            }
        ));
        assert_eq!(
            lower_kernel_of(vec![], Some(pick), vec![]).unwrap_err(),
            "vertex built-in `G.PickRandom()` not supported"
        );
    }

    #[test]
    fn unknown_globals_are_lowering_errors() {
        let err = |master| lower_master_of(master, Transition::Halt).unwrap_err();
        assert_eq!(
            err(vec![assign("nope", Expr::int(1))]),
            "unknown assigned global `nope`"
        );
        assert_eq!(
            err(vec![assign("a", Expr::var("nope"))]),
            "unknown master global `nope`"
        );
        let fold = MInstr::FoldAgg {
            name: "nope".into(),
            op: AssignOp::Add,
            agg_key: "nope".into(),
        };
        assert_eq!(err(vec![fold]), "unknown folded global `nope`");
        let branch = Transition::Branch {
            cond: Expr::var("nope"),
            then_to: 0,
            else_to: 0,
        };
        assert_eq!(
            lower_master_of(vec![], branch).unwrap_err(),
            "unknown master global `nope`"
        );
        assert_eq!(
            lower_kernel_of(vec![], Some(Expr::var("nope")), vec![]).unwrap_err(),
            "unknown broadcast global `nope`"
        );
    }

    #[test]
    fn properties_and_aggregates_in_master_code_are_lowering_errors() {
        for src in ["n.x + 1", "Sum(n: G.Nodes){n.x}"] {
            let value = parse_expr(src).unwrap();
            let ret = MInstr::SetReturn(Some(value));
            assert_eq!(
                lower_master_of(vec![ret], Transition::Halt).unwrap_err(),
                "vertex-context expression reached the master",
                "{src}"
            );
        }
    }

    #[test]
    fn a_master_ternary_keeps_its_coercion() {
        let ternary = |ty| {
            let e = parse_expr("x > 0 ? a : r").unwrap();
            Expr::typed(e.kind, ty)
        };
        let m = lower_master_of(
            vec![
                MInstr::SetReturn(Some(ternary(Ty::Double))),
                assign("a", ternary(Ty::Graph)),
            ],
            Transition::Halt,
        )
        .unwrap();
        let coerce_of = |i: &CMInstr| match i {
            CMInstr::SetReturn {
                value: Some(CExpr::Ternary { coerce, .. }),
                ..
            }
            | CMInstr::Assign {
                value: CExpr::Ternary { coerce, .. },
                ..
            } => coerce.clone(),
            other => panic!("{other:?}"),
        };
        assert_eq!(coerce_of(&m.master[0]), Some(Ty::Double));
        // A non-value annotation is no coercion.
        assert_eq!(coerce_of(&m.master[1]), None);
        let CMInstr::SetReturn { coerce, .. } = &m.master[0] else {
            unreachable!()
        };
        assert_eq!(*coerce, Some(Ty::Int));
    }
}
