//! The Pregel intermediate representation: an executable state machine.
//!
//! This is the artifact the §3.1 translation produces (the paper's
//! generated GPS Java program, in structured form). Two backends consume
//! it: the `gm-interp` crate executes it on the `gm-pregel` runtime, and
//! [`crate::javagen`] prints it as GPS-style Java source.
//!
//! Execution contract (mirrors GPS):
//!
//! * One [`State`] with a vertex kernel is executed per superstep. States
//!   without a vertex kernel are *master-only junctions*: the master runs
//!   through them (including transitions) within a single `master.compute`
//!   call, so they cost no timestep.
//! * A state's [`State::master`] code runs master-side at the beginning of
//!   the superstep in which the state executes.
//! * A state's [`State::post`] code runs master-side at the beginning of
//!   the *next* superstep, before the transition is evaluated — this is
//!   where vertex-to-master reductions are folded into master variables
//!   (the paper's `S = S + Global.get("S")`).
//! * Messages sent by a state's kernel are consumed by the
//!   [`VertexKernel::recvs`] handlers of the next vertex state executed.
//!
//! The §4.3 in-neighbor preamble is ordinary PIR: its message is the last
//! layout of [`PregelProgram::messages`], sent by a [`VInstr::SendToNbrs`]
//! of [`SELF`] and stored by a handler whose only step is
//! [`RecvAction::StoreInNbr`].
//!
//! Expressions reuse [`crate::ast::Expr`] with a naming convention:
//! property reads through [`SELF`] refer to the executing vertex, and
//! variables starting with [`PAYLOAD_PREFIX`] refer to message fields.

use crate::ast::{AssignOp, Expr};
use crate::types::Ty;
use std::fmt;

/// The distinguished vertex-variable name meaning "the executing vertex".
pub const SELF: &str = "_self";

/// The distinguished edge-variable name meaning "the edge being sent over"
/// (valid inside `SendToNbrs` payload expressions).
pub const EDGE: &str = "_edge";

/// Prefix for message-payload field references inside receive handlers.
pub const PAYLOAD_PREFIX: &str = "_pl_";

/// Per-message wire envelope: the destination vertex id, as GPS serializes
/// it ahead of the payload. Manual baselines use the same constant so the
/// network-I/O comparison is apples-to-apples.
pub const ENVELOPE_BYTES: u64 = 4;

/// Identifier of a state.
pub type StateId = usize;

/// A compiled Pregel program.
#[derive(Clone, Debug)]
pub struct PregelProgram {
    /// Procedure name.
    pub name: String,
    /// The graph parameter's (unique) name.
    pub graph_param: String,
    /// Non-graph scalar parameters, in order (name, type).
    pub scalar_params: Vec<(String, Ty)>,
    /// Node-property parameters and locals (name, element type).
    pub node_props: Vec<(String, Ty)>,
    /// Edge-property parameters (name, element type).
    pub edge_props: Vec<(String, Ty)>,
    /// Master-side variables: scalar params plus sequential locals.
    pub globals: Vec<(String, Ty)>,
    /// Message layouts, indexed by tag: the program's own, then, when
    /// [`PregelProgram::uses_in_nbrs`], the preamble's one `Node` field.
    pub messages: Vec<MessageLayout>,
    /// Whether the two-superstep in-neighbor-array preamble is required;
    /// its message layout is the last of [`PregelProgram::messages`].
    pub uses_in_nbrs: bool,
    /// Whether lowering may give message tags a combiner (the compiler
    /// option; the verdict per tag is `kernel::Lowered::combine`).
    pub combiners: bool,
    /// Declared return type.
    pub ret: Option<Ty>,
    /// The state machine. `states[0]` is the entry.
    pub states: Vec<State>,
}

impl PregelProgram {
    /// Number of states with a vertex kernel — the paper's "vertex-centric
    /// kernels" count (§5.1 reports nine for Betweenness Centrality).
    pub fn num_vertex_kernels(&self) -> usize {
        self.states.iter().filter(|s| s.vertex.is_some()).count()
    }

    /// Number of the program's own message types, the preamble's not
    /// counted (§5.1 reports four for BC: three plus the preamble).
    pub fn num_message_types(&self) -> usize {
        self.messages.len() - usize::from(self.uses_in_nbrs)
    }

    /// Serialized byte size of one message with the given tag: the
    /// destination-id envelope, the payload widths, plus one tag byte when
    /// the program has several message types.
    pub fn message_bytes(&self, tag: u8) -> u64 {
        let payload: u64 = self.messages[tag as usize]
            .fields
            .iter()
            .map(|(_, ty)| ty.byte_width())
            .sum();
        let tag_byte = if self.needs_tag_byte() { 1 } else { 0 };
        ENVELOPE_BYTES + payload + tag_byte
    }

    /// Whether messages carry an explicit tag byte (aka the paper's
    /// Multiple Communication pattern fired).
    pub fn needs_tag_byte(&self) -> bool {
        self.messages.len() > 1
    }

    /// A coarse size measure over the state machine: one per state plus
    /// every master/post instruction, vertex-kernel instruction and
    /// receive step — the PIR node count the per-pass compile timings
    /// report for `translate` and `optimize`.
    pub fn num_instrs(&self) -> usize {
        self.states
            .iter()
            .map(|s| {
                1 + s.master.len()
                    + s.post.len()
                    + s.vertex.as_ref().map_or(0, |k| {
                        k.body.len() + k.recvs.iter().map(|r| r.steps.len()).sum::<usize>()
                    })
            })
            .sum()
    }
}

/// The payload layout of one message type.
#[derive(Clone, Debug, PartialEq)]
pub struct MessageLayout {
    /// Tag value (index into [`PregelProgram::messages`]).
    pub tag: u8,
    /// Field names (referenced as `_pl_<name>` in recv expressions) and
    /// their declared Green-Marl types.
    pub fields: Vec<(String, Ty)>,
}

/// One state of the machine.
#[derive(Clone, Debug)]
pub struct State {
    /// Master code run on arrival (same superstep as the vertex phase).
    pub master: Vec<MInstr>,
    /// Vertex kernel, if this state has a vertex-parallel phase.
    pub vertex: Option<VertexKernel>,
    /// Master code run at the start of the *next* superstep (aggregation
    /// folds), before the transition is evaluated.
    pub post: Vec<MInstr>,
    /// Where to go next.
    pub transition: Transition,
}

/// Control-flow decision after a state. `E` is the condition's form:
/// named AST here, slot-resolved in [`crate::kernel::CMaster`].
#[derive(Clone, Debug)]
pub enum Transition<E = Expr> {
    /// Unconditional successor.
    Goto(StateId),
    /// Conditional successor; `cond` is evaluated master-side.
    Branch {
        /// Condition over master globals.
        cond: E,
        /// Successor when true.
        then_to: StateId,
        /// Successor when false.
        else_to: StateId,
    },
    /// Stop the computation.
    Halt,
}

/// Master-side instructions (operate on globals).
#[derive(Clone, Debug)]
pub enum MInstr {
    /// `name op= value` over master variables.
    Assign {
        /// Target global.
        name: String,
        /// Operator.
        op: AssignOp,
        /// Master-context expression.
        value: Expr,
    },
    /// Folds the vertex aggregate under `agg_key` into global `name`
    /// with `op` (no-op if no vertex wrote the aggregate).
    FoldAgg {
        /// Target global.
        name: String,
        /// Combining operator.
        op: AssignOp,
        /// Aggregation key (the global's name).
        agg_key: String,
    },
    /// Conditional master code.
    If {
        /// Condition over master globals.
        cond: Expr,
        /// True branch.
        then_branch: Vec<MInstr>,
        /// False branch.
        else_branch: Vec<MInstr>,
    },
    /// Sets the procedure's return value and halts after this master block.
    SetReturn(Option<Expr>),
}

/// The vertex-parallel part of a state.
#[derive(Clone, Debug, Default)]
pub struct VertexKernel {
    /// Message handlers for messages sent by the previous vertex state.
    /// They run on every vertex that received messages, unconditionally.
    pub recvs: Vec<RecvHandler>,
    /// Gate for [`VertexKernel::body`]: the outer loop's filter, evaluated
    /// per vertex over its own properties and broadcast globals.
    pub filter: Option<Expr>,
    /// Per-vertex code (local computation and sends).
    pub body: Vec<VInstr>,
    /// Broadcast globals read by this kernel (filter, body, or recvs).
    pub reads_globals: Vec<String>,
}

/// A message handler for one tag.
#[derive(Clone, Debug)]
pub struct RecvHandler {
    /// Message tag handled.
    pub tag: u8,
    /// Receiver-side guard (own props, broadcast globals, payload fields);
    /// evaluated against the vertex state as of the start of the message
    /// batch (snapshot semantics for plain assignments — see DESIGN.md).
    pub guard: Option<Expr>,
    /// Steps executed per message passing the guard.
    pub steps: Vec<RecvStep>,
}

/// One guarded receive action (guards come from `If`s inside inner loops).
#[derive(Clone, Debug)]
pub struct RecvStep {
    /// Additional per-step guard.
    pub guard: Option<Expr>,
    /// The action.
    pub action: RecvAction,
}

/// Actions a receive handler may perform.
#[derive(Clone, Debug)]
pub enum RecvAction {
    /// `self.prop op= value`.
    WriteOwn {
        /// Target property.
        prop: String,
        /// Operator.
        op: AssignOp,
        /// Expression over own props, payload fields, broadcast globals.
        value: Expr,
    },
    /// Reduce into a master global.
    ReduceGlobal {
        /// Target global.
        name: String,
        /// Reduction operator (must be commutative).
        op: AssignOp,
        /// Expression as in [`RecvAction::WriteOwn`].
        value: Expr,
    },
    /// Append the payload's one `Node` field, the sender's id, to the
    /// in-neighbor array (the preamble's collecting handler).
    StoreInNbr,
}

/// Per-vertex instructions in a kernel body.
#[derive(Clone, Debug)]
pub enum VInstr {
    /// Declare/assign a per-vertex local temporary.
    Local {
        /// Local name.
        name: String,
        /// Operator (usually `=`).
        op: AssignOp,
        /// Vertex-context expression.
        value: Expr,
        /// Declared type.
        ty: Ty,
    },
    /// Write the executing vertex's own property.
    WriteOwn {
        /// Target property.
        prop: String,
        /// Operator (`Defer` writes apply at the end of the kernel).
        op: AssignOp,
        /// Vertex-context expression.
        value: Expr,
    },
    /// Reduce into a master global.
    ReduceGlobal {
        /// Target global.
        name: String,
        /// Reduction operator.
        op: AssignOp,
        /// Vertex-context expression.
        value: Expr,
    },
    /// Send a message to every out-neighbor. Payload expressions may
    /// reference the connecting edge through the [`EDGE`] variable.
    SendToNbrs {
        /// Message tag.
        tag: u8,
        /// Per-field payload expressions, in layout order.
        payload: Vec<Expr>,
    },
    /// Send a message to every in-neighbor (requires the preamble).
    SendToInNbrs {
        /// Message tag.
        tag: u8,
        /// Payload expressions (no edge access on reverse edges).
        payload: Vec<Expr>,
    },
    /// Send a message to one vertex by id (the Random Writing pattern).
    SendTo {
        /// Node-valued destination expression.
        dst: Expr,
        /// Message tag.
        tag: u8,
        /// Payload expressions.
        payload: Vec<Expr>,
    },
    /// Conditional vertex code.
    If {
        /// Vertex-context condition.
        cond: Expr,
        /// True branch.
        then_branch: Vec<VInstr>,
        /// False branch.
        else_branch: Vec<VInstr>,
    },
}

impl VertexKernel {
    /// Applies `f` to every top-level expression the kernel evaluates: the
    /// filter, each body instruction's own expressions, and each receive
    /// handler's guards and action values.
    pub(crate) fn visit_exprs<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        self.filter.iter().for_each(&mut *f);
        VInstr::visit(&self.body, &mut |i| i.exprs().for_each(&mut *f));
        for r in &self.recvs {
            r.guard.iter().for_each(&mut *f);
            for s in &r.steps {
                s.guard.iter().for_each(&mut *f);
                match &s.action {
                    RecvAction::WriteOwn { value, .. } | RecvAction::ReduceGlobal { value, .. } => {
                        f(value)
                    }
                    RecvAction::StoreInNbr => {}
                }
            }
        }
    }
}

impl VInstr {
    /// Applies `f` to every instruction of `body` in pre-order, both
    /// branches of each `If` included.
    pub(crate) fn visit<'a>(body: &'a [VInstr], f: &mut impl FnMut(&'a VInstr)) {
        for i in body {
            f(i);
            if let VInstr::If {
                then_branch,
                else_branch,
                ..
            } = i
            {
                VInstr::visit(then_branch, f);
                VInstr::visit(else_branch, f);
            }
        }
    }

    /// The expressions this instruction evaluates itself: its value,
    /// destination, payload or condition (an `If`'s branches are
    /// instructions of their own).
    pub(crate) fn exprs(&self) -> impl Iterator<Item = &Expr> {
        let (head, payload): (Option<&Expr>, &[Expr]) = match self {
            VInstr::Local { value, .. }
            | VInstr::WriteOwn { value, .. }
            | VInstr::ReduceGlobal { value, .. }
            | VInstr::If { cond: value, .. } => (Some(value), &[]),
            VInstr::SendToNbrs { payload, .. } | VInstr::SendToInNbrs { payload, .. } => {
                (None, payload)
            }
            VInstr::SendTo { dst, payload, .. } => (Some(dst), payload),
        };
        head.into_iter().chain(payload)
    }
}

impl MInstr {
    /// Applies `f` to every instruction of `block` in pre-order, both
    /// branches of each `If` included.
    pub(crate) fn visit<'a>(block: &'a [MInstr], f: &mut impl FnMut(&'a MInstr)) {
        for i in block {
            f(i);
            if let MInstr::If {
                then_branch,
                else_branch,
                ..
            } = i
            {
                MInstr::visit(then_branch, f);
                MInstr::visit(else_branch, f);
            }
        }
    }
}

impl fmt::Display for PregelProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "pregel program `{}`: {} states ({} vertex kernels), {} message types{}",
            self.name,
            self.states.len(),
            self.num_vertex_kernels(),
            self.num_message_types(),
            if self.uses_in_nbrs {
                ", in-neighbor preamble"
            } else {
                ""
            }
        )?;
        for (i, s) in self.states.iter().enumerate() {
            let kind = if s.vertex.is_some() {
                "vertex"
            } else {
                "master"
            };
            let trans = match &s.transition {
                Transition::Goto(t) => format!("goto {t}"),
                Transition::Branch {
                    then_to, else_to, ..
                } => format!("branch {then_to}/{else_to}"),
                Transition::Halt => "halt".to_owned(),
            };
            writeln!(f, "  state {i} [{kind}] -> {trans}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_program() -> PregelProgram {
        PregelProgram {
            name: "p".into(),
            graph_param: "G".into(),
            scalar_params: vec![],
            node_props: vec![("x".into(), Ty::Int)],
            edge_props: vec![],
            globals: vec![],
            messages: vec![
                MessageLayout {
                    tag: 0,
                    fields: vec![("a".into(), Ty::Int), ("b".into(), Ty::Double)],
                },
                MessageLayout {
                    tag: 1,
                    fields: vec![("c".into(), Ty::Bool)],
                },
            ],
            uses_in_nbrs: false,
            combiners: false,
            ret: None,
            states: vec![State {
                master: vec![],
                vertex: Some(VertexKernel::default()),
                post: vec![],
                transition: Transition::Halt,
            }],
        }
    }

    #[test]
    fn message_bytes_include_tag_when_multiple_types() {
        let p = tiny_program();
        assert!(p.needs_tag_byte());
        assert_eq!(p.message_bytes(0), ENVELOPE_BYTES + 4 + 8 + 1);
        assert_eq!(p.message_bytes(1), ENVELOPE_BYTES + 1 + 1);
    }

    #[test]
    fn single_message_type_has_no_tag_byte() {
        let mut p = tiny_program();
        p.messages.pop();
        assert!(!p.needs_tag_byte());
        assert_eq!(p.message_bytes(0), ENVELOPE_BYTES + 12);
    }

    #[test]
    fn in_nbrs_preamble_counts_as_a_type() {
        let mut p = tiny_program();
        p.messages[1] = MessageLayout {
            tag: 1,
            fields: vec![("sender".into(), Ty::Node)],
        };
        p.uses_in_nbrs = true;
        assert!(p.needs_tag_byte());
        assert_eq!(p.message_bytes(1), ENVELOPE_BYTES + 4 + 1);
        assert_eq!(p.num_message_types(), 1);
    }

    #[test]
    fn kernel_counts() {
        let p = tiny_program();
        assert_eq!(p.num_vertex_kernels(), 1);
        assert_eq!(p.num_message_types(), 2);
        let display = p.to_string();
        assert!(
            display.contains("1 vertex kernels") || display.contains("(1 vertex"),
            "{display}"
        );
    }
}
