//! PIR well-formedness verification.
//!
//! The paper's headline claim is that compiler-generated Pregel programs
//! are *exactly* equivalent to hand-written ones; a silent miscompile in
//! [`crate::translate`] or [`crate::optimize`] would break that at the
//! core. This module checks the structural invariants every well-formed
//! [`PregelProgram`] must satisfy and reports violations as ordinary
//! [`Diagnostics`] instead of panics or silently-wrong execution:
//!
//! * **Control flow** — every transition target is in range (no dangling
//!   branch after `compact`), and every state is reachable from the entry
//!   state (strict mode; mid-optimization states awaiting `compact` may
//!   relax this).
//! * **Messages** — every send uses a declared tag with the right payload
//!   arity and field types; every sent tag has a receive handler in at
//!   least one next vertex state (speculative sends dropped on a loop-exit
//!   leg are allowed — that is the documented intra-loop-merge semantics —
//!   but a tag *no* successor consumes is a miscompile); every receive
//!   handler has a sender in some previous vertex state (no orphan tags);
//!   payload field references resolve against the tag's layout and never
//!   leak outside receive handlers; a handler that stores in-neighbors
//!   handles a layout of exactly one `Node` field, the sender's id.
//! * **Halt discipline** — a state whose kernel sends messages must not
//!   unconditionally halt: those messages could never be delivered.
//! * **Aggregators** — an aggregate fold reads the value vertices reduced
//!   in a *prior* superstep, so `FoldAgg` may only appear in a state's
//!   `post` block and only for a global that state's kernel actually
//!   reduces; within one kernel a global is reduced with a single
//!   operator.
//! * **Globals** — master code, transition conditions, and broadcast-read
//!   lists reference only declared globals.
//!
//! [`verify`] runs after translation and after every optimization pass of
//! every compile ([`crate::compile`]) and is exposed to users as
//! `gmc verify <file>`.

use crate::ast::{Expr, ExprKind};
use crate::diag::{Diagnostics, Span};
use crate::pir::*;
use crate::types::Ty;
use std::collections::HashSet;

/// Verification strictness knobs.
#[derive(Clone, Copy, Debug)]
pub struct VerifyOptions {
    /// Permit unreachable states (used between optimization passes, where
    /// a merged-away state lingers until `compact` runs).
    pub allow_unreachable: bool,
}

impl VerifyOptions {
    /// Full strictness: what a finished compile must satisfy.
    pub fn strict() -> Self {
        VerifyOptions {
            allow_unreachable: false,
        }
    }

    /// Mid-pipeline strictness: unreachable states are tolerated.
    pub fn mid_optimization() -> Self {
        VerifyOptions {
            allow_unreachable: true,
        }
    }
}

/// Checks all well-formedness invariants, strictly.
///
/// # Errors
///
/// One diagnostic per violated invariant; messages carry a stable
/// `pir-verify: <check-name>:` prefix so callers (and tests) can match on
/// the specific failure.
pub fn verify(program: &PregelProgram) -> Result<(), Diagnostics> {
    verify_with(program, &VerifyOptions::strict())
}

/// [`verify`] with explicit strictness options.
///
/// # Errors
///
/// One diagnostic per violated invariant.
pub fn verify_with(program: &PregelProgram, opts: &VerifyOptions) -> Result<(), Diagnostics> {
    let mut v = Verifier {
        program,
        diags: Diagnostics::new(),
    };
    v.check_shape();
    if v.diags.has_errors() {
        // Transition targets or tag tables are broken; the graph walks
        // below would index out of bounds.
        return Err(v.diags);
    }
    if !opts.allow_unreachable {
        v.check_reachability();
    }
    v.check_messages();
    v.check_halt_discipline();
    v.check_aggregators();
    v.check_globals();
    if v.diags.has_errors() {
        Err(v.diags)
    } else {
        Ok(())
    }
}

/// [`verify_with`] for use inside the compilation pipeline: on failure a
/// leading diagnostic names the pass that produced the ill-formed program,
/// so the report reads as the internal compiler error it is.
///
/// # Errors
///
/// The stage-naming diagnostic followed by the individual violations.
pub fn verify_stage(
    program: &PregelProgram,
    stage: &str,
    opts: &VerifyOptions,
) -> Result<(), Diagnostics> {
    verify_with(program, opts).map_err(|inner| {
        let mut out = Diagnostics::new();
        out.error(
            Span::synthetic(),
            format!(
                "internal compiler error: PIR verification failed after `{stage}` \
                 (please report this)"
            ),
        );
        out.errors.extend(inner.errors);
        out
    })
}

/// Renders the one-line summary `gmc verify` prints on success.
pub fn summary(program: &PregelProgram) -> String {
    let branches = program
        .states
        .iter()
        .filter(|s| matches!(s.transition, Transition::Branch { .. }))
        .count();
    format!(
        "verified: {} states ({} vertex kernels, {} branches), {} message types, {} globals{}",
        program.states.len(),
        program.num_vertex_kernels(),
        branches,
        program.num_message_types(),
        program.globals.len(),
        if program.uses_in_nbrs {
            ", in-neighbor preamble"
        } else {
            ""
        }
    )
}

/// One send site: the tag plus its payload expressions.
struct SendSite<'a> {
    tag: u8,
    payload: &'a [Expr],
}

struct Verifier<'a> {
    program: &'a PregelProgram,
    diags: Diagnostics,
}

impl Verifier<'_> {
    fn error(&mut self, check: &str, msg: String) {
        self.diags
            .error(Span::synthetic(), format!("pir-verify: {check}: {msg}"));
    }

    // ---- shape: transition targets and tag tables ----

    fn check_shape(&mut self) {
        let n = self.program.states.len();
        if n == 0 {
            self.error("empty-program", "program has no states".to_owned());
            return;
        }
        for (id, s) in self.program.states.iter().enumerate() {
            let mut target = |t: StateId, slot: &str| {
                if t >= n {
                    self.diags.error(
                        Span::synthetic(),
                        format!(
                            "pir-verify: dangling-branch-target: state {id} {slot} targets \
                             state {t} but the program has {n} states"
                        ),
                    );
                }
            };
            match &s.transition {
                Transition::Goto(t) => target(*t, "goto"),
                Transition::Branch {
                    then_to, else_to, ..
                } => {
                    target(*then_to, "then-branch");
                    target(*else_to, "else-branch");
                }
                Transition::Halt => {}
            }
        }
        for (i, m) in self.program.messages.iter().enumerate() {
            if m.tag as usize != i {
                self.error(
                    "tag-table-corrupt",
                    format!("message layout at index {i} declares tag {}", m.tag),
                );
            }
        }
    }

    // ---- reachability ----

    fn check_reachability(&mut self) {
        let n = self.program.states.len();
        let mut reachable = vec![false; n];
        let mut stack = vec![0usize];
        while let Some(s) = stack.pop() {
            if reachable[s] {
                continue;
            }
            reachable[s] = true;
            match &self.program.states[s].transition {
                Transition::Goto(t) => stack.push(*t),
                Transition::Branch {
                    then_to, else_to, ..
                } => {
                    stack.push(*then_to);
                    stack.push(*else_to);
                }
                Transition::Halt => {}
            }
        }
        for (id, r) in reachable.iter().enumerate() {
            if !r {
                self.error(
                    "unreachable-state",
                    format!("state {id} is not reachable from the entry state"),
                );
            }
        }
    }

    // ---- messages ----

    /// The vertex states that execute the superstep after `from`: follow
    /// transitions through master-only junction states (the master runs
    /// them inside one `master.compute` call) until a vertex state or a
    /// halt is reached.
    fn next_vertex_states(&self, from: StateId) -> Vec<StateId> {
        let mut out = Vec::new();
        let mut seen = HashSet::new();
        let mut stack: Vec<StateId> = Vec::new();
        let push_targets = |t: &Transition, stack: &mut Vec<StateId>| match t {
            Transition::Goto(t) => stack.push(*t),
            Transition::Branch {
                then_to, else_to, ..
            } => {
                stack.push(*then_to);
                stack.push(*else_to);
            }
            Transition::Halt => {}
        };
        push_targets(&self.program.states[from].transition, &mut stack);
        while let Some(s) = stack.pop() {
            if !seen.insert(s) {
                continue;
            }
            if self.program.states[s].vertex.is_some() {
                out.push(s);
            } else {
                push_targets(&self.program.states[s].transition, &mut stack);
            }
        }
        out.sort_unstable();
        out
    }

    /// Every send site of `state`'s kernel body, in pre-order.
    fn sends_of(&self, state: StateId) -> Vec<SendSite<'_>> {
        let mut out = Vec::new();
        let Some(k) = &self.program.states[state].vertex else {
            return out;
        };
        VInstr::visit(&k.body, &mut |i| match i {
            VInstr::SendToNbrs { tag, payload }
            | VInstr::SendToInNbrs { tag, payload }
            | VInstr::SendTo { tag, payload, .. } => out.push(SendSite { tag: *tag, payload }),
            _ => {}
        });
        out
    }

    fn check_messages(&mut self) {
        let num_tags = self.program.messages.len();
        let n = self.program.states.len();

        // Per-state send checks: tags in range, payload arity/types, and
        // consumption by some next vertex state.
        for id in 0..n {
            let nexts = self.next_vertex_states(id);
            // Collect errors first; `self` is immutably borrowed by the
            // send sites.
            let mut errors: Vec<(String, String)> = Vec::new();
            for SendSite { tag, payload } in self.sends_of(id) {
                if tag as usize >= num_tags {
                    errors.push((
                        "unknown-message-tag".to_owned(),
                        format!(
                            "state {id} sends tag {tag} but only {num_tags} message \
                             types are declared"
                        ),
                    ));
                    continue;
                }
                let layout = &self.program.messages[tag as usize];
                if payload.len() != layout.fields.len() {
                    errors.push((
                        "payload-arity-mismatch".to_owned(),
                        format!(
                            "state {id} sends tag {tag} with {} payload values but \
                             the layout declares {} fields",
                            payload.len(),
                            layout.fields.len()
                        ),
                    ));
                } else {
                    for (i, (expr, (fname, fty))) in payload.iter().zip(&layout.fields).enumerate()
                    {
                        if let Some(ety) = &expr.ty {
                            if ety != fty {
                                errors.push((
                                    "payload-type-mismatch".to_owned(),
                                    format!(
                                        "state {id} sends tag {tag} field {i} \
                                         (`{fname}`: {fty:?}) with a {ety:?}-typed \
                                         expression"
                                    ),
                                ));
                            }
                        }
                    }
                }
                // The message must be consumable: at least one next vertex
                // state handles the tag. (Speculative sends dropped on the
                // other leg of a loop-exit branch are fine.)
                let consumed = nexts.iter().any(|&s| {
                    self.program.states[s]
                        .vertex
                        .as_ref()
                        .is_some_and(|k| k.recvs.iter().any(|r| r.tag == tag))
                });
                if !consumed {
                    errors.push((
                        "unconsumed-message".to_owned(),
                        format!(
                            "state {id} sends tag {tag} but no successor vertex state \
                             has a receive handler for it"
                        ),
                    ));
                }
            }
            for (check, msg) in errors {
                self.error(&check, msg);
            }
        }

        // Per-handler checks: tags in range, a sender exists in some
        // previous vertex state, payload references resolve.
        let mut preds: Vec<Vec<StateId>> = vec![Vec::new(); n];
        for p in 0..n {
            if self.program.states[p].vertex.is_none() {
                continue;
            }
            for s in self.next_vertex_states(p) {
                preds[s].push(p);
            }
        }
        for (id, state_preds) in preds.iter().enumerate() {
            let Some(k) = &self.program.states[id].vertex else {
                continue;
            };
            let mut errors: Vec<(String, String)> = Vec::new();
            let mut seen_tags: HashSet<u8> = HashSet::new();
            for r in &k.recvs {
                let tag = r.tag;
                if !seen_tags.insert(tag) {
                    errors.push((
                        "duplicate-receive-handler".to_owned(),
                        format!("state {id} has two receive handlers for tag {tag}"),
                    ));
                }
                if tag as usize >= num_tags {
                    errors.push((
                        "unknown-message-tag".to_owned(),
                        format!(
                            "state {id} handles tag {tag} but only {num_tags} message \
                             types are declared"
                        ),
                    ));
                    continue;
                }
                let sent_by_pred = state_preds
                    .iter()
                    .any(|&p| self.sends_of(p).iter().any(|site| site.tag == tag));
                if !sent_by_pred {
                    errors.push((
                        "orphan-message-tag".to_owned(),
                        format!(
                            "state {id} handles tag {tag} but no predecessor vertex \
                             state sends it"
                        ),
                    ));
                }
                // A stored in-neighbor is the payload's one field, a
                // vertex id.
                let layout = &self.program.messages[tag as usize];
                let stores = (r.steps.iter()).any(|s| matches!(s.action, RecvAction::StoreInNbr));
                if stores && !matches!(layout.fields[..], [(_, Ty::Node)]) {
                    errors.push((
                        "store-in-nbr-layout".to_owned(),
                        format!(
                            "state {id} tag {tag} stores an in-neighbor but its layout \
                             is not exactly one Node field"
                        ),
                    ));
                }
                // Payload slot agreement: every `_pl_<name>` reference in
                // the handler resolves against this tag's layout.
                let mut check_expr = |e: &Expr, where_: &str| {
                    let mut refs = Vec::new();
                    payload_refs(e, &mut refs);
                    for field in refs {
                        if !layout.fields.iter().any(|(n, _)| n == field) {
                            errors.push((
                                "unknown-payload-field".to_owned(),
                                format!(
                                    "state {id} tag {tag} {where_} references payload \
                                     field `{field}` absent from the layout"
                                ),
                            ));
                        }
                    }
                };
                if let Some(g) = &r.guard {
                    check_expr(g, "guard");
                }
                for step in &r.steps {
                    if let Some(g) = &step.guard {
                        check_expr(g, "step guard");
                    }
                    match &step.action {
                        RecvAction::WriteOwn { value, .. }
                        | RecvAction::ReduceGlobal { value, .. } => check_expr(value, "action"),
                        RecvAction::StoreInNbr => {}
                    }
                }
            }
            // Payload references outside receive handlers are meaningless:
            // the kernel body runs without a message in scope.
            let mut body_refs = Vec::new();
            VInstr::visit(&k.body, &mut |i| {
                i.exprs().for_each(|e| payload_refs(e, &mut body_refs))
            });
            if let Some(f) = &k.filter {
                payload_refs(f, &mut body_refs);
            }
            for field in body_refs {
                errors.push((
                    "payload-ref-outside-receive".to_owned(),
                    format!(
                        "state {id} kernel body references payload field `{field}` \
                         outside a receive handler"
                    ),
                ));
            }
            for (check, msg) in errors {
                self.error(&check, msg);
            }
        }
    }

    // ---- halt discipline ----

    fn check_halt_discipline(&mut self) {
        for (id, s) in self.program.states.iter().enumerate() {
            if !matches!(s.transition, Transition::Halt) {
                continue;
            }
            if let Some(site) = self.sends_of(id).first() {
                let tag = site.tag;
                self.error(
                    "send-after-halt",
                    format!(
                        "state {id} sends tag {tag} but unconditionally halts; \
                         the messages can never be delivered"
                    ),
                );
            }
        }
    }

    // ---- aggregators ----

    /// Globals reduced by the kernel (body or receive steps), with the op.
    fn kernel_reductions(kernel: &VertexKernel) -> Vec<(String, crate::ast::AssignOp)> {
        let mut out = Vec::new();
        VInstr::visit(&kernel.body, &mut |i| {
            if let VInstr::ReduceGlobal { name, op, .. } = i {
                out.push((name.clone(), *op));
            }
        });
        for r in &kernel.recvs {
            for s in &r.steps {
                if let RecvAction::ReduceGlobal { name, op, .. } = &s.action {
                    out.push((name.clone(), *op));
                }
            }
        }
        out
    }

    fn check_aggregators(&mut self) {
        for (id, s) in self.program.states.iter().enumerate() {
            // A fold in the arrival-master block would read the aggregate
            // *before* this state's vertex phase has written it.
            for key in folds(&s.master) {
                self.error(
                    "premature-aggregator-read",
                    format!(
                        "state {id} folds aggregate `{key}` in its master block, \
                         before any vertex has reduced it this superstep"
                    ),
                );
            }
            let reductions: Vec<(String, crate::ast::AssignOp)> = s
                .vertex
                .as_ref()
                .map(Self::kernel_reductions)
                .unwrap_or_default();
            // One operator per aggregate within a kernel: the aggregation
            // map merges with a single op.
            let mut seen: Vec<(String, crate::ast::AssignOp)> = Vec::new();
            for (name, op) in &reductions {
                match seen.iter().find(|(n, _)| n == name) {
                    Some((_, prev)) if prev != op => self.error(
                        "conflicting-reduction",
                        format!(
                            "state {id} reduces global `{name}` with both {prev:?} \
                             and {op:?}"
                        ),
                    ),
                    Some(_) => {}
                    None => seen.push((name.clone(), *op)),
                }
            }
            // A post-block fold reads the aggregate the kernel wrote; a
            // fold for a key no vertex can have written reads stale (or
            // absent) data.
            for key in folds(&s.post) {
                if !reductions.iter().any(|(n, _)| n == key) {
                    self.error(
                        "premature-aggregator-read",
                        format!(
                            "state {id} folds aggregate `{key}` in its post block \
                             but its kernel never reduces `{key}`"
                        ),
                    );
                }
            }
        }
    }

    // ---- globals ----

    fn check_globals(&mut self) {
        let declared: HashSet<&str> = self
            .program
            .globals
            .iter()
            .map(|(n, _)| n.as_str())
            .collect();
        let graph = self.program.graph_param.as_str();
        for (id, s) in self.program.states.iter().enumerate() {
            let mut exprs: Vec<(&Expr, &'static str)> = Vec::new();
            let mut targets: Vec<(&str, &'static str)> = Vec::new();
            for block in [&s.master, &s.post] {
                MInstr::visit(block, &mut |m| match m {
                    MInstr::Assign { name, value, .. } => {
                        targets.push((name, "master assignment"));
                        exprs.push((value, "master expression"));
                    }
                    MInstr::FoldAgg { name, .. } => targets.push((name, "aggregate fold")),
                    MInstr::If { cond, .. } => exprs.push((cond, "master condition")),
                    MInstr::SetReturn(Some(e)) => exprs.push((e, "return expression")),
                    MInstr::SetReturn(None) => {}
                });
            }
            if let Transition::Branch { cond, .. } = &s.transition {
                exprs.push((cond, "transition condition"));
            }
            for (name, where_) in targets {
                if !declared.contains(name) {
                    self.error(
                        "unknown-global",
                        format!(
                            "state {id} {where_} targets `{name}` which is not a \
                             declared global"
                        ),
                    );
                }
            }
            for (e, where_) in exprs {
                let mut vars = Vec::new();
                e.visit(&mut |x| {
                    if let ExprKind::Var(v) = &x.kind {
                        vars.push(v.as_str());
                    }
                });
                for v in vars {
                    if !declared.contains(v) && v != graph {
                        self.error(
                            "unknown-global",
                            format!(
                                "state {id} {where_} references `{v}` which is not a \
                                 declared global"
                            ),
                        );
                    }
                }
            }
            if let Some(k) = &self.program.states[id].vertex {
                for g in &k.reads_globals {
                    if !declared.contains(g.as_str()) {
                        self.error(
                            "unknown-global",
                            format!(
                                "state {id} broadcast-read list names `{g}` which is \
                                 not a declared global"
                            ),
                        );
                    }
                }
            }
        }
    }
}

/// The `agg_key` of every aggregate fold in `block`, `If` branches
/// included.
fn folds(block: &[MInstr]) -> Vec<&str> {
    let mut out = Vec::new();
    MInstr::visit(block, &mut |m| {
        if let MInstr::FoldAgg { agg_key, .. } = m {
            out.push(agg_key.as_str());
        }
    });
    out
}

/// Appends the payload field names (`_pl_<name>` → `name`) `e` reads.
fn payload_refs<'a>(e: &'a Expr, out: &mut Vec<&'a str>) {
    e.visit(&mut |x| {
        if let ExprKind::Var(n) = &x.kind {
            out.extend(n.strip_prefix(PAYLOAD_PREFIX));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::AssignOp;
    use crate::types::Ty;

    /// A minimal well-formed two-state program: state 0 sends tag 0 to
    /// neighbors, state 1 receives it and reduces into global `s`, folding
    /// the aggregate in its post block.
    fn well_formed() -> PregelProgram {
        let payload_ref = Expr::typed(ExprKind::Var(format!("{PAYLOAD_PREFIX}v")), Ty::Int);
        PregelProgram {
            name: "wf".into(),
            graph_param: "G".into(),
            scalar_params: vec![],
            node_props: vec![("x".into(), Ty::Int)],
            edge_props: vec![],
            globals: vec![("s".into(), Ty::Int)],
            messages: vec![MessageLayout {
                tag: 0,
                fields: vec![("v".into(), Ty::Int)],
            }],
            uses_in_nbrs: false,
            ret: None,
            states: vec![
                State {
                    master: vec![MInstr::Assign {
                        name: "s".into(),
                        op: AssignOp::Assign,
                        value: Expr::typed(ExprKind::IntLit(0), Ty::Int),
                    }],
                    vertex: Some(VertexKernel {
                        recvs: vec![],
                        filter: None,
                        body: vec![VInstr::SendToNbrs {
                            tag: 0,
                            payload: vec![Expr::typed(
                                ExprKind::Prop {
                                    obj: SELF.into(),
                                    prop: "x".into(),
                                },
                                Ty::Int,
                            )],
                        }],
                        reads_globals: vec![],
                    }),
                    post: vec![],
                    transition: Transition::Goto(1),
                },
                State {
                    master: vec![],
                    vertex: Some(VertexKernel {
                        recvs: vec![RecvHandler {
                            tag: 0,
                            guard: None,
                            steps: vec![RecvStep {
                                guard: None,
                                action: RecvAction::ReduceGlobal {
                                    name: "s".into(),
                                    op: AssignOp::Add,
                                    value: payload_ref,
                                },
                            }],
                        }],
                        filter: None,
                        body: vec![],
                        reads_globals: vec![],
                    }),
                    post: vec![MInstr::FoldAgg {
                        name: "s".into(),
                        op: AssignOp::Add,
                        agg_key: "s".into(),
                    }],
                    transition: Transition::Halt,
                },
            ],
        }
    }

    fn expect_reject(p: &PregelProgram, check: &str) {
        let err = verify(p).expect_err("verifier must reject the mutant");
        assert!(
            err.to_string().contains(&format!("pir-verify: {check}:")),
            "expected `{check}` diagnostic, got:\n{err}"
        );
    }

    #[test]
    fn well_formed_program_passes() {
        verify(&well_formed()).expect("well-formed program verifies");
        assert!(summary(&well_formed()).contains("2 states"));
    }

    // -- the six hand-seeded mutants from the issue's mutation check --

    #[test]
    fn mutant_dangling_branch_target_rejected() {
        let mut p = well_formed();
        p.states[0].transition = Transition::Branch {
            cond: Expr::typed(ExprKind::BoolLit(true), Ty::Bool),
            then_to: 1,
            else_to: 9, // out of range
        };
        expect_reject(&p, "dangling-branch-target");
    }

    #[test]
    fn mutant_orphan_message_tag_rejected() {
        let mut p = well_formed();
        // Remove the send; the handler's tag is now orphaned.
        p.states[0].vertex.as_mut().unwrap().body.clear();
        expect_reject(&p, "orphan-message-tag");
    }

    #[test]
    fn mutant_payload_type_mismatch_rejected() {
        let mut p = well_formed();
        // The layout says Int but the sender ships a Double expression.
        if let VInstr::SendToNbrs { payload, .. } =
            &mut p.states[0].vertex.as_mut().unwrap().body[0]
        {
            payload[0] = Expr::typed(ExprKind::FloatLit(0.5), Ty::Double);
        }
        expect_reject(&p, "payload-type-mismatch");
    }

    #[test]
    fn mutant_unreachable_state_rejected() {
        let mut p = well_formed();
        p.states.push(State {
            master: vec![],
            vertex: None,
            post: vec![],
            transition: Transition::Halt,
        });
        expect_reject(&p, "unreachable-state");
        // The mid-optimization mode tolerates it (compact runs later).
        verify_with(&p, &VerifyOptions::mid_optimization())
            .expect("relaxed mode allows unreachable states");
    }

    #[test]
    fn mutant_send_after_halt_rejected() {
        let mut p = well_formed();
        p.states[0].transition = Transition::Halt;
        expect_reject(&p, "send-after-halt");
    }

    #[test]
    fn mutant_premature_aggregator_read_rejected() {
        // Fold moved from post into the arrival-master block: reads the
        // aggregate before the vertex phase writes it.
        let mut p = well_formed();
        let fold = p.states[1].post.remove(0);
        p.states[1].master.push(fold);
        expect_reject(&p, "premature-aggregator-read");

        // Fold in post for a key the kernel never reduces.
        let mut p = well_formed();
        p.states[0].post.push(MInstr::FoldAgg {
            name: "s".into(),
            op: AssignOp::Add,
            agg_key: "s".into(),
        });
        expect_reject(&p, "premature-aggregator-read");
    }

    // -- further mutants beyond the required six --

    #[test]
    fn mutant_payload_arity_mismatch_rejected() {
        let mut p = well_formed();
        if let VInstr::SendToNbrs { payload, .. } =
            &mut p.states[0].vertex.as_mut().unwrap().body[0]
        {
            payload.clear();
        }
        expect_reject(&p, "payload-arity-mismatch");
    }

    #[test]
    fn mutant_unknown_message_tag_rejected() {
        let mut p = well_formed();
        if let VInstr::SendToNbrs { tag, .. } = &mut p.states[0].vertex.as_mut().unwrap().body[0] {
            *tag = 7;
        }
        expect_reject(&p, "unknown-message-tag");
    }

    #[test]
    fn mutant_unconsumed_message_rejected() {
        let mut p = well_formed();
        // The receiver forgets its handler: the sent tag is never consumed.
        p.states[1].vertex.as_mut().unwrap().recvs.clear();
        p.states[1].post.clear();
        expect_reject(&p, "unconsumed-message");
    }

    #[test]
    fn mutant_unknown_payload_field_rejected() {
        let mut p = well_formed();
        if let RecvAction::ReduceGlobal { value, .. } =
            &mut p.states[1].vertex.as_mut().unwrap().recvs[0].steps[0].action
        {
            *value = Expr::typed(ExprKind::Var(format!("{PAYLOAD_PREFIX}ghost")), Ty::Int);
        }
        expect_reject(&p, "unknown-payload-field");
    }

    #[test]
    fn mutant_payload_ref_outside_receive_rejected() {
        let mut p = well_formed();
        p.states[0]
            .vertex
            .as_mut()
            .unwrap()
            .body
            .push(VInstr::WriteOwn {
                prop: "x".into(),
                op: AssignOp::Assign,
                value: Expr::typed(ExprKind::Var(format!("{PAYLOAD_PREFIX}v")), Ty::Int),
            });
        expect_reject(&p, "payload-ref-outside-receive");
    }

    #[test]
    fn mutant_store_in_nbr_outside_a_node_id_layout_rejected() {
        let mut p = well_formed();
        let store = RecvStep {
            guard: None,
            action: RecvAction::StoreInNbr,
        };
        p.states[1].vertex.as_mut().unwrap().recvs[0]
            .steps
            .push(store);
        // Tag 0's one field is an `Int`, not a vertex id.
        expect_reject(&p, "store-in-nbr-layout");
    }

    #[test]
    fn mutant_unknown_global_rejected() {
        let mut p = well_formed();
        p.states[0].master.push(MInstr::Assign {
            name: "ghost".into(),
            op: AssignOp::Assign,
            value: Expr::typed(ExprKind::IntLit(1), Ty::Int),
        });
        expect_reject(&p, "unknown-global");
    }

    #[test]
    fn mutant_conflicting_reduction_rejected() {
        let mut p = well_formed();
        let k = p.states[1].vertex.as_mut().unwrap();
        k.body.push(VInstr::ReduceGlobal {
            name: "s".into(),
            op: AssignOp::Max,
            value: Expr::typed(ExprKind::IntLit(1), Ty::Int),
        });
        expect_reject(&p, "conflicting-reduction");
    }

    #[test]
    fn all_algorithm_sources_verify() {
        // The five paper algorithms plus avg_teen compile to verified PIR
        // under every optimization setting.
        let srcs = [
            include_str!("../../algorithms/gm/avg_teen.gm"),
            include_str!("../../algorithms/gm/pagerank.gm"),
            include_str!("../../algorithms/gm/conductance.gm"),
            include_str!("../../algorithms/gm/sssp.gm"),
            include_str!("../../algorithms/gm/bipartite_matching.gm"),
            include_str!("../../algorithms/gm/bc_approx.gm"),
        ];
        for src in srcs {
            for opts in [
                crate::CompileOptions::default(),
                crate::CompileOptions::unoptimized(),
            ] {
                let compiled = crate::compile(src, &opts).expect("compiles");
                verify(&compiled.program).unwrap_or_else(|e| {
                    panic!(
                        "verifier rejects compiled algorithm:\n{e}\n{}",
                        compiled.program
                    )
                });
            }
        }
    }
}
