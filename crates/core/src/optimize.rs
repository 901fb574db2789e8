//! The §4.2 performance optimizations: State Merging and Intra-Loop State
//! Merging. Both reduce the number of timesteps (supersteps) a generated
//! program takes; the Pregel framework pays a global synchronization
//! barrier per timestep, so fewer states means less overhead.

use crate::ast::{AssignOp, Expr, ExprKind};
use crate::pir::*;
use crate::report::{Step, TransformReport};
use std::collections::HashSet;

/// Runs both optimizations (honoring the flags) and compacts unreachable
/// states afterwards, verifying the PIR after every pass (translation
/// validation). Between the merge passes the verifier tolerates
/// unreachable states — a merged-away state lingers with a neutralized
/// transition until `compact` removes it — and goes fully strict after
/// `compact`.
///
/// # Errors
///
/// The verifier's diagnostics, prefixed with the pass that broke the
/// program.
pub fn optimize(
    program: &mut PregelProgram,
    state_merging: bool,
    intra_loop: bool,
    report: &mut TransformReport,
) -> Result<(), crate::diag::Diagnostics> {
    use crate::verify::{verify_stage, VerifyOptions};
    let relaxed = VerifyOptions::mid_optimization();
    if state_merging && merge_states(program) {
        report.record(Step::StateMerging);
        verify_stage(program, "merge_states", &relaxed)?;
    }
    if intra_loop && intra_loop_merge(program) {
        report.record(Step::IntraLoopMerge);
        verify_stage(program, "intra_loop_merge", &relaxed)?;
    }
    compact(program);
    verify_stage(program, "compact", &VerifyOptions::strict())
}

// ---- State Merging ----

/// Merges consecutive vertex states `A → B` when `B` can execute in the
/// same timestep (no message boundary and no master-side dependency).
/// Returns whether anything merged.
pub fn merge_states(program: &mut PregelProgram) -> bool {
    let mut changed_any = false;
    while let Some((a, b)) = find_mergeable(program) {
        do_merge(program, a, b);
        changed_any = true;
    }
    changed_any
}

fn find_mergeable(program: &PregelProgram) -> Option<(StateId, StateId)> {
    let indeg = in_degrees(program);
    for (a_id, a) in program.states.iter().enumerate() {
        let Transition::Goto(b_id) = a.transition else {
            continue;
        };
        if b_id == a_id {
            continue;
        }
        let b = &program.states[b_id];
        let (Some(ka), Some(kb)) = (&a.vertex, &b.vertex) else {
            continue;
        };
        if indeg[b_id] != 1 {
            continue;
        }
        // Message boundary: if A sends, B's receive handlers consume those
        // messages one superstep later — cannot merge.
        if any_instr(&ka.body, is_send) || !kb.recvs.is_empty() {
            continue;
        }
        // A deferred write in A applies at A's kernel end; fusing B's code
        // in front of that application would change what B reads.
        if any_instr(&ka.body, is_defer) {
            continue;
        }
        // Master-side dependencies.
        let fold_targets: HashSet<&str> = a
            .post
            .iter()
            .filter_map(|m| match m {
                MInstr::FoldAgg { name, .. } => Some(name.as_str()),
                _ => None,
            })
            .collect();
        let b_master_writes = master_writes(&b.master);
        let b_master_reads = master_reads(&b.master);
        if b_master_writes
            .iter()
            .any(|w| ka.reads_globals.iter().any(|r| r == w))
        {
            continue;
        }
        if b_master_writes
            .iter()
            .chain(b_master_reads.iter())
            .any(|n| fold_targets.contains(n.as_str()))
        {
            continue;
        }
        return Some((a_id, b_id));
    }
    None
}

fn do_merge(program: &mut PregelProgram, a_id: StateId, b_id: StateId) {
    let b = program.states[b_id].clone();
    let kb = b.vertex.expect("checked");
    let a = &mut program.states[a_id];
    let ka = a.vertex.as_mut().expect("checked");

    // Guard each half with its own filter.
    let a_body = wrap_filter(ka.filter.take(), std::mem::take(&mut ka.body));
    let b_body = wrap_filter(kb.filter, kb.body);
    ka.body = a_body.into_iter().chain(b_body).collect();
    ka.reads_globals.extend(kb.reads_globals);
    ka.reads_globals.sort();
    ka.reads_globals.dedup();

    a.master.extend(b.master);
    // Recompute folds: union (keys are distinct global names).
    let mut post = std::mem::take(&mut a.post);
    for f in b.post {
        let dup = matches!(
            (&f, &post[..]),
            (MInstr::FoldAgg { name, .. }, _) if post.iter().any(
                |p| matches!(p, MInstr::FoldAgg { name: n2, .. } if n2 == name)
            )
        );
        if !dup {
            post.push(f);
        }
    }
    a.post = post;
    a.transition = b.transition;
    // b becomes unreachable; neutralize it completely (its master/post
    // now live in a — a stale copy here would fold aggregates no kernel
    // reduces) and let compact() remove it.
    program.states[b_id].transition = Transition::Halt;
    program.states[b_id].vertex = None;
    program.states[b_id].master.clear();
    program.states[b_id].post.clear();
}

fn wrap_filter(filter: Option<Expr>, body: Vec<VInstr>) -> Vec<VInstr> {
    match filter {
        Some(cond) if !body.is_empty() => vec![VInstr::If {
            cond,
            then_branch: body,
            else_branch: vec![],
        }],
        _ => body,
    }
}

// ---- Intra-Loop State Merging ----

/// Merges the last vertex state of a `While` body with the first vertex
/// state of the *next* iteration, so a steady-state iteration costs
/// `n - 1` timesteps instead of `n` (one for the common two-state loop).
/// Dangling messages sent by the speculative final execution are dropped by
/// the runtime, as in the paper. Returns whether anything merged.
pub fn intra_loop_merge(program: &mut PregelProgram) -> bool {
    let mut changed = false;
    let heads: Vec<StateId> = program
        .states
        .iter()
        .enumerate()
        .filter(|(_, s)| matches!(s.transition, Transition::Branch { .. }))
        .map(|(i, _)| i)
        .collect();
    for head in heads {
        changed |= try_merge_loop(program, head);
    }
    changed
}

/// Attempts the merge for the loop rooted at junction `head`.
fn try_merge_loop(program: &mut PregelProgram, head: StateId) -> bool {
    let (cond, body_entry, exit) = match &program.states[head].transition {
        Transition::Branch {
            cond,
            then_to,
            else_to,
        } => (cond.clone(), *then_to, *else_to),
        _ => return false,
    };

    // Walk the body chain; collect vertex states and trailing master code.
    let mut chain: Vec<StateId> = Vec::new();
    let mut cur = body_entry;
    loop {
        if cur == head {
            break; // closed the loop
        }
        if chain.contains(&cur) || chain.len() > program.states.len() {
            return false; // not a simple chain
        }
        chain.push(cur);
        match &program.states[cur].transition {
            Transition::Goto(next) => cur = *next,
            _ => return false, // nested control flow — bail
        }
    }
    let vertex_states: Vec<StateId> = chain
        .iter()
        .copied()
        .filter(|&s| program.states[s].vertex.is_some())
        .collect();
    if vertex_states.len() < 2 {
        return false;
    }
    let b1 = vertex_states[0];
    let vn = *vertex_states.last().expect("nonempty");
    if chain.first() != Some(&b1) {
        return false; // master-only state before the first vertex state
    }
    // Only trailing master-only states after Vn are allowed.
    let vn_pos = chain.iter().position(|&s| s == vn).expect("in chain");
    if chain[..vn_pos]
        .iter()
        .any(|&s| program.states[s].vertex.is_none())
    {
        return false;
    }
    let trailing: Vec<StateId> = chain[vn_pos + 1..].to_vec();

    // B1 must be re-executable speculatively: receive nothing, reduce no
    // globals, and write only loop-private properties.
    let kb1 = program.states[b1].vertex.as_ref().expect("vertex");
    if !kb1.recvs.is_empty() {
        return false;
    }
    // A still-deferred write in Vn (or B1) would apply after the fused
    // B1-half has already read the property — reject.
    let kvn = program.states[vn].vertex.as_ref().expect("vertex");
    if any_instr(&kvn.body, is_defer) || any_instr(&kb1.body, is_defer) {
        return false;
    }
    let outside: HashSet<StateId> = (0..program.states.len())
        .filter(|s| !chain.contains(s) && *s != head)
        .collect();
    let props_read_outside = props_read_in_states(program, &outside);
    if !speculation_safe(&kb1.body, &props_read_outside) {
        return false;
    }

    // SEQ 0 (B1.master) moves before SEQ N (trailing master code): check
    // commutation and that SEQ-0 writes are loop-private.
    let seq0_writes = master_writes(&program.states[b1].master);
    let seqn: Vec<MInstr> = trailing
        .iter()
        .flat_map(|&s| program.states[s].master.clone())
        .collect();
    let seqn_reads = master_reads(&seqn);
    let seqn_writes = master_writes(&seqn);
    let vn_fold_targets: Vec<String> = program.states[vn]
        .post
        .iter()
        .filter_map(|m| match m {
            MInstr::FoldAgg { name, .. } => Some(name.clone()),
            _ => None,
        })
        .collect();
    // Exception: the reset-before-reduce pattern. A SEQ-0 write of a
    // constant to a global that Vn's kernel folds (e.g. PageRank's
    // `diff = 0` before the `diff += ...` reduction) commutes with SEQ N:
    // the reset lands before the vertex phase and the fold lands after,
    // with the same constant every iteration.
    let const_reset = |g: &String| -> bool {
        vn_fold_targets.contains(g) && writes_are_const_assign(&program.states[b1].master, g)
    };
    if seq0_writes
        .iter()
        .any(|w| (seqn_reads.contains(w) || seqn_writes.contains(w)) && !const_reset(w))
    {
        return false;
    }
    for &v in &vertex_states[1..] {
        let k = program.states[v].vertex.as_ref().expect("vertex");
        if seq0_writes.iter().any(|w| k.reads_globals.contains(w)) {
            return false;
        }
    }
    // Conversely, B1's speculative re-execution moves *before* SEQ N and
    // before Vn's aggregate folds. Anything B1 reads that SEQ N writes or
    // Vn folds would be stale (e.g. a level counter advanced at the end of
    // each iteration), so reject those loops.
    let b1_master_reads = master_reads(&program.states[b1].master);
    let kb1 = program.states[b1].vertex.as_ref().expect("vertex");
    let b1_reads = kb1.reads_globals.iter().chain(b1_master_reads.iter());
    for r in b1_reads {
        if seqn_writes.contains(r) || vn_fold_targets.contains(r) {
            return false;
        }
    }

    // Build the merged state in place of Vn.
    let b1_state = program.states[b1].clone();
    let kb1 = b1_state.vertex.expect("vertex");
    let next_after_b1 = if vertex_states.len() == 2 {
        vn // self-loop
    } else {
        // The chain state following B1.
        chain[1]
    };
    {
        let vn_state = &mut program.states[vn];
        let kvn = vn_state.vertex.as_mut().expect("vertex");
        let vn_body = wrap_filter(kvn.filter.take(), std::mem::take(&mut kvn.body));
        let b1_body = wrap_filter(kb1.filter, kb1.body);
        kvn.body = vn_body.into_iter().chain(b1_body).collect();
        kvn.reads_globals.extend(kb1.reads_globals);
        kvn.reads_globals.sort();
        kvn.reads_globals.dedup();
        vn_state.master.extend(b1_state.master);
        vn_state.post.extend(seqn);
        vn_state.transition = Transition::Branch {
            cond,
            then_to: next_after_b1,
            else_to: exit,
        };
    }
    true
}

/// Whether B1's body can run one extra (speculative) time: sends are fine
/// (dangling messages are dropped), per-vertex locals are fine, own writes
/// are fine only to properties never read outside the loop.
fn speculation_safe(body: &[VInstr], props_read_outside: &HashSet<String>) -> bool {
    !any_instr(body, |i| match i {
        VInstr::WriteOwn { prop, .. } => props_read_outside.contains(prop),
        VInstr::ReduceGlobal { .. } => true,
        _ => false,
    })
}

/// Properties read by the kernels (and master code cannot read props) of
/// the given states.
fn props_read_in_states(program: &PregelProgram, states: &HashSet<StateId>) -> HashSet<String> {
    let mut out = HashSet::new();
    for &s in states {
        if let Some(k) = &program.states[s].vertex {
            k.visit_exprs(&mut |e| {
                e.visit(&mut |x| {
                    if let ExprKind::Prop { prop, .. } = &x.kind {
                        out.insert(prop.clone());
                    }
                })
            });
        }
    }
    out
}

// ---- shared helpers ----

/// Whether every write to `g` in `instrs` is a plain assignment of a
/// constant expression (no variable or call reads).
fn writes_are_const_assign(instrs: &[MInstr], g: &str) -> bool {
    let is_const = |e: &Expr| {
        let mut constant = true;
        e.visit(&mut |x| {
            constant &= matches!(
                x.kind,
                ExprKind::IntLit(_)
                    | ExprKind::FloatLit(_)
                    | ExprKind::BoolLit(_)
                    | ExprKind::Inf { .. }
                    | ExprKind::Nil
                    | ExprKind::Unary { .. }
                    | ExprKind::Binary { .. }
            )
        });
        constant
    };
    let mut ok = true;
    MInstr::visit(instrs, &mut |i| {
        ok &= match i {
            MInstr::Assign { name, op, value } if name == g => {
                *op == AssignOp::Assign && is_const(value)
            }
            MInstr::FoldAgg { name, .. } => name != g,
            _ => true,
        }
    });
    ok
}

/// Whether any instruction of `body`, `If` branches included, satisfies
/// `pred`.
fn any_instr(body: &[VInstr], pred: impl Fn(&VInstr) -> bool) -> bool {
    let mut hit = false;
    VInstr::visit(body, &mut |i| hit |= pred(i));
    hit
}

fn is_send(i: &VInstr) -> bool {
    matches!(
        i,
        VInstr::SendToNbrs { .. } | VInstr::SendToInNbrs { .. } | VInstr::SendTo { .. }
    )
}

/// A (still) deferred own-write.
fn is_defer(i: &VInstr) -> bool {
    matches!(
        i,
        VInstr::WriteOwn {
            op: AssignOp::Defer,
            ..
        }
    )
}

/// The globals a master block assigns or folds into.
fn master_writes(instrs: &[MInstr]) -> Vec<String> {
    let mut out = Vec::new();
    MInstr::visit(instrs, &mut |i| {
        if let MInstr::Assign { name, .. } | MInstr::FoldAgg { name, .. } = i {
            out.push(name.clone());
        }
    });
    out
}

/// The globals a master block reads: its expressions' variables, plus the
/// targets of reductions and folds.
fn master_reads(instrs: &[MInstr]) -> Vec<String> {
    let mut out = Vec::new();
    let vars = |e: &Expr, out: &mut Vec<String>| {
        e.visit(&mut |x| {
            if let ExprKind::Var(n) = &x.kind {
                out.push(n.clone());
            }
        })
    };
    MInstr::visit(instrs, &mut |i| match i {
        MInstr::Assign { name, op, value } => {
            if op.is_reduction() {
                out.push(name.clone());
            }
            vars(value, &mut out);
        }
        MInstr::FoldAgg { name, .. } => out.push(name.clone()),
        MInstr::If { cond: e, .. } | MInstr::SetReturn(Some(e)) => vars(e, &mut out),
        MInstr::SetReturn(None) => {}
    });
    out
}

fn in_degrees(program: &PregelProgram) -> Vec<usize> {
    let mut deg = vec![0usize; program.states.len()];
    deg[0] += 1; // entry
    for s in &program.states {
        match &s.transition {
            Transition::Goto(t) => deg[*t] += 1,
            Transition::Branch {
                then_to, else_to, ..
            } => {
                deg[*then_to] += 1;
                deg[*else_to] += 1;
            }
            Transition::Halt => {}
        }
    }
    deg
}

/// Removes unreachable states and renumbers ids densely.
pub fn compact(program: &mut PregelProgram) {
    let n = program.states.len();
    let mut reachable = vec![false; n];
    let mut stack = vec![0usize];
    while let Some(s) = stack.pop() {
        if reachable[s] {
            continue;
        }
        reachable[s] = true;
        match &program.states[s].transition {
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
    let mut remap = vec![usize::MAX; n];
    let mut next = 0;
    for i in 0..n {
        if reachable[i] {
            remap[i] = next;
            next += 1;
        }
    }
    let old = std::mem::take(&mut program.states);
    for (i, mut s) in old.into_iter().enumerate() {
        if !reachable[i] {
            continue;
        }
        match &mut s.transition {
            Transition::Goto(t) => *t = remap[*t],
            Transition::Branch {
                then_to, else_to, ..
            } => {
                *then_to = remap[*then_to];
                *else_to = remap[*else_to];
            }
            Transition::Halt => {}
        }
        program.states.push(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::report::TransformReport;
    use crate::translate::translate;

    fn compiled(src: &str, state_merging: bool, intra: bool) -> PregelProgram {
        let mut p = parse(src).unwrap();
        let infos = crate::sema::check(&mut p).unwrap();
        let mut report = TransformReport::new();
        let mut prog = translate(&p.procedures[0], &infos[0], &mut report).unwrap();
        optimize(&mut prog, state_merging, intra, &mut report).unwrap();
        prog
    }

    const TWO_LOOP_SRC: &str = "Procedure f(G: Graph, a: N_P<Int>, b: N_P<Int>) {
        Foreach (n: G.Nodes) {
            n.a = 0;
        }
        Foreach (n: G.Nodes)(n.a == 0) {
            n.b = 1;
        }
    }";

    #[test]
    fn consecutive_local_states_merge() {
        let unopt = compiled(TWO_LOOP_SRC, false, false);
        let opt = compiled(TWO_LOOP_SRC, true, false);
        assert_eq!(unopt.num_vertex_kernels(), 2);
        assert_eq!(opt.num_vertex_kernels(), 1, "{opt}");
    }

    #[test]
    fn send_boundary_blocks_merging() {
        let src = "Procedure f(G: Graph, a: N_P<Int>) {
            Foreach (n: G.Nodes) {
                Foreach (t: n.Nbrs) {
                    t.a += 1;
                }
            }
            Foreach (n: G.Nodes) {
                n.a += 1;
            }
        }";
        let opt = compiled(src, true, false);
        // Send state cannot merge with the recv-bearing state after it.
        assert_eq!(opt.num_vertex_kernels(), 2, "{opt}");
    }

    const LOOP_SRC: &str = "Procedure f(G: Graph, x: N_P<Int>, x2: N_P<Int>) {
        Int k = 0;
        While (k < 5) {
            Foreach (n: G.Nodes) {
                Foreach (t: n.Nbrs) {
                    t.x2 += n.x;
                }
            }
            Foreach (n: G.Nodes) {
                n.x = n.x2;
                n.x2 = 0;
            }
            k += 1;
        }
    }";

    #[test]
    fn intra_loop_merging_collapses_two_state_loop() {
        let unopt = compiled(LOOP_SRC, true, false);
        let opt = compiled(LOOP_SRC, true, true);
        // Before: send state + recv/update state per iteration. After: the
        // steady-state loop is a single self-looping state.
        let self_loop = opt.states.iter().enumerate().any(
            |(i, s)| matches!(s.transition, Transition::Branch { then_to, .. } if then_to == i),
        );
        assert!(self_loop, "expected a self-looping merged state:\n{opt}");
        assert!(opt.num_vertex_kernels() <= unopt.num_vertex_kernels());
    }

    #[test]
    fn compact_removes_unreachable() {
        let mut prog = compiled(TWO_LOOP_SRC, true, false);
        let before = prog.states.len();
        compact(&mut prog);
        assert!(prog.states.len() <= before);
        // Entry is preserved and all transitions are in range.
        for s in &prog.states {
            match s.transition {
                Transition::Goto(t) => assert!(t < prog.states.len()),
                Transition::Branch {
                    then_to, else_to, ..
                } => {
                    assert!(then_to < prog.states.len());
                    assert!(else_to < prog.states.len());
                }
                Transition::Halt => {}
            }
        }
    }

    #[test]
    fn reduction_loops_still_merge_when_reset_is_safe() {
        // The reset `_ag = False`-style master write rides into the merged
        // state; folds happen the following superstep.
        let src = "Procedure f(G: Graph, u: N_P<Bool>) : Bool {
            Foreach (n: G.Nodes) {
                n.u = True;
            }
            Bool any = False;
            Foreach (n: G.Nodes)(n.u) {
                any ||= True;
            }
            Return any;
        }";
        let opt = compiled(src, true, false);
        assert_eq!(opt.num_vertex_kernels(), 1, "{opt}");
    }
}
