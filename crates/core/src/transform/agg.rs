//! Aggregate-expression desugaring.
//!
//! Rewrites `Sum`/`Product`/`Count`/`Max`/`Min`/`Avg`/`Exist`/`All`
//! expressions into explicit accumulation loops, which the later passes
//! (dissection, edge flipping) then shape into Pregel-canonical form. A
//! `While` condition containing an aggregate is re-evaluated at the end of
//! every iteration through a fresh condition variable, and a `Foreach`
//! filter containing one becomes an `If` around the loop body.

use crate::ast::*;
use crate::astutil::{contains_agg, NameGen};
use crate::sema::ProcInfo;
use crate::types::Ty;

/// Desugars every aggregate in `proc`. Returns whether anything changed.
///
/// Relies on the type annotations of the most recent sema run; nested
/// aggregates are handled by running to a fixpoint.
pub fn desugar_aggregates(proc: &mut Procedure, _info: &ProcInfo) -> bool {
    let mut names = NameGen::for_procedure(proc);
    let mut changed_any = false;
    loop {
        let mut changed = false;
        process_block(&mut proc.body, &mut names, &mut changed);
        if !changed {
            break;
        }
        changed_any = true;
        // New nodes (accumulator loops) may contain aggregates moved from
        // inner positions; re-typing happens in the driver after fixpoint.
    }
    changed_any
}

fn process_block(block: &mut Block, names: &mut NameGen, changed: &mut bool) {
    let stmts = std::mem::take(&mut block.stmts);
    for mut stmt in stmts {
        // A `Foreach` filter holding an aggregate becomes an `If` around
        // the body, whose condition is hoisted like any other below.
        if let StmtKind::Foreach(f) = &mut stmt.kind {
            if let Some(cond) = f.filter.take_if(|c| contains_agg(c)) {
                let then_branch = std::mem::take(&mut f.body);
                f.body.stmts.push(Stmt::synth(StmtKind::If {
                    cond,
                    then_branch,
                    else_branch: None,
                }));
                *changed = true;
            }
        }
        // Recurse into nested structures first.
        match &mut stmt.kind {
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                process_block(then_branch, names, changed);
                if let Some(eb) = else_branch {
                    process_block(eb, names, changed);
                }
            }
            StmtKind::While { body, .. } => process_block(body, names, changed),
            StmtKind::Foreach(f) => process_block(&mut f.body, names, changed),
            StmtKind::InBfs(b) => {
                process_block(&mut b.body, names, changed);
                if let Some(rb) = &mut b.reverse_body {
                    process_block(rb, names, changed);
                }
            }
            StmtKind::Block(b) => process_block(b, names, changed),
            _ => {}
        }

        // While with aggregates in the condition: evaluate before the loop
        // and re-evaluate at the end of each iteration.
        let while_with_agg = matches!(
            &stmt.kind,
            StmtKind::While { cond, do_while: false, .. } if contains_agg(cond)
        );
        if while_with_agg {
            let (cond, mut body) = match stmt.kind {
                StmtKind::While { cond, body, .. } => (cond, body),
                _ => unreachable!("checked above"),
            };
            *changed = true;
            let wvar = names.fresh("_w");
            block.stmts.push(Stmt::synth(StmtKind::VarDecl {
                ty: Ty::Bool,
                name: wvar.clone(),
                init: Some(Expr::bool(false)),
            }));
            // Pre-loop evaluation.
            let mut pre_cond = cond.clone();
            hoist_expr(&mut pre_cond, names, &mut block.stmts, changed);
            block.stmts.push(Stmt::synth(StmtKind::Assign {
                target: Target::Scalar(wvar.clone()),
                op: AssignOp::Assign,
                value: pre_cond,
            }));
            // End-of-body re-evaluation.
            let mut post_cond = cond;
            let mut tail = Vec::new();
            hoist_expr(&mut post_cond, names, &mut tail, changed);
            tail.push(Stmt::synth(StmtKind::Assign {
                target: Target::Scalar(wvar.clone()),
                op: AssignOp::Assign,
                value: post_cond,
            }));
            body.stmts.extend(tail);
            block.stmts.push(Stmt::synth(StmtKind::While {
                cond: Expr::typed(ExprKind::Var(wvar), Ty::Bool),
                body,
                do_while: false,
            }));
            continue;
        }

        // Ordinary statements: hoist aggregates out of their expressions.
        match &mut stmt.kind {
            StmtKind::VarDecl { init: Some(e), .. }
            | StmtKind::Assign { value: e, .. }
            | StmtKind::Return(Some(e)) => {
                hoist_expr(e, names, &mut block.stmts, changed);
            }
            StmtKind::If { cond, .. } => {
                hoist_expr(cond, names, &mut block.stmts, changed);
            }
            StmtKind::While {
                cond,
                do_while: true,
                ..
            } => {
                // Do-While conditions with aggregates are rejected later by
                // the canonical check; hoisting would change semantics.
                let _ = cond;
            }
            _ => {}
        }
        block.stmts.push(stmt);
    }
}

/// Replaces aggregate sub-expressions of `e` with accumulator variables,
/// appending the accumulation statements to `out`. Aggregates nested in
/// one move into its loop, for the next round of the fixpoint.
fn hoist_expr(e: &mut Expr, names: &mut NameGen, out: &mut Vec<Stmt>, changed: &mut bool) {
    e.visit_mut(&mut |x| {
        if let ExprKind::Agg(_) = x.kind {
            let ExprKind::Agg(agg) = std::mem::replace(&mut x.kind, ExprKind::Nil) else {
                unreachable!("checked above")
            };
            *changed = true;
            *x = lower_agg(*agg, x.ty.clone(), names, out);
        }
    });
}

/// Emits `T _ag = identity; Foreach (it: src)(filter) { _ag op= body; }`
/// and returns the expression standing in for the aggregate.
fn lower_agg(
    agg: AggExpr,
    result_ty: Option<Ty>,
    names: &mut NameGen,
    out: &mut Vec<Stmt>,
) -> Expr {
    let result_ty = result_ty.unwrap_or(Ty::Int);
    match agg.kind {
        AggKind::Sum | AggKind::Product | AggKind::Max | AggKind::Min => {
            let acc = names.fresh("_ag");
            let body = agg.body.expect("value aggregate has a body");
            let acc_ty = body.ty.clone().unwrap_or(result_ty.clone());
            let (identity, op): (Expr, AssignOp) = match agg.kind {
                AggKind::Sum => (zero_of(&acc_ty), AssignOp::Add),
                AggKind::Product => (one_of(&acc_ty), AssignOp::Mul),
                AggKind::Max => (
                    Expr::typed(ExprKind::Inf { negative: true }, acc_ty.clone()),
                    AssignOp::Max,
                ),
                AggKind::Min => (
                    Expr::typed(ExprKind::Inf { negative: false }, acc_ty.clone()),
                    AssignOp::Min,
                ),
                _ => unreachable!("matched above"),
            };
            out.push(Stmt::synth(StmtKind::VarDecl {
                ty: acc_ty.clone(),
                name: acc.clone(),
                init: Some(identity),
            }));
            out.push(accumulate_loop(
                &agg.iter, agg.source, agg.filter, &acc, op, body,
            ));
            Expr::typed(ExprKind::Var(acc), acc_ty)
        }
        AggKind::Count => {
            let acc = names.fresh("_ag");
            out.push(Stmt::synth(StmtKind::VarDecl {
                ty: Ty::Int,
                name: acc.clone(),
                init: Some(Expr::typed(ExprKind::IntLit(0), Ty::Int)),
            }));
            out.push(accumulate_loop(
                &agg.iter,
                agg.source,
                agg.filter,
                &acc,
                AssignOp::Add,
                Expr::typed(ExprKind::IntLit(1), Ty::Int),
            ));
            Expr::typed(ExprKind::Var(acc), Ty::Int)
        }
        AggKind::Exist | AggKind::All => {
            let acc = names.fresh("_ag");
            let is_exist = agg.kind == AggKind::Exist;
            out.push(Stmt::synth(StmtKind::VarDecl {
                ty: Ty::Bool,
                name: acc.clone(),
                init: Some(Expr::typed(ExprKind::BoolLit(!is_exist), Ty::Bool)),
            }));
            let cond = agg
                .body
                .unwrap_or_else(|| Expr::typed(ExprKind::BoolLit(true), Ty::Bool));
            let op = if is_exist {
                AssignOp::Or
            } else {
                AssignOp::And
            };
            out.push(accumulate_loop(
                &agg.iter, agg.source, agg.filter, &acc, op, cond,
            ));
            Expr::typed(ExprKind::Var(acc), Ty::Bool)
        }
        AggKind::Avg => {
            let sum = names.fresh("_ag");
            let cnt = names.fresh("_ag");
            let body = agg.body.expect("Avg has a body");
            out.push(Stmt::synth(StmtKind::VarDecl {
                ty: Ty::Double,
                name: sum.clone(),
                init: Some(Expr::typed(ExprKind::FloatLit(0.0), Ty::Double)),
            }));
            out.push(Stmt::synth(StmtKind::VarDecl {
                ty: Ty::Int,
                name: cnt.clone(),
                init: Some(Expr::typed(ExprKind::IntLit(0), Ty::Int)),
            }));
            let loop_body = vec![
                Stmt::synth(StmtKind::Assign {
                    target: Target::Scalar(sum.clone()),
                    op: AssignOp::Add,
                    value: body,
                }),
                Stmt::synth(StmtKind::Assign {
                    target: Target::Scalar(cnt.clone()),
                    op: AssignOp::Add,
                    value: Expr::typed(ExprKind::IntLit(1), Ty::Int),
                }),
            ];
            out.push(Stmt::synth(StmtKind::Foreach(Box::new(ForeachStmt {
                iter: agg.iter,
                source: agg.source,
                filter: agg.filter,
                body: Block::of(loop_body),
                parallel: true,
            }))));
            // (_cnt == 0) ? 0.0 : _sum / _cnt
            Expr::typed(
                ExprKind::Ternary {
                    cond: Box::new(Expr::typed(
                        ExprKind::Binary {
                            op: BinOp::Eq,
                            lhs: Box::new(Expr::typed(ExprKind::Var(cnt.clone()), Ty::Int)),
                            rhs: Box::new(Expr::typed(ExprKind::IntLit(0), Ty::Int)),
                        },
                        Ty::Bool,
                    )),
                    then_val: Box::new(Expr::typed(ExprKind::FloatLit(0.0), Ty::Double)),
                    else_val: Box::new(Expr::typed(
                        ExprKind::Binary {
                            op: BinOp::Div,
                            lhs: Box::new(Expr::typed(ExprKind::Var(sum), Ty::Double)),
                            rhs: Box::new(Expr::typed(ExprKind::Var(cnt), Ty::Int)),
                        },
                        Ty::Double,
                    )),
                },
                Ty::Double,
            )
        }
    }
}

fn accumulate_loop(
    iter: &str,
    source: IterSource,
    filter: Option<Expr>,
    acc: &str,
    op: AssignOp,
    body: Expr,
) -> Stmt {
    Stmt::synth(StmtKind::Foreach(Box::new(ForeachStmt {
        iter: iter.to_owned(),
        source,
        filter,
        body: Block::of(vec![Stmt::synth(StmtKind::Assign {
            target: Target::Scalar(acc.to_owned()),
            op,
            value: body,
        })]),
        parallel: true,
    })))
}

fn zero_of(ty: &Ty) -> Expr {
    if ty.is_float() {
        Expr::typed(ExprKind::FloatLit(0.0), ty.clone())
    } else {
        Expr::typed(ExprKind::IntLit(0), ty.clone())
    }
}

fn one_of(ty: &Ty) -> Expr {
    if ty.is_float() {
        Expr::typed(ExprKind::FloatLit(1.0), ty.clone())
    } else {
        Expr::typed(ExprKind::IntLit(1), ty.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::pretty::program_to_string;
    use crate::seqinterp::{run_procedure, ArgValue};
    use crate::value::Value;
    use std::collections::HashMap;

    /// Desugars and checks that the output still typechecks and contains no
    /// aggregate; returns (program, printed form).
    fn desugared(src: &str) -> (Program, String) {
        let mut p = parse(src).unwrap();
        let infos = crate::sema::check(&mut p).unwrap();
        let changed = desugar_aggregates(&mut p.procedures[0], &infos[0]);
        assert!(changed);
        crate::sema::check(&mut p).unwrap();
        let s = program_to_string(&p);
        assert!(
            !s.contains("Sum(") && !s.contains("Count(") && !s.contains("Exist("),
            "{s}"
        );
        (p, s)
    }

    fn run_both(src: &str, g: &gm_graph::Graph, args: &HashMap<String, ArgValue>) {
        let mut orig = parse(src).unwrap();
        let infos = crate::sema::check(&mut orig).unwrap();
        let r1 = run_procedure(g, &orig.procedures[0], &infos[0], args, 0).unwrap();

        let (mut low, _) = desugared(src);
        let infos2 = crate::sema::check(&mut low).unwrap();
        let r2 = run_procedure(g, &low.procedures[0], &infos2[0], args, 0).unwrap();
        assert_eq!(r1.ret, r2.ret);
    }

    #[test]
    fn sequential_sum_with_filter() {
        let src = "Procedure f(G: Graph) : Int {
            Int d = Sum(u: G.Nodes)[u.Degree() > 0]{u.Degree()};
            Return d;
        }";
        let (_, s) = desugared(src);
        assert!(s.contains("_ag1"), "{s}");
        run_both(src, &gm_graph::gen::star(4), &HashMap::new());
    }

    #[test]
    fn nested_aggregates_fully_lower() {
        let src = "Procedure f(G: Graph, m: N_P<Bool>) : Int {
            Int cross = Sum(u: G.Nodes)[u.m]{Count(j: u.Nbrs)(!j.m)};
            Return cross;
        }";
        let (_, s) = desugared(src);
        // Two accumulators, the inner one inside the outer loop.
        assert!(s.matches("Foreach").count() >= 2, "{s}");
        let mut props = vec![Value::Bool(false); 5];
        props[0] = Value::Bool(true);
        run_both(
            src,
            &gm_graph::gen::star(4),
            &HashMap::from([("m".to_owned(), ArgValue::NodeProp(props))]),
        );
    }

    #[test]
    fn exist_in_while_condition_reevaluates() {
        let src = "Procedure f(G: Graph, v: N_P<Bool>) : Int {
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
        }";
        let (_, s) = desugared(src);
        // Condition variable assigned twice: before the loop and at the end
        // of the body.
        assert!(s.contains("_w"), "{s}");
        run_both(src, &gm_graph::gen::path(5), &HashMap::new());
    }

    #[test]
    fn avg_lowering() {
        let src = "Procedure f(G: Graph) : Double {
            Double a = Avg(u: G.Nodes){u.Degree()};
            Return a;
        }";
        run_both(src, &gm_graph::gen::star(4), &HashMap::new());
        // star(4): degrees 4,0,0,0,0 → avg 0.8
        let (mut low, _) = desugared(src);
        let infos = crate::sema::check(&mut low).unwrap();
        let r = run_procedure(
            &gm_graph::gen::star(4),
            &low.procedures[0],
            &infos[0],
            &HashMap::new(),
            0,
        )
        .unwrap();
        assert_eq!(r.ret, Some(Value::Double(0.8)));
    }

    #[test]
    fn min_max_identities() {
        let src = "Procedure f(G: Graph) : Int {
            Int mx = Max(u: G.Nodes){u.Degree()};
            Int mn = Min(u: G.Nodes){u.Degree()};
            Return mx - mn;
        }";
        run_both(src, &gm_graph::gen::star(3), &HashMap::new());
    }

    #[test]
    fn neighborhood_aggregate_inside_parallel_loop() {
        let src = "Procedure f(G: Graph, x: N_P<Int>, s: N_P<Int>) : Int {
            Foreach (n: G.Nodes) {
                n.x = 2;
            }
            Foreach (n: G.Nodes) {
                n.s = Sum(w: n.InNbrs){w.x};
            }
            Return Sum(n: G.Nodes){n.s};
        }";
        run_both(src, &gm_graph::gen::cycle(5), &HashMap::new());
    }
}
