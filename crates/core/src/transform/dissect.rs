//! Dissecting nested loops (§4.1).
//!
//! Two rewrites prepare pull-style nested loops for edge flipping:
//!
//! 1. **Scalar → temporary property.** An outer-loop scoped scalar that is
//!    modified inside an inner neighborhood loop becomes a per-vertex
//!    temporary property of the outer iterator (the paper's `_C` → `_tmp`
//!    example).
//! 2. **Loop splitting.** If an inner loop writes properties of the outer
//!    iterator but the outer loop contains other statements, the outer loop
//!    is split so the pull loop stands alone, ready for
//!    [`crate::transform::flip`].

use crate::ast::*;
use crate::astutil::{writes_in_block, NameGen, Place};
use crate::sema::ProcInfo;
use crate::types::Ty;
use crate::value::Value;

/// Applies both rewrites everywhere in `proc`. Returns whether anything
/// changed.
pub fn dissect_loops(proc: &mut Procedure, info: &ProcInfo) -> bool {
    let mut names = NameGen::for_procedure(proc);
    let mut changed = false;
    process_block(&mut proc.body, info, &mut names, &mut changed);
    changed
}

fn process_block(block: &mut Block, info: &ProcInfo, names: &mut NameGen, changed: &mut bool) {
    let stmts = std::mem::take(&mut block.stmts);
    for mut stmt in stmts {
        match &mut stmt.kind {
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                process_block(then_branch, info, names, changed);
                if let Some(eb) = else_branch {
                    process_block(eb, info, names, changed);
                }
            }
            StmtKind::While { body, .. } => process_block(body, info, names, changed),
            StmtKind::Block(b) => process_block(b, info, names, changed),
            _ => {}
        }

        let is_vertex_loop = matches!(
            &stmt.kind,
            StmtKind::Foreach(f)
                if f.parallel && matches!(f.source, IterSource::Nodes { .. })
        );
        if is_vertex_loop {
            let f = match stmt.kind {
                StmtKind::Foreach(f) => *f,
                _ => unreachable!("checked above"),
            };
            dissect_outer_loop(f, info, names, &mut block.stmts, changed);
        } else {
            block.stmts.push(stmt);
        }
    }
}

/// Rewrites one outer vertex loop, appending the result (possibly several
/// loops plus property declarations) to `out`.
fn dissect_outer_loop(
    mut f: ForeachStmt,
    _info: &ProcInfo,
    names: &mut NameGen,
    out: &mut Vec<Stmt>,
    changed: &mut bool,
) {
    // ---- rewrite 1: outer-scoped scalars written in inner loops ----
    let inner_written_scalars: Vec<(usize, String, Ty)> = f
        .body
        .stmts
        .iter()
        .enumerate()
        .filter_map(|(i, s)| match &s.kind {
            StmtKind::VarDecl { ty, name, .. } if ty.is_value() => {
                Some((i, name.clone(), ty.clone()))
            }
            _ => None,
        })
        .filter(|(_, name, _)| {
            // Written inside any inner Foreach of the body?
            f.body.stmts.iter().any(|s| match &s.kind {
                StmtKind::Foreach(inner) => writes_in_block(&inner.body)
                    .iter()
                    .any(|(p, _)| matches!(p, Place::Scalar(n) if n == name)),
                _ => false,
            })
        })
        .collect();

    for (_, scalar, ty) in &inner_written_scalars {
        *changed = true;
        let prop = names.fresh("_tp");
        // Node_Prop<T> _tp;  (before the loop)
        out.push(Stmt::synth(StmtKind::VarDecl {
            ty: Ty::NodeProp(Box::new(ty.clone())),
            name: prop.clone(),
            init: None,
        }));
        // Replace the declaration with an initializing assignment.
        for s in &mut f.body.stmts {
            if let StmtKind::VarDecl { name, init, .. } = &mut s.kind {
                if name == scalar {
                    let value = init.take().unwrap_or_else(|| default_expr(ty));
                    *s = Stmt::synth(StmtKind::Assign {
                        target: Target::Prop {
                            obj: f.iter.clone(),
                            prop: prop.clone(),
                        },
                        op: AssignOp::Assign,
                        value,
                    });
                }
            }
        }
        // Rewrite remaining references `scalar` → `iter._tp`. A plain
        // variable substitution cannot produce a property access, so this
        // uses a dedicated rewrite.
        replace_scalar_with_prop(&mut f.body, scalar, &f.iter, &prop);
    }

    // ---- rewrite 2: split so pull loops stand alone ----
    let needs_split =
        f.body.stmts.len() > 1 && f.body.stmts.iter().any(|s| is_pull_loop(s, &f.iter));
    if !needs_split {
        out.push(Stmt::synth(StmtKind::Foreach(Box::new(f))));
        return;
    }
    *changed = true;
    let mut run: Vec<Stmt> = Vec::new();
    let flush = |run: &mut Vec<Stmt>, out: &mut Vec<Stmt>, f: &ForeachStmt| {
        if !run.is_empty() {
            out.push(Stmt::synth(StmtKind::Foreach(Box::new(ForeachStmt {
                iter: f.iter.clone(),
                source: f.source.clone(),
                filter: f.filter.clone(),
                body: Block::of(std::mem::take(run)),
                parallel: true,
            }))));
        }
    };
    let stmts = std::mem::take(&mut f.body.stmts);
    for s in stmts {
        if is_pull_loop(&s, &f.iter) {
            flush(&mut run, out, &f);
            out.push(Stmt::synth(StmtKind::Foreach(Box::new(ForeachStmt {
                iter: f.iter.clone(),
                source: f.source.clone(),
                filter: f.filter.clone(),
                body: Block::of(vec![s]),
                parallel: true,
            }))));
        } else {
            run.push(s);
        }
    }
    flush(&mut run, out, &f);
}

/// An inner neighborhood loop that writes properties of the outer iterator
/// (i.e. would require message pulling if translated in place).
fn is_pull_loop(s: &Stmt, outer_iter: &str) -> bool {
    match &s.kind {
        StmtKind::Foreach(inner) if inner.source.is_neighborhood() => writes_in_block(&inner.body)
            .iter()
            .any(|(p, _)| matches!(p, Place::Prop { obj, .. } if obj == outer_iter)),
        _ => false,
    }
}

fn default_expr(ty: &Ty) -> Expr {
    match Value::default_for(ty) {
        Value::Int(v) => Expr::typed(ExprKind::IntLit(v), ty.clone()),
        Value::Double(v) => Expr::typed(ExprKind::FloatLit(v), ty.clone()),
        Value::Bool(v) => Expr::typed(ExprKind::BoolLit(v), ty.clone()),
        Value::Node(_) => Expr::typed(ExprKind::Nil, Ty::Node),
        Value::Edge(_) => Expr::typed(ExprKind::IntLit(0), Ty::Edge),
    }
}

/// Replaces reads/writes of scalar `name` with `obj._prop` in a block.
fn replace_scalar_with_prop(block: &mut Block, name: &str, obj: &str, prop: &str) {
    block.visit_mut(&mut |n| match n {
        NodeMut::Stmt(Stmt {
            kind: StmtKind::Assign { target, .. },
            ..
        }) if matches!(&*target, Target::Scalar(n) if n == name) => {
            *target = Target::Prop {
                obj: obj.to_owned(),
                prop: prop.to_owned(),
            };
            true
        }
        _ => true,
    });
    block.visit_mut(&mut |n| match n {
        NodeMut::Expr(e) if matches!(&e.kind, ExprKind::Var(v) if v == name) => {
            e.kind = ExprKind::Prop {
                obj: obj.to_owned(),
                prop: prop.to_owned(),
            };
            true
        }
        _ => true,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::pretty::program_to_string;
    use crate::seqinterp::{run_procedure, ArgValue};
    use crate::value::Value as V;
    use std::collections::HashMap;

    fn dissected(src: &str) -> (Program, String) {
        let mut p = parse(src).unwrap();
        let infos = crate::sema::check(&mut p).unwrap();
        let changed = dissect_loops(&mut p.procedures[0], &infos[0]);
        assert!(changed, "expected the pass to fire");
        crate::sema::check(&mut p).unwrap();
        let s = program_to_string(&p);
        (p, s)
    }

    const TEEN_SRC: &str = "Procedure f(G: Graph, age: N_P<Int>, cnt: N_P<Int>) {
        Foreach (n: G.Nodes) {
            Int c = 0;
            Foreach (t: n.InNbrs)(t.age >= 13 && t.age < 20) {
                c += 1;
            }
            n.cnt = c;
        }
    }";

    #[test]
    fn scalar_becomes_property_and_loop_splits() {
        let (_, s) = dissected(TEEN_SRC);
        // Temp property declared before the loops.
        assert!(s.contains("Node_Prop<Int> _tp1;"), "{s}");
        // Three outer loops after splitting.
        assert_eq!(s.matches("Foreach (").count(), 4, "{s}"); // 3 outer + 1 inner
        assert!(s.contains("._tp1 = 0"), "{s}");
        assert!(s.contains("._tp1 += 1"), "{s}");
        assert!(s.contains(".cnt = "), "{s}");
    }

    #[test]
    fn dissection_preserves_semantics() {
        let g = {
            let mut b = gm_graph::GraphBuilder::new(4);
            b.extend([(1, 0), (2, 0), (3, 0), (2, 3)]);
            b.build()
        };
        let ages = vec![V::Int(30), V::Int(15), V::Int(40), V::Int(13)];
        let args = HashMap::from([("age".to_owned(), ArgValue::NodeProp(ages))]);

        let mut orig = parse(TEEN_SRC).unwrap();
        let infos = crate::sema::check(&mut orig).unwrap();
        let r1 = run_procedure(&g, &orig.procedures[0], &infos[0], &args, 0).unwrap();

        let (mut dis, _) = dissected(TEEN_SRC);
        let infos2 = crate::sema::check(&mut dis).unwrap();
        let r2 = run_procedure(&g, &dis.procedures[0], &infos2[0], &args, 0).unwrap();
        assert_eq!(r1.node_props["cnt"], r2.node_props["cnt"]);
        assert_eq!(r2.node_props["cnt"][0], V::Int(2)); // teens 1 and 3 point at 0
    }

    #[test]
    fn push_loops_are_not_split() {
        let src = "Procedure f(G: Graph, x: N_P<Int>) {
            Foreach (n: G.Nodes) {
                Foreach (t: n.Nbrs) {
                    t.x += 1;
                }
            }
        }";
        let mut p = parse(src).unwrap();
        let infos = crate::sema::check(&mut p).unwrap();
        assert!(!dissect_loops(&mut p.procedures[0], &infos[0]));
    }

    #[test]
    fn outer_filter_is_copied_to_splits() {
        let src = "Procedure f(G: Graph, a: N_P<Int>, b: N_P<Int>) {
            Foreach (n: G.Nodes)(n.a > 0) {
                n.b = 0;
                Foreach (t: n.InNbrs) {
                    n.b += t.a;
                }
                n.b += 1;
            }
        }";
        let (_, s) = dissected(src);
        assert_eq!(s.matches(".a > 0").count(), 3, "{s}");
    }

    #[test]
    fn uninitialized_scalar_gets_default() {
        let src = "Procedure f(G: Graph, x: N_P<Int>) {
            Foreach (n: G.Nodes) {
                Int c;
                Foreach (t: n.InNbrs) {
                    c += 1;
                }
                n.x = c;
            }
        }";
        let (_, s) = dissected(src);
        assert!(s.contains("._tp1 = 0;"), "{s}");
    }
}
