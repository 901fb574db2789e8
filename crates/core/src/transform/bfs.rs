//! BFS-order graph traversal lowering (§4.1).
//!
//! `InBFS (v: G.Nodes From s) { fwd } InReverse { rev }` becomes
//! level-synchronous frontier expansion:
//!
//! ```text
//! Node_Prop<Int> _lev;               // hop distance from the root
//! Bool _fin = False;
//! Int _cur = -1;
//! Foreach (i: G.Nodes) { i._lev = INF; }
//! Node _rt = s;
//! _rt._lev = 0;                      // lowered further by randacc
//! While (!_fin) {
//!     _fin = True;
//!     _cur += 1;
//!     Foreach (v: G.Nodes)(v._lev == _cur) {
//!         ...fwd...                  // UpNbrs → InNbrs  with level filter
//!         Foreach (t: v.Nbrs)(t._lev == INF) {
//!             t._lev = _cur + 1;     // frontier expansion
//!             _fin &&= False;
//!         }
//!     }
//! }
//! While (_cur >= 0) {                // reverse pass
//!     Foreach (v: G.Nodes)(v._lev == _cur) {
//!         ...rev...                  // DownNbrs → Nbrs with level filter
//!     }
//!     _cur -= 1;
//! }
//! ```

use crate::ast::*;
use crate::astutil::NameGen;
use crate::sema::ProcInfo;
use crate::types::Ty;

/// Lowers every `InBFS` statement in `proc`. Returns whether any was found.
pub fn lower_bfs(proc: &mut Procedure, info: &ProcInfo) -> bool {
    let graph = info.graph.clone();
    let mut names = NameGen::for_procedure(proc);
    let mut changed = false;
    lower_block(&mut proc.body, &graph, &mut names, &mut changed);
    changed
}

fn lower_block(block: &mut Block, graph: &str, names: &mut NameGen, changed: &mut bool) {
    let stmts = std::mem::take(&mut block.stmts);
    for mut stmt in stmts {
        match &mut stmt.kind {
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                lower_block(then_branch, graph, names, changed);
                if let Some(eb) = else_branch {
                    lower_block(eb, graph, names, changed);
                }
            }
            StmtKind::While { body, .. } => lower_block(body, graph, names, changed),
            StmtKind::Foreach(f) => lower_block(&mut f.body, graph, names, changed),
            StmtKind::Block(b) => lower_block(b, graph, names, changed),
            _ => {}
        }
        if let StmtKind::InBfs(_) = &stmt.kind {
            let bfs = match stmt.kind {
                StmtKind::InBfs(b) => *b,
                _ => unreachable!("checked above"),
            };
            *changed = true;
            block.stmts.extend(expand_bfs(bfs, graph, names));
        } else {
            block.stmts.push(stmt);
        }
    }
}

fn expand_bfs(mut bfs: BfsStmt, graph: &str, names: &mut NameGen) -> Vec<Stmt> {
    let lev = names.fresh("_lev");
    let fin = names.fresh("_fin");
    let cur = names.fresh("_cur");
    let init_iter = names.fresh("_bi");
    let expand_iter = names.fresh("_bt");
    let root_var = names.fresh("_rt");

    let mut out = vec![
        // Node_Prop<Int> _lev;
        Stmt::synth(StmtKind::VarDecl {
            ty: Ty::NodeProp(Box::new(Ty::Int)),
            name: lev.clone(),
            init: None,
        }),
        // Bool _fin = False;
        Stmt::synth(StmtKind::VarDecl {
            ty: Ty::Bool,
            name: fin.clone(),
            init: Some(Expr::bool(false)),
        }),
        // Int _cur = -1;
        Stmt::synth(StmtKind::VarDecl {
            ty: Ty::Int,
            name: cur.clone(),
            init: Some(Expr::int(-1)),
        }),
        // Foreach (_bi: G.Nodes) { _bi._lev = INF; }
        Stmt::synth(StmtKind::Foreach(Box::new(ForeachStmt {
            iter: init_iter.clone(),
            source: IterSource::Nodes {
                graph: graph.to_owned(),
            },
            filter: None,
            body: Block::of(vec![Stmt::synth(StmtKind::Assign {
                target: Target::Prop {
                    obj: init_iter,
                    prop: lev.clone(),
                },
                op: AssignOp::Assign,
                value: Expr::synth(ExprKind::Inf { negative: false }),
            })]),
            parallel: true,
        }))),
        // Node _rt = <root>;  _rt._lev = 0;
        Stmt::synth(StmtKind::VarDecl {
            ty: Ty::Node,
            name: root_var.clone(),
            init: Some(bfs.root.clone()),
        }),
        Stmt::synth(StmtKind::Assign {
            target: Target::Prop {
                obj: root_var,
                prop: lev.clone(),
            },
            op: AssignOp::Assign,
            value: Expr::int(0),
        }),
    ];

    // Rewrite Up/DownNbrs in the user bodies.
    rewrite_updown(&mut bfs.body, &lev, &cur);
    if let Some(rb) = &mut bfs.reverse_body {
        rewrite_updown(rb, &lev, &cur);
    }

    // Frontier expansion, fused at the end of the forward body.
    let expansion = Stmt::synth(StmtKind::Foreach(Box::new(ForeachStmt {
        iter: expand_iter.clone(),
        source: IterSource::OutNbrs {
            of: bfs.iter.clone(),
        },
        filter: Some(Expr::binary(
            BinOp::Eq,
            Expr::prop(&expand_iter, &lev),
            Expr::synth(ExprKind::Inf { negative: false }),
        )),
        body: Block::of(vec![
            Stmt::synth(StmtKind::Assign {
                target: Target::Prop {
                    obj: expand_iter.clone(),
                    prop: lev.clone(),
                },
                op: AssignOp::Assign,
                value: Expr::binary(BinOp::Add, Expr::var(&cur), Expr::int(1)),
            }),
            Stmt::synth(StmtKind::Assign {
                target: Target::Scalar(fin.clone()),
                op: AssignOp::And,
                value: Expr::bool(false),
            }),
        ]),
        parallel: true,
    })));

    let mut fwd_body = bfs.body;
    fwd_body.stmts.push(expansion);

    // While (!_fin) { _fin = True; _cur += 1; Foreach (v)(v._lev == _cur) {...} }
    out.push(Stmt::synth(StmtKind::While {
        cond: Expr::synth(ExprKind::Unary {
            op: UnOp::Not,
            expr: Box::new(Expr::var(&fin)),
        }),
        body: Block::of(vec![
            Stmt::synth(StmtKind::Assign {
                target: Target::Scalar(fin.clone()),
                op: AssignOp::Assign,
                value: Expr::bool(true),
            }),
            Stmt::synth(StmtKind::Assign {
                target: Target::Scalar(cur.clone()),
                op: AssignOp::Add,
                value: Expr::int(1),
            }),
            Stmt::synth(StmtKind::Foreach(Box::new(ForeachStmt {
                iter: bfs.iter.clone(),
                source: IterSource::Nodes {
                    graph: graph.to_owned(),
                },
                filter: Some(Expr::binary(
                    BinOp::Eq,
                    Expr::prop(&bfs.iter, &lev),
                    Expr::var(&cur),
                )),
                body: fwd_body,
                parallel: true,
            }))),
        ]),
        do_while: false,
    }));

    // Reverse pass.
    if let Some(rev_body) = bfs.reverse_body {
        out.push(Stmt::synth(StmtKind::While {
            cond: Expr::binary(BinOp::Ge, Expr::var(&cur), Expr::int(0)),
            body: Block::of(vec![
                Stmt::synth(StmtKind::Foreach(Box::new(ForeachStmt {
                    iter: bfs.iter.clone(),
                    source: IterSource::Nodes {
                        graph: graph.to_owned(),
                    },
                    filter: Some(Expr::binary(
                        BinOp::Eq,
                        Expr::prop(&bfs.iter, &lev),
                        Expr::var(&cur),
                    )),
                    body: rev_body,
                    parallel: true,
                }))),
                Stmt::synth(StmtKind::Assign {
                    target: Target::Scalar(cur.clone()),
                    op: AssignOp::Sub,
                    value: Expr::int(1),
                }),
            ]),
            do_while: false,
        }));
    }

    out
}

/// Rewrites `UpNbrs`/`DownNbrs` sources into `InNbrs`/`Nbrs` with level
/// filters, in `Foreach` statements and aggregate expressions.
fn rewrite_updown(block: &mut Block, lev: &str, cur: &str) {
    block.visit_mut(&mut |n| {
        let (source, iter, filter) = match n {
            NodeMut::Stmt(Stmt {
                kind: StmtKind::Foreach(f),
                ..
            }) => (&mut f.source, &f.iter, &mut f.filter),
            NodeMut::Expr(Expr {
                kind: ExprKind::Agg(a),
                ..
            }) => (&mut a.source, &a.iter, &mut a.filter),
            _ => return true,
        };
        if let Some((new_source, level_filter)) = rewrite_source(source, iter, lev, cur) {
            *source = new_source;
            *filter = Some(match filter.take() {
                Some(existing) => Expr::binary(BinOp::And, level_filter, existing),
                None => level_filter,
            });
        }
        true
    });
}

/// `UpNbrs` → in-neighbors at level `_cur - 1`; `DownNbrs` → out-neighbors
/// at level `_cur + 1`. Returns the replacement source and the level filter
/// on the iteration variable.
fn rewrite_source(
    source: &IterSource,
    iter_var: &str,
    lev: &str,
    cur: &str,
) -> Option<(IterSource, Expr)> {
    match source {
        IterSource::UpNbrs { of } => Some((
            IterSource::InNbrs { of: of.clone() },
            Expr::binary(
                BinOp::Eq,
                Expr::prop(iter_var, lev),
                Expr::binary(BinOp::Sub, Expr::var(cur), Expr::int(1)),
            ),
        )),
        IterSource::DownNbrs { of } => Some((
            IterSource::OutNbrs { of: of.clone() },
            Expr::binary(
                BinOp::Eq,
                Expr::prop(iter_var, lev),
                Expr::binary(BinOp::Add, Expr::var(cur), Expr::int(1)),
            ),
        )),
        _ => None,
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

    fn lower_src(src: &str) -> (Program, String) {
        let mut p = parse(src).unwrap();
        let infos = crate::sema::check(&mut p).unwrap();
        let changed = lower_bfs(&mut p.procedures[0], &infos[0]);
        assert!(changed);
        // The lowered program must re-check.
        crate::sema::check(&mut p).unwrap();
        let s = program_to_string(&p);
        (p, s)
    }

    const SIGMA_SRC: &str =
        "Procedure f(G: Graph, root: Node, sigma: N_P<Double>, acc: N_P<Double>) {
        Foreach (i: G.Nodes) {
            i.sigma = 0.0;
        }
        root.sigma = 1.0;
        InBFS (v: G.Nodes From root) {
            v.sigma += Sum(w: v.UpNbrs){w.sigma};
        }
        InReverse {
            v.acc = Sum(w: v.DownNbrs){w.acc} + 1.0;
        }
    }";

    #[test]
    fn lowered_shape() {
        let (_, s) = lower_src(SIGMA_SRC);
        assert!(s.contains("_lev1"), "{s}");
        assert!(s.contains("While ((!_fin2))"), "{s}");
        assert!(s.contains("InNbrs"), "{s}");
        assert!(!s.contains("UpNbrs"), "{s}");
        assert!(!s.contains("DownNbrs"), "{s}");
        assert!(!s.contains("InBFS"), "{s}");
        // Reverse loop counts _cur down.
        assert!(s.contains("_cur3 -= 1"), "{s}");
    }

    /// The lowered program computes the same result as the original on the
    /// sequential interpreter.
    #[test]
    fn lowering_preserves_semantics() {
        let mut b = gm_graph::GraphBuilder::new(5);
        // Diamond with a tail: 0→1,0→2,1→3,2→3,3→4.
        b.extend([(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]);
        let g = b.build();
        let args = HashMap::from([("root".to_owned(), ArgValue::Scalar(Value::Node(0)))]);

        let mut orig = parse(SIGMA_SRC).unwrap();
        let infos = crate::sema::check(&mut orig).unwrap();
        let r1 = run_procedure(&g, &orig.procedures[0], &infos[0], &args, 0).unwrap();

        let (lowered, _) = lower_src(SIGMA_SRC);
        let mut lowered = lowered;
        let infos2 = crate::sema::check(&mut lowered).unwrap();
        let r2 = run_procedure(&g, &lowered.procedures[0], &infos2[0], &args, 0).unwrap();

        assert_eq!(r1.node_props["sigma"], r2.node_props["sigma"]);
        assert_eq!(r1.node_props["acc"], r2.node_props["acc"]);
        assert_eq!(
            r2.node_props["sigma"],
            vec![
                Value::Double(1.0),
                Value::Double(1.0),
                Value::Double(1.0),
                Value::Double(2.0),
                Value::Double(2.0)
            ]
        );
    }

    #[test]
    fn unreached_vertices_do_not_run_user_code() {
        let mut b = gm_graph::GraphBuilder::new(3);
        b.add_edge(0, 1); // vertex 2 unreachable
        let g = b.build();
        let src = "Procedure f(G: Graph, root: Node, mark: N_P<Int>) {
            InBFS (v: G.Nodes From root) {
                v.mark = 1;
            }
        }";
        let mut p = parse(src).unwrap();
        let infos = crate::sema::check(&mut p).unwrap();
        lower_bfs(&mut p.procedures[0], &infos[0]);
        let infos = crate::sema::check(&mut p).unwrap();
        let out = run_procedure(
            &g,
            &p.procedures[0],
            &infos[0],
            &HashMap::from([("root".to_owned(), ArgValue::Scalar(Value::Node(0)))]),
            0,
        )
        .unwrap();
        assert_eq!(
            out.node_props["mark"],
            vec![Value::Int(1), Value::Int(1), Value::Int(0)]
        );
    }

    #[test]
    fn forward_only_bfs_has_no_reverse_loop() {
        let src = "Procedure f(G: Graph, root: Node, d: N_P<Int>) {
            InBFS (v: G.Nodes From root) {
                v.d = 1;
            }
        }";
        let mut p = parse(src).unwrap();
        let infos = crate::sema::check(&mut p).unwrap();
        lower_bfs(&mut p.procedures[0], &infos[0]);
        let s = program_to_string(&p);
        assert!(!s.contains(">= 0"), "{s}");
    }
}
