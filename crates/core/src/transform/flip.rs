//! Flipping edges: converting message pulling into message pushing (§4.1).
//!
//! A nested loop in which the inner (neighborhood) loop only updates
//! outer-loop scoped locations is a *pull*: the outer vertex reads its
//! neighbors' data. Pregel can only push, so the compiler swaps the two
//! iterators and flips the edge direction of the inner iteration:
//!
//! ```text
//! Foreach (n: G.Nodes)            Foreach (t: G.Nodes)
//!     Foreach (t: n.InNbrs)   →       Foreach (n: t.Nbrs)
//!         n.foo max= t.bar;               n.foo max= t.bar;
//! ```
//!
//! Filters are redistributed: a filter that mentions only the new outer
//! iterator hoists to the new outer loop; everything else conjoins onto the
//! new inner loop.

use crate::ast::*;
use crate::astutil::{mentions, writes_in_block, Place};
use crate::sema::ProcInfo;

/// Flips every pull-style nested loop in `proc`. Returns whether any loop
/// was flipped.
pub fn flip_edges(proc: &mut Procedure, info: &ProcInfo) -> bool {
    let mut changed = false;
    process_block(&mut proc.body, info, &mut changed);
    changed
}

fn process_block(block: &mut Block, info: &ProcInfo, changed: &mut bool) {
    for stmt in &mut block.stmts {
        match &mut stmt.kind {
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                process_block(then_branch, info, changed);
                if let Some(eb) = else_branch {
                    process_block(eb, info, changed);
                }
            }
            StmtKind::While { body, .. } => process_block(body, info, changed),
            StmtKind::Block(b) => process_block(b, info, changed),
            StmtKind::Foreach(f) => {
                if let Some(flipped) = try_flip(f, info) {
                    **f = flipped;
                    *changed = true;
                } else {
                    process_block(&mut f.body, info, changed);
                }
            }
            _ => {}
        }
    }
}

/// Attempts to flip one outer loop; returns the replacement on success.
fn try_flip(outer: &ForeachStmt, _info: &ProcInfo) -> Option<ForeachStmt> {
    // Shape: parallel Foreach over Nodes whose body is exactly one
    // neighborhood Foreach of the outer iterator.
    if !outer.parallel || !matches!(outer.source, IterSource::Nodes { .. }) {
        return None;
    }
    if outer.body.stmts.len() != 1 {
        return None;
    }
    let inner = match &outer.body.stmts[0].kind {
        StmtKind::Foreach(inner)
            if inner.source.is_neighborhood() && inner.source.base() == outer.iter =>
        {
            inner
        }
        _ => return None,
    };

    // Pull test: every property write in the inner body targets the outer
    // iterator. (Scalar writes are locals or globals and ride along.)
    let writes = writes_in_block(&inner.body);
    let prop_writes: Vec<&Place> = writes
        .iter()
        .map(|(p, _)| p)
        .filter(|p| matches!(p, Place::Prop { .. }))
        .collect();
    if prop_writes.is_empty() {
        return None; // nothing to flip (e.g. pure global accumulation stays)
    }
    if !prop_writes
        .iter()
        .all(|p| matches!(p, Place::Prop { obj, .. } if *obj == outer.iter))
    {
        return None; // push (or mixed — the canonical check reports mixed)
    }

    // Flip direction.
    let flipped_source = match &inner.source {
        IterSource::OutNbrs { .. } => IterSource::InNbrs {
            of: inner.iter.clone(),
        },
        IterSource::InNbrs { .. } => IterSource::OutNbrs {
            of: inner.iter.clone(),
        },
        _ => return None, // Up/DownNbrs are lowered before this pass
    };

    // Redistribute filters. The old inner filter may hoist to the new outer
    // loop if it only mentions the new outer iterator (old inner iterator);
    // the old outer filter always mentions the old outer iterator and moves
    // inside.
    let mut new_outer_filter: Option<Expr> = None;
    let mut new_inner_filter: Option<Expr> = None;
    let mut push_inner = |e: Expr| {
        new_inner_filter = Some(match new_inner_filter.take() {
            Some(existing) => Expr::binary(BinOp::And, e, existing),
            None => e,
        });
    };
    if let Some(ft) = &inner.filter {
        if mentions(ft, &outer.iter) {
            push_inner(ft.clone());
        } else {
            new_outer_filter = Some(ft.clone());
        }
    }
    if let Some(fn_) = &outer.filter {
        push_inner(fn_.clone());
    }

    Some(ForeachStmt {
        iter: inner.iter.clone(),
        source: outer.source.clone(),
        filter: new_outer_filter,
        body: Block::of(vec![Stmt::synth(StmtKind::Foreach(Box::new(
            ForeachStmt {
                iter: outer.iter.clone(),
                source: flipped_source,
                filter: new_inner_filter,
                body: inner.body.clone(),
                parallel: true,
            },
        )))]),
        parallel: true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::pretty::program_to_string;
    use crate::seqinterp::{run_procedure, ArgValue};
    use crate::value::Value as V;
    use std::collections::HashMap;

    fn flipped(src: &str) -> (Program, String) {
        let mut p = parse(src).unwrap();
        let infos = crate::sema::check(&mut p).unwrap();
        let changed = flip_edges(&mut p.procedures[0], &infos[0]);
        assert!(changed, "expected flip to fire");
        crate::sema::check(&mut p).unwrap();
        let s = program_to_string(&p);
        (p, s)
    }

    const MAX_SRC: &str = "Procedure f(G: Graph, foo: N_P<Int>, bar: N_P<Int>) {
        Foreach (n: G.Nodes) {
            Foreach (t: n.InNbrs) {
                n.foo max= t.bar;
            }
        }
    }";

    #[test]
    fn pull_over_in_neighbors_becomes_push_over_out() {
        let (_, s) = flipped(MAX_SRC);
        assert!(s.contains("Foreach (t: G.Nodes)"), "{s}");
        assert!(s.contains("Foreach (n: t.Nbrs)"), "{s}");
        assert!(s.contains("n.foo max= t.bar;"), "{s}");
        assert!(!s.contains("InNbrs"), "{s}");
    }

    #[test]
    fn flip_preserves_semantics() {
        let g = gm_graph::gen::rmat(40, 160, 3);
        let bars: Vec<V> = (0..40).map(|i| V::Int((i * 7) % 23)).collect();
        let args = HashMap::from([("bar".to_owned(), ArgValue::NodeProp(bars))]);

        let mut orig = parse(MAX_SRC).unwrap();
        let infos = crate::sema::check(&mut orig).unwrap();
        let r1 = run_procedure(&g, &orig.procedures[0], &infos[0], &args, 0).unwrap();

        let (mut fl, _) = flipped(MAX_SRC);
        let infos2 = crate::sema::check(&mut fl).unwrap();
        let r2 = run_procedure(&g, &fl.procedures[0], &infos2[0], &args, 0).unwrap();
        assert_eq!(r1.node_props["foo"], r2.node_props["foo"]);
    }

    #[test]
    fn filters_are_redistributed() {
        let src = "Procedure f(G: Graph, a: N_P<Int>, b: N_P<Int>) {
            Foreach (n: G.Nodes)(n.a > 0) {
                Foreach (t: n.InNbrs)(t.b > 1) {
                    n.a += t.b;
                }
            }
        }";
        let (_, s) = flipped(src);
        // t-only filter hoists to the new outer loop; n filter moves in.
        assert!(s.contains("Foreach (t: G.Nodes) ((t.b > 1))"), "{s}");
        assert!(s.contains("Foreach (n: t.Nbrs) ((n.a > 0))"), "{s}");
    }

    #[test]
    fn inner_filter_mentioning_outer_moves_inside() {
        let src = "Procedure f(G: Graph, a: N_P<Int>, b: N_P<Int>) {
            Foreach (n: G.Nodes) {
                Foreach (t: n.InNbrs)(t.b > n.a) {
                    n.a += t.b;
                }
            }
        }";
        let (_, s) = flipped(src);
        assert!(s.contains("Foreach (t: G.Nodes) {"), "{s}");
        assert!(s.contains("(t.b > n.a)"), "{s}");
    }

    #[test]
    fn push_loops_are_untouched() {
        let src = "Procedure f(G: Graph, x: N_P<Int>) {
            Foreach (n: G.Nodes) {
                Foreach (t: n.Nbrs) {
                    t.x += 1;
                }
            }
        }";
        let mut p = parse(src).unwrap();
        let infos = crate::sema::check(&mut p).unwrap();
        assert!(!flip_edges(&mut p.procedures[0], &infos[0]));
    }

    #[test]
    fn pull_over_out_neighbors_becomes_push_over_in() {
        // The Conductance shape: counting over out-neighborhood by reading
        // the inner vertex — flips into pushes along reverse edges.
        let src = "Procedure f(G: Graph, m: N_P<Bool>, c: N_P<Int>) {
            Foreach (u: G.Nodes) {
                Foreach (j: u.Nbrs)(j.m) {
                    u.c += 1;
                }
            }
        }";
        let (_, s) = flipped(src);
        assert!(s.contains("Foreach (j: G.Nodes) (j.m)"), "{s}");
        assert!(s.contains("Foreach (u: j.InNbrs)"), "{s}");
    }
}
