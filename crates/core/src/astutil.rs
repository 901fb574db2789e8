//! AST analysis and rewriting helpers shared by the transformation passes.
//!
//! Every helper here is a closure over the one AST walk in [`crate::ast`]
//! (`Node::walk` and its mutable twin): pre-order, source order, and
//! entering every child — aggregate filters and bodies, call arguments, a
//! BFS root and both BFS bodies. A walker that must skip a subtree says so
//! in its own closure by declining to descend.

use crate::ast::*;
use std::collections::HashSet;

/// Generates names that collide with nothing in the procedure.
#[derive(Clone, Debug, Default)]
pub struct NameGen {
    used: HashSet<String>,
    counter: u32,
}

impl NameGen {
    /// Builds a generator that avoids every identifier appearing in `proc`.
    pub fn for_procedure(proc: &Procedure) -> Self {
        let mut used: HashSet<String> = proc.params.iter().map(|p| p.name.clone()).collect();
        proc.body.visit(&mut |n| {
            let names: [Option<&str>; 2] = match n {
                Node::Stmt(s) => match &s.kind {
                    StmtKind::VarDecl { name, .. } => [Some(name.as_str()), None],
                    StmtKind::Assign {
                        target: Target::Scalar(name),
                        ..
                    } => [Some(name.as_str()), None],
                    StmtKind::Assign {
                        target: Target::Prop { obj, prop },
                        ..
                    } => [Some(obj.as_str()), Some(prop.as_str())],
                    StmtKind::Foreach(f) => [Some(f.iter.as_str()), Some(f.source.base())],
                    StmtKind::InBfs(b) => [Some(b.iter.as_str()), Some(b.graph.as_str())],
                    _ => [None, None],
                },
                Node::Expr(e) => match &e.kind {
                    ExprKind::Var(name) | ExprKind::Call { obj: name, .. } => {
                        [Some(name.as_str()), None]
                    }
                    ExprKind::Prop { obj, prop } => [Some(obj.as_str()), Some(prop.as_str())],
                    ExprKind::Agg(a) => [Some(a.iter.as_str()), Some(a.source.base())],
                    _ => [None, None],
                },
            };
            used.extend(names.into_iter().flatten().map(str::to_owned));
            true
        });
        NameGen { used, counter: 0 }
    }

    /// Produces a fresh name starting with `base` (e.g. `_tmp`).
    pub fn fresh(&mut self, base: &str) -> String {
        loop {
            self.counter += 1;
            let candidate = format!("{base}{}", self.counter);
            if self.used.insert(candidate.clone()) {
                return candidate;
            }
        }
    }
}

/// Replaces every reference to variable `from` with `to` in an expression
/// (variable uses, property-access bases, call receivers, aggregate-source
/// bases). Names are assumed globally unique (post-sema), so no shadowing
/// check is needed.
pub fn subst_var_expr(e: &mut Expr, from: &str, to: &str) {
    e.visit_mut(&mut |x| {
        let name = match &mut x.kind {
            ExprKind::Var(name)
            | ExprKind::Prop { obj: name, .. }
            | ExprKind::Call { obj: name, .. } => name,
            ExprKind::Agg(a) => a.source.base_mut(),
            _ => return,
        };
        if name == from {
            *name = to.to_owned();
        }
    });
}

/// A location written by an assignment.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Place {
    /// A scalar variable.
    Scalar(String),
    /// `obj.prop`.
    Prop {
        /// Base variable.
        obj: String,
        /// Property name.
        prop: String,
    },
}

/// Collects every assignment in a block (recursively), as `(place, op)`.
/// An initialized declaration counts as a plain assignment.
pub fn writes_in_block(b: &Block) -> Vec<(Place, AssignOp)> {
    let mut out = Vec::new();
    b.visit(&mut |n| {
        if let Node::Stmt(s) = n {
            match &s.kind {
                StmtKind::Assign { target, op, .. } => {
                    let place = match target {
                        Target::Scalar(n) => Place::Scalar(n.clone()),
                        Target::Prop { obj, prop } => Place::Prop {
                            obj: obj.clone(),
                            prop: prop.clone(),
                        },
                    };
                    out.push((place, *op));
                }
                StmtKind::VarDecl {
                    name,
                    init: Some(_),
                    ..
                } => out.push((Place::Scalar(name.clone()), AssignOp::Assign)),
                _ => {}
            }
        }
        true
    });
    out
}

/// Collects every read in an expression: variable uses, call receivers and
/// property reads, aggregate filters and bodies included.
pub fn reads_in_expr(e: &Expr, out: &mut Vec<Place>) {
    e.visit(&mut |x| match &x.kind {
        ExprKind::Var(n) | ExprKind::Call { obj: n, .. } => out.push(Place::Scalar(n.clone())),
        ExprKind::Prop { obj, prop } => out.push(Place::Prop {
            obj: obj.clone(),
            prop: prop.clone(),
        }),
        _ => {}
    });
}

/// Whether `e` reads `var`, or a property or method through it.
pub fn mentions(e: &Expr, var: &str) -> bool {
    let mut places = Vec::new();
    reads_in_expr(e, &mut places);
    places.iter().any(|p| match p {
        Place::Scalar(n) => n == var,
        Place::Prop { obj, .. } => obj == var,
    })
}

/// Counts AST nodes (statements and expressions) in a procedure — the
/// size measure reported by the per-pass compile timings.
pub fn count_nodes(proc: &Procedure) -> usize {
    let mut count = 0;
    proc.body.visit(&mut |_| {
        count += 1;
        true
    });
    count
}

/// Whether an expression contains any aggregate sub-expression.
pub fn contains_agg(e: &Expr) -> bool {
    let mut found = false;
    e.visit(&mut |x| found |= matches!(x.kind, ExprKind::Agg(_)));
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn body_of(src: &str) -> Block {
        parse(src).unwrap().procedures.remove(0).body
    }

    #[test]
    fn namegen_avoids_existing() {
        let p = parse("Procedure f(G: Graph) { Int _tmp1 = 0; Int x = _tmp1; }").unwrap();
        let mut ng = NameGen::for_procedure(&p.procedures[0]);
        let n = ng.fresh("_tmp");
        assert_ne!(n, "_tmp1");
        let n2 = ng.fresh("_tmp");
        assert_ne!(n, n2);
    }

    #[test]
    fn subst_renames_all_reference_forms() {
        let mut e =
            crate::parser::parse_expr("Sum(n: G.Nodes)(G.NumNodes() > 0){G + G.p + n.p}").unwrap();
        subst_var_expr(&mut e, "G", "H");
        let printed = crate::pretty::expr_to_string(&e);
        assert!(!printed.contains('G'), "{printed}");
        for form in ["H.Nodes", "H.NumNodes()", "H.p", "(H + "] {
            assert!(printed.contains(form), "{form} in {printed}");
        }
    }

    #[test]
    fn writes_and_reads_collection() {
        let b = body_of(
            "Procedure f(G: Graph, p: N_P<Int>, q: N_P<Int>) {
                Int s = 0;
                Foreach (n: G.Nodes) {
                    Foreach (t: n.Nbrs) {
                        t.p += n.q;
                    }
                    s += 1;
                }
            }",
        );
        let writes = writes_in_block(&b);
        assert_eq!(
            writes,
            [
                (Place::Scalar("s".into()), AssignOp::Assign),
                (
                    Place::Prop {
                        obj: "t".into(),
                        prop: "p".into()
                    },
                    AssignOp::Add
                ),
                (Place::Scalar("s".into()), AssignOp::Add),
            ]
        );
        // Aggregate filters and bodies are read; call receivers count.
        let e = crate::parser::parse_expr("Sum(t: n.Nbrs)(t.q > 0){t.p + n.Degree()}").unwrap();
        let mut reads = Vec::new();
        reads_in_expr(&e, &mut reads);
        let prop = |obj: &str, prop: &str| Place::Prop {
            obj: obj.into(),
            prop: prop.into(),
        };
        assert_eq!(
            reads,
            [prop("t", "q"), prop("t", "p"), Place::Scalar("n".into())]
        );
        assert!(mentions(&e, "n") && mentions(&e, "t") && !mentions(&e, "q"));
    }

    #[test]
    fn count_nodes_grows_with_the_program() {
        let small = parse("Procedure f(G: Graph) { Int x = 1; }").unwrap();
        let big = parse(
            "Procedure f(G: Graph, p: N_P<Int>) {
                Int x = 1 + 2;
                Foreach (n: G.Nodes) {
                    n.p = x;
                }
            }",
        )
        .unwrap();
        let small_n = count_nodes(&small.procedures[0]);
        let big_n = count_nodes(&big.procedures[0]);
        assert!(small_n >= 2, "decl + literal: {small_n}");
        assert!(big_n > small_n, "{big_n} vs {small_n}");
    }

    #[test]
    fn contains_agg_detects_nesting() {
        let e = crate::parser::parse_expr("1 + Sum(n: G.Nodes){n.Degree()}").unwrap();
        assert!(contains_agg(&e));
        let e2 = crate::parser::parse_expr("1 + 2").unwrap();
        assert!(!contains_agg(&e2));
    }
}
