//! AST analysis and rewriting helpers shared by the transformation passes.

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
        let mut used = HashSet::new();
        for p in &proc.params {
            used.insert(p.name.clone());
        }
        collect_idents_block(&proc.body, &mut used);
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

fn collect_idents_block(b: &Block, out: &mut HashSet<String>) {
    for s in &b.stmts {
        collect_idents_stmt(s, out);
    }
}

fn collect_idents_stmt(s: &Stmt, out: &mut HashSet<String>) {
    match &s.kind {
        StmtKind::VarDecl { name, init, .. } => {
            out.insert(name.clone());
            if let Some(e) = init {
                collect_idents_expr(e, out);
            }
        }
        StmtKind::Assign { target, value, .. } => {
            match target {
                Target::Scalar(n) => {
                    out.insert(n.clone());
                }
                Target::Prop { obj, prop } => {
                    out.insert(obj.clone());
                    out.insert(prop.clone());
                }
            }
            collect_idents_expr(value, out);
        }
        StmtKind::If {
            cond,
            then_branch,
            else_branch,
        } => {
            collect_idents_expr(cond, out);
            collect_idents_block(then_branch, out);
            if let Some(eb) = else_branch {
                collect_idents_block(eb, out);
            }
        }
        StmtKind::While { cond, body, .. } => {
            collect_idents_expr(cond, out);
            collect_idents_block(body, out);
        }
        StmtKind::Foreach(f) => {
            out.insert(f.iter.clone());
            out.insert(f.source.base().to_owned());
            if let Some(filt) = &f.filter {
                collect_idents_expr(filt, out);
            }
            collect_idents_block(&f.body, out);
        }
        StmtKind::InBfs(b) => {
            out.insert(b.iter.clone());
            out.insert(b.graph.clone());
            collect_idents_expr(&b.root, out);
            collect_idents_block(&b.body, out);
            if let Some(rb) = &b.reverse_body {
                collect_idents_block(rb, out);
            }
        }
        StmtKind::Return(e) => {
            if let Some(e) = e {
                collect_idents_expr(e, out);
            }
        }
        StmtKind::Block(b) => collect_idents_block(b, out),
    }
}

fn collect_idents_expr(e: &Expr, out: &mut HashSet<String>) {
    match &e.kind {
        ExprKind::Var(n) => {
            out.insert(n.clone());
        }
        ExprKind::Prop { obj, prop } => {
            out.insert(obj.clone());
            out.insert(prop.clone());
        }
        ExprKind::Unary { expr, .. } => collect_idents_expr(expr, out),
        ExprKind::Binary { lhs, rhs, .. } => {
            collect_idents_expr(lhs, out);
            collect_idents_expr(rhs, out);
        }
        ExprKind::Ternary {
            cond,
            then_val,
            else_val,
        } => {
            collect_idents_expr(cond, out);
            collect_idents_expr(then_val, out);
            collect_idents_expr(else_val, out);
        }
        ExprKind::Agg(a) => {
            out.insert(a.iter.clone());
            out.insert(a.source.base().to_owned());
            if let Some(f) = &a.filter {
                collect_idents_expr(f, out);
            }
            if let Some(b) = &a.body {
                collect_idents_expr(b, out);
            }
        }
        ExprKind::Call { obj, args, .. } => {
            out.insert(obj.clone());
            for a in args {
                collect_idents_expr(a, out);
            }
        }
        _ => {}
    }
}

/// Replaces every reference to variable `from` with `to` in an expression
/// (variable uses, property-access bases, call receivers, aggregate-source
/// bases). Names are assumed globally unique (post-sema), so no shadowing
/// check is needed.
pub fn subst_var_expr(e: &mut Expr, from: &str, to: &str) {
    match &mut e.kind {
        ExprKind::Var(n) if n == from => {
            *n = to.to_owned();
        }
        ExprKind::Prop { obj, .. } if obj == from => {
            *obj = to.to_owned();
        }
        ExprKind::Unary { expr, .. } => subst_var_expr(expr, from, to),
        ExprKind::Binary { lhs, rhs, .. } => {
            subst_var_expr(lhs, from, to);
            subst_var_expr(rhs, from, to);
        }
        ExprKind::Ternary {
            cond,
            then_val,
            else_val,
        } => {
            subst_var_expr(cond, from, to);
            subst_var_expr(then_val, from, to);
            subst_var_expr(else_val, from, to);
        }
        ExprKind::Agg(a) => {
            subst_source(&mut a.source, from, to);
            if let Some(f) = &mut a.filter {
                subst_var_expr(f, from, to);
            }
            if let Some(b) = &mut a.body {
                subst_var_expr(b, from, to);
            }
        }
        ExprKind::Call { obj, args, .. } => {
            if obj == from {
                *obj = to.to_owned();
            }
            for a in args {
                subst_var_expr(a, from, to);
            }
        }
        _ => {}
    }
}

fn subst_source(s: &mut IterSource, from: &str, to: &str) {
    let base = match s {
        IterSource::Nodes { graph } => graph,
        IterSource::OutNbrs { of }
        | IterSource::InNbrs { of }
        | IterSource::UpNbrs { of }
        | IterSource::DownNbrs { of } => of,
    };
    if base == from {
        *base = to.to_owned();
    }
}

/// Replaces variable references inside a whole statement (targets included).
pub fn subst_var_stmt(s: &mut Stmt, from: &str, to: &str) {
    match &mut s.kind {
        StmtKind::VarDecl { init, .. } => {
            if let Some(e) = init {
                subst_var_expr(e, from, to);
            }
        }
        StmtKind::Assign { target, value, .. } => {
            match target {
                Target::Scalar(n) => {
                    if n == from {
                        *n = to.to_owned();
                    }
                }
                Target::Prop { obj, .. } => {
                    if obj == from {
                        *obj = to.to_owned();
                    }
                }
            }
            subst_var_expr(value, from, to);
        }
        StmtKind::If {
            cond,
            then_branch,
            else_branch,
        } => {
            subst_var_expr(cond, from, to);
            subst_var_block(then_branch, from, to);
            if let Some(eb) = else_branch {
                subst_var_block(eb, from, to);
            }
        }
        StmtKind::While { cond, body, .. } => {
            subst_var_expr(cond, from, to);
            subst_var_block(body, from, to);
        }
        StmtKind::Foreach(f) => {
            subst_source(&mut f.source, from, to);
            if let Some(filt) = &mut f.filter {
                subst_var_expr(filt, from, to);
            }
            subst_var_block(&mut f.body, from, to);
        }
        StmtKind::InBfs(b) => {
            subst_var_expr(&mut b.root, from, to);
            subst_var_block(&mut b.body, from, to);
            if let Some(rb) = &mut b.reverse_body {
                subst_var_block(rb, from, to);
            }
        }
        StmtKind::Return(e) => {
            if let Some(e) = e {
                subst_var_expr(e, from, to);
            }
        }
        StmtKind::Block(b) => subst_var_block(b, from, to),
    }
}

/// [`subst_var_stmt`] over every statement of a block.
pub fn subst_var_block(b: &mut Block, from: &str, to: &str) {
    for s in &mut b.stmts {
        subst_var_stmt(s, from, to);
    }
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
pub fn writes_in_block(b: &Block) -> Vec<(Place, AssignOp)> {
    let mut out = Vec::new();
    writes_rec(b, &mut out);
    out
}

fn writes_rec(b: &Block, out: &mut Vec<(Place, AssignOp)>) {
    for s in &b.stmts {
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
            StmtKind::VarDecl { name, init, .. } => {
                if init.is_some() {
                    out.push((Place::Scalar(name.clone()), AssignOp::Assign));
                }
            }
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                writes_rec(then_branch, out);
                if let Some(eb) = else_branch {
                    writes_rec(eb, out);
                }
            }
            StmtKind::While { body, .. } => writes_rec(body, out),
            StmtKind::Foreach(f) => writes_rec(&f.body, out),
            StmtKind::InBfs(bf) => {
                writes_rec(&bf.body, out);
                if let Some(rb) = &bf.reverse_body {
                    writes_rec(rb, out);
                }
            }
            StmtKind::Block(inner) => writes_rec(inner, out),
            StmtKind::Return(_) => {}
        }
    }
}

/// Collects every read in an expression: variable uses (excluding pure
/// receivers of degree-like calls? no — receivers count) and property reads.
pub fn reads_in_expr(e: &Expr, out: &mut Vec<Place>) {
    match &e.kind {
        ExprKind::Var(n) => out.push(Place::Scalar(n.clone())),
        ExprKind::Prop { obj, prop } => out.push(Place::Prop {
            obj: obj.clone(),
            prop: prop.clone(),
        }),
        ExprKind::Unary { expr, .. } => reads_in_expr(expr, out),
        ExprKind::Binary { lhs, rhs, .. } => {
            reads_in_expr(lhs, out);
            reads_in_expr(rhs, out);
        }
        ExprKind::Ternary {
            cond,
            then_val,
            else_val,
        } => {
            reads_in_expr(cond, out);
            reads_in_expr(then_val, out);
            reads_in_expr(else_val, out);
        }
        ExprKind::Agg(a) => {
            if let Some(f) = &a.filter {
                reads_in_expr(f, out);
            }
            if let Some(b) = &a.body {
                reads_in_expr(b, out);
            }
        }
        ExprKind::Call { obj, args, .. } => {
            out.push(Place::Scalar(obj.clone()));
            for a in args {
                reads_in_expr(a, out);
            }
        }
        _ => {}
    }
}

/// Collects every read in a block: RHS expressions, filters, conditions, and
/// reduction targets (a `+=` both reads and writes its target).
pub fn reads_in_block(b: &Block) -> Vec<Place> {
    let mut out = Vec::new();
    reads_block_rec(b, &mut out);
    out
}

fn reads_block_rec(b: &Block, out: &mut Vec<Place>) {
    for s in &b.stmts {
        match &s.kind {
            StmtKind::VarDecl { init, .. } => {
                if let Some(e) = init {
                    reads_in_expr(e, out);
                }
            }
            StmtKind::Assign { target, op, value } => {
                reads_in_expr(value, out);
                if op.is_reduction() {
                    match target {
                        Target::Scalar(n) => out.push(Place::Scalar(n.clone())),
                        Target::Prop { obj, prop } => out.push(Place::Prop {
                            obj: obj.clone(),
                            prop: prop.clone(),
                        }),
                    }
                }
            }
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                reads_in_expr(cond, out);
                reads_block_rec(then_branch, out);
                if let Some(eb) = else_branch {
                    reads_block_rec(eb, out);
                }
            }
            StmtKind::While { cond, body, .. } => {
                reads_in_expr(cond, out);
                reads_block_rec(body, out);
            }
            StmtKind::Foreach(f) => {
                if let Some(filt) = &f.filter {
                    reads_in_expr(filt, out);
                }
                reads_block_rec(&f.body, out);
            }
            StmtKind::InBfs(bf) => {
                reads_in_expr(&bf.root, out);
                reads_block_rec(&bf.body, out);
                if let Some(rb) = &bf.reverse_body {
                    reads_block_rec(rb, out);
                }
            }
            StmtKind::Return(e) => {
                if let Some(e) = e {
                    reads_in_expr(e, out);
                }
            }
            StmtKind::Block(inner) => reads_block_rec(inner, out),
        }
    }
}

/// Counts AST nodes (statements and expressions) in a procedure — the
/// size measure reported by the per-pass compile timings.
pub fn count_nodes(proc: &Procedure) -> usize {
    count_block(&proc.body)
}

fn count_block(b: &Block) -> usize {
    b.stmts.iter().map(count_stmt).sum()
}

fn count_stmt(s: &Stmt) -> usize {
    1 + match &s.kind {
        StmtKind::VarDecl { init, .. } => init.as_ref().map_or(0, count_expr),
        StmtKind::Assign { value, .. } => count_expr(value),
        StmtKind::If {
            cond,
            then_branch,
            else_branch,
        } => {
            count_expr(cond)
                + count_block(then_branch)
                + else_branch.as_ref().map_or(0, count_block)
        }
        StmtKind::While { cond, body, .. } => count_expr(cond) + count_block(body),
        StmtKind::Foreach(f) => f.filter.as_ref().map_or(0, count_expr) + count_block(&f.body),
        StmtKind::InBfs(bf) => {
            count_expr(&bf.root)
                + count_block(&bf.body)
                + bf.reverse_body.as_ref().map_or(0, count_block)
        }
        StmtKind::Return(e) => e.as_ref().map_or(0, count_expr),
        StmtKind::Block(inner) => count_block(inner),
    }
}

fn count_expr(e: &Expr) -> usize {
    1 + match &e.kind {
        ExprKind::Unary { expr, .. } => count_expr(expr),
        ExprKind::Binary { lhs, rhs, .. } => count_expr(lhs) + count_expr(rhs),
        ExprKind::Ternary {
            cond,
            then_val,
            else_val,
        } => count_expr(cond) + count_expr(then_val) + count_expr(else_val),
        ExprKind::Agg(a) => {
            a.filter.as_ref().map_or(0, count_expr) + a.body.as_ref().map_or(0, count_expr)
        }
        ExprKind::Call { args, .. } => args.iter().map(count_expr).sum(),
        _ => 0,
    }
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
        let mut b = body_of(
            "Procedure f(G: Graph, p: N_P<Int>) {
                Foreach (n: G.Nodes) {
                    n.p = G.NumNodes();
                }
            }",
        );
        subst_var_block(&mut b, "G", "H");
        let printed = crate::pretty::stmt_to_string(&b.stmts[0]);
        assert!(printed.contains("H.Nodes"), "{printed}");
        assert!(printed.contains("H.NumNodes()"), "{printed}");
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
        assert!(writes.contains(&(
            Place::Prop {
                obj: "t".into(),
                prop: "p".into()
            },
            AssignOp::Add
        )));
        assert!(writes.contains(&(Place::Scalar("s".into()), AssignOp::Add)));
        let reads = reads_in_block(&b);
        assert!(reads.contains(&Place::Prop {
            obj: "n".into(),
            prop: "q".into()
        }));
        // Reduction target counts as a read.
        assert!(reads.contains(&Place::Prop {
            obj: "t".into(),
            prop: "p".into()
        }));
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

    // Silence an unused-import lint path for parse in some cfgs.
    #[allow(dead_code)]
    fn _use(_: fn(&str) -> Result<crate::ast::Program, crate::diag::Diagnostics>) {}
    #[allow(dead_code)]
    fn _u2() {
        _use(parse);
    }
}
