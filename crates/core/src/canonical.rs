//! The Pregel-canonical form check (§3.2).
//!
//! After the §4.1 transformations a program must satisfy:
//!
//! * **Finite state management** — non-recursive, one graph, arbitrary
//!   `If`/`While` over scalars at the sequential level.
//! * **Parallel vertex and neighborhood iteration** — parallel `Foreach`
//!   nests at most two deep; the outer loop covers `G.Nodes`, the inner one
//!   a neighborhood of the outer iterator; no `Return` inside loops.
//! * **Message pushing** — inner loops never modify the outer iterator's
//!   values.
//! * **Random writing** — writes to arbitrary vertices only inside
//!   vertex-parallel phases; no random reads anywhere.
//! * **Edge properties** — accessed only through `ToEdge()` on an
//!   out-neighbor iterator.
//!
//! Violations are reported with the paper's vocabulary so a user
//! understands which rule the program broke.

use crate::ast::*;
use crate::diag::Diagnostics;
use crate::sema::{ProcInfo, SymKind};
use crate::types::Ty;

/// Checks that `proc` (post-transformation) is Pregel-canonical.
///
/// # Errors
///
/// Returns one diagnostic per violation.
pub fn check_canonical(proc: &Procedure, info: &ProcInfo) -> Result<(), Diagnostics> {
    let mut cx = Check {
        info,
        diags: Diagnostics::new(),
    };
    cx.seq_block(&proc.body);
    if cx.diags.has_errors() {
        Err(cx.diags)
    } else {
        Ok(())
    }
}

struct Check<'a> {
    info: &'a ProcInfo,
    diags: Diagnostics,
}

impl Check<'_> {
    fn is_node_var(&self, name: &str) -> bool {
        self.info.symbol(name).is_some_and(|s| s.ty == Ty::Node)
    }

    // ---- sequential context ----

    fn seq_block(&mut self, block: &Block) {
        for stmt in &block.stmts {
            self.seq_stmt(stmt);
        }
    }

    fn seq_stmt(&mut self, stmt: &Stmt) {
        let span = stmt.span;
        match &stmt.kind {
            StmtKind::VarDecl { init, .. } => {
                if let Some(e) = init {
                    self.seq_expr(e);
                }
            }
            StmtKind::Assign { target, value, .. } => {
                if let Target::Prop { .. } = target {
                    self.diags.error(
                        span,
                        "random vertex access in a sequential phase (should have been \
                         lowered by the Random Access transformation)",
                    );
                }
                self.seq_expr(value);
            }
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.seq_expr(cond);
                self.seq_block(then_branch);
                if let Some(eb) = else_branch {
                    self.seq_block(eb);
                }
            }
            StmtKind::While {
                cond,
                body,
                do_while,
            } => {
                if *do_while {
                    self.diags
                        .error(span, "Do-While loops are not Pregel-canonical");
                }
                self.seq_expr(cond);
                self.seq_block(body);
            }
            StmtKind::Foreach(f) => {
                if !f.parallel {
                    self.diags.error(
                        span,
                        "sequential For over vertices cannot be mapped to Pregel",
                    );
                    return;
                }
                if !matches!(f.source, IterSource::Nodes { .. }) {
                    self.diags
                        .error(span, "a vertex-parallel phase must iterate over G.Nodes");
                    return;
                }
                if let Some(filter) = &f.filter {
                    self.vertex_expr(filter, &f.iter, None);
                }
                self.vertex_block(&f.body, &f.iter);
            }
            StmtKind::InBfs(_) => {
                self.diags
                    .error(span, "InBFS remains after lowering (unsupported nesting)");
            }
            StmtKind::Return(e) => {
                if let Some(e) = e {
                    self.seq_expr(e);
                }
            }
            StmtKind::Block(b) => self.seq_block(b),
        }
    }

    /// Expressions in sequential context. An aggregate is reported and
    /// not entered.
    fn seq_expr(&mut self, e: &Expr) {
        Node::Expr(e).walk(&mut |n| {
            let Node::Expr(e) = n else { return true };
            match &e.kind {
                ExprKind::Prop { .. } => {
                    self.diags.error(
                        e.span,
                        "random reading of a vertex property is not allowed (\u{a7}3.2)",
                    );
                }
                ExprKind::Agg(_) => {
                    self.diags.error(
                        e.span,
                        "aggregate remains after lowering (unsupported position)",
                    );
                    return false;
                }
                ExprKind::Call { obj, method, .. } => {
                    let graph_methods = ["NumNodes", "NumEdges", "PickRandom"];
                    if !graph_methods.contains(&method.as_str()) {
                        self.diags.error(
                            e.span,
                            format!("`{obj}.{method}()` is not available in a sequential phase"),
                        );
                    }
                }
                _ => {}
            }
            true
        });
    }

    // ---- vertex-parallel context (outer loop body) ----

    fn vertex_block(&mut self, block: &Block, outer: &str) {
        for stmt in &block.stmts {
            self.vertex_stmt(stmt, outer);
        }
    }

    fn vertex_stmt(&mut self, stmt: &Stmt, outer: &str) {
        let span = stmt.span;
        match &stmt.kind {
            StmtKind::VarDecl { ty, init, .. } => {
                if matches!(ty, Ty::NodeProp(_) | Ty::EdgeProp(_)) {
                    self.diags
                        .error(span, "property declarations must be sequential");
                }
                if let Some(e) = init {
                    self.vertex_expr(e, outer, None);
                }
            }
            StmtKind::Assign { target, op, value } => {
                self.vertex_expr(value, outer, None);
                match target {
                    Target::Scalar(name) => {
                        let is_local = false; // locals resolved below
                        let _ = is_local;
                        // Scalar writes: vertex locals are fine; globals
                        // need a commutative reduction.
                        if self.is_global_scalar(name, outer) && !op.is_reduction() {
                            self.diags.error(
                                span,
                                format!(
                                    "plain assignment to global `{name}` from a \
                                     vertex-parallel phase; use a reduction"
                                ),
                            );
                        }
                    }
                    Target::Prop { obj, .. } => {
                        // Own-vertex write or random write — both fine here.
                        if !self.is_node_var(obj) && obj != outer {
                            self.diags.error(
                                span,
                                format!("`{obj}` is not a vertex in a property write"),
                            );
                        }
                    }
                }
            }
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.vertex_expr(cond, outer, None);
                self.vertex_block(then_branch, outer);
                if let Some(eb) = else_branch {
                    self.vertex_block(eb, outer);
                }
            }
            StmtKind::While { .. } => {
                self.diags
                    .error(span, "While loops inside a vertex-parallel phase");
            }
            StmtKind::Foreach(f) => {
                if !f.source.is_neighborhood() || f.source.base() != outer {
                    self.diags.error(
                        span,
                        "an inner loop must iterate a neighborhood of the outer iterator",
                    );
                    return;
                }
                if let Some(filter) = &f.filter {
                    self.vertex_expr(filter, outer, Some(&f.iter));
                }
                self.inner_block(&f.body, outer, &f.iter, &f.source);
            }
            StmtKind::InBfs(_) => {
                self.diags
                    .error(span, "InBFS inside a vertex-parallel phase");
            }
            StmtKind::Return(_) => {
                self.diags
                    .error(span, "Return is not allowed inside parallel loops");
            }
            StmtKind::Block(b) => self.vertex_block(b, outer),
        }
    }

    fn is_global_scalar(&self, name: &str, _outer: &str) -> bool {
        matches!(
            self.info.symbol(name),
            Some(s) if matches!(s.kind, SymKind::Param | SymKind::Local)
                && s.ty.is_value()
        )
        // Vertex locals are also SymKind::Local; the translation pass
        // distinguishes by declaration position. For checking purposes a
        // plain assignment to any scalar is accepted when the scalar is
        // declared inside the loop; the translator re-verifies. Here we are
        // conservative only about reductions on known-global names — the
        // precise check happens in translate, which knows declaration
        // positions.
    }

    // ---- inner (neighborhood) loop context ----

    fn inner_block(&mut self, block: &Block, outer: &str, inner: &str, source: &IterSource) {
        for stmt in &block.stmts {
            let span = stmt.span;
            match &stmt.kind {
                StmtKind::VarDecl { ty, init, .. } => {
                    if matches!(ty, Ty::NodeProp(_) | Ty::EdgeProp(_)) {
                        self.diags
                            .error(span, "property declarations must be sequential");
                    }
                    if let Some(e) = init {
                        self.vertex_expr(e, outer, Some(inner));
                    }
                }
                StmtKind::Assign { target, op, value } => {
                    self.vertex_expr(value, outer, Some(inner));
                    match target {
                        Target::Prop { obj, .. } if obj == outer => {
                            self.diags.error(
                                span,
                                "the inner loop modifies the outer vertex's value — \
                                 this requires message pulling (\u{a7}3.2); the \
                                 Flipping Edges rule could not be applied",
                            );
                        }
                        Target::Prop { obj, .. } if obj == inner => {}
                        Target::Prop { obj, .. } => {
                            self.diags.error(
                                span,
                                format!(
                                    "random write to `{obj}` from an inner loop is not \
                                     supported"
                                ),
                            );
                        }
                        Target::Scalar(name) => {
                            if !op.is_reduction() {
                                // Local temporaries of the inner body are ok;
                                // conservatively accept Edge/Node locals.
                                let is_value_local = self
                                    .info
                                    .symbol(name)
                                    .is_some_and(|s| matches!(s.ty, Ty::Edge | Ty::Node));
                                if !is_value_local {
                                    self.diags.error(
                                        span,
                                        format!(
                                            "plain assignment to `{name}` inside an inner \
                                             loop; use a reduction"
                                        ),
                                    );
                                }
                            }
                        }
                    }
                }
                StmtKind::If {
                    cond,
                    then_branch,
                    else_branch,
                } => {
                    self.vertex_expr(cond, outer, Some(inner));
                    self.inner_block(then_branch, outer, inner, source);
                    if let Some(eb) = else_branch {
                        self.inner_block(eb, outer, inner, source);
                    }
                }
                StmtKind::Foreach(_) => {
                    self.diags.error(
                        span,
                        "parallel Foreach can be doubly nested at most (\u{a7}3.2)",
                    );
                }
                StmtKind::While { .. } | StmtKind::InBfs(_) | StmtKind::Return(_) => {
                    self.diags
                        .error(span, "only straight-line code inside inner loops");
                }
                StmtKind::Block(b) => self.inner_block(b, outer, inner, source),
            }
            // Edge properties only through the source vertex.
            if let StmtKind::VarDecl {
                ty: Ty::Edge,
                init: Some(init),
                ..
            } = &stmt.kind
            {
                if matches!(&init.kind, ExprKind::Call { method, .. } if method == "ToEdge")
                    && !matches!(source, IterSource::OutNbrs { .. })
                {
                    self.diags.error(
                        span,
                        "edge properties are accessible only from the source vertex \
                         (out-neighbor iteration)",
                    );
                }
            }
        }
    }

    /// Expressions in vertex context: aggregates must be gone (one is
    /// reported and not entered); calls are degree-like only; property
    /// reads are checked by the translator.
    fn vertex_expr(&mut self, e: &Expr, outer: &str, inner: Option<&str>) {
        Node::Expr(e).walk(&mut |n| {
            let Node::Expr(e) = n else { return true };
            match &e.kind {
                ExprKind::Agg(_) => {
                    self.diags.error(e.span, "aggregate remains after lowering");
                    return false;
                }
                ExprKind::Prop { obj, .. } => {
                    let known = obj == outer
                        || inner == Some(obj.as_str())
                        || self
                            .info
                            .symbol(obj)
                            .is_some_and(|s| matches!(s.ty, Ty::Edge | Ty::Node));
                    if !known {
                        self.diags
                            .error(e.span, format!("cannot read property through `{obj}`"));
                    }
                    // Reads through arbitrary (non-iterator) node variables
                    // are random reads; allowed only when reading *own*
                    // data via a local alias is impossible to distinguish
                    // syntactically, so the translator performs the precise
                    // payload analysis and rejects what it cannot ship.
                }
                ExprKind::Call { obj, method, .. } => {
                    let vertex_methods = ["Degree", "OutDegree", "NumNbrs", "InDegree", "ToEdge"];
                    let graph_methods = ["NumNodes", "NumEdges"];
                    if !vertex_methods.contains(&method.as_str())
                        && !graph_methods.contains(&method.as_str())
                    {
                        self.diags.error(
                            e.span,
                            format!("`{obj}.{method}()` is not available in a vertex phase"),
                        );
                    }
                    if method == "PickRandom" {
                        self.diags.error(
                            e.span,
                            "PickRandom is a sequential-phase (master) operation",
                        );
                    }
                }
                _ => {}
            }
            true
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn canonical_result(src: &str) -> Result<(), Diagnostics> {
        let mut p = parse(src).unwrap();
        let infos = crate::sema::check(&mut p).unwrap();
        check_canonical(&p.procedures[0], &infos[0])
    }

    #[test]
    fn push_program_is_canonical() {
        canonical_result(
            "Procedure f(G: Graph, foo: N_P<Int>, bar: N_P<Int>) {
                Foreach (n: G.Nodes) {
                    Foreach (t: n.Nbrs) {
                        t.foo += n.bar;
                    }
                }
            }",
        )
        .unwrap();
    }

    #[test]
    fn pull_program_is_rejected() {
        let err = canonical_result(
            "Procedure f(G: Graph, foo: N_P<Int>, bar: N_P<Int>) {
                Foreach (n: G.Nodes) {
                    Foreach (t: n.InNbrs) {
                        n.foo += t.bar;
                    }
                }
            }",
        )
        .unwrap_err();
        assert!(err.to_string().contains("message pulling"), "{err}");
    }

    #[test]
    fn sequential_random_read_rejected() {
        let err = canonical_result(
            "Procedure f(G: Graph, s: Node, x: N_P<Int>) : Int {
                Int v = s.x;
                Return v;
            }",
        )
        .unwrap_err();
        assert!(err.to_string().contains("random reading"), "{err}");
    }

    #[test]
    fn sequential_random_write_rejected_if_not_lowered() {
        let err = canonical_result(
            "Procedure f(G: Graph, s: Node, x: N_P<Int>) {
                s.x = 1;
            }",
        )
        .unwrap_err();
        assert!(err.to_string().contains("sequential phase"), "{err}");
    }

    #[test]
    fn triple_nesting_rejected() {
        let err = canonical_result(
            "Procedure f(G: Graph, x: N_P<Int>) {
                Foreach (n: G.Nodes) {
                    Foreach (t: n.Nbrs) {
                        Foreach (u: t.Nbrs) {
                            u.x += 1;
                        }
                    }
                }
            }",
        )
        .unwrap_err();
        assert!(err.to_string().contains("doubly nested"), "{err}");
    }

    #[test]
    fn return_inside_loop_rejected() {
        let err = canonical_result(
            "Procedure f(G: Graph) : Int {
                Foreach (n: G.Nodes) {
                    Return 1;
                }
                Return 0;
            }",
        )
        .unwrap_err();
        assert!(err.to_string().contains("Return"), "{err}");
    }

    #[test]
    fn random_write_in_vertex_phase_accepted() {
        canonical_result(
            "Procedure f(G: Graph, m: N_P<Node>, x: N_P<Int>) {
                Foreach (n: G.Nodes)(n.m != NIL) {
                    Node b = n.m;
                    b.x = 1;
                }
            }",
        )
        .unwrap();
    }

    #[test]
    fn edge_prop_through_in_neighbors_rejected() {
        let err = canonical_result(
            "Procedure f(G: Graph, len: E_P<Int>, d: N_P<Int>) {
                Foreach (n: G.Nodes) {
                    Foreach (t: n.InNbrs) {
                        Edge e = t.ToEdge();
                        t.d min= e.len;
                    }
                }
            }",
        )
        .unwrap_err();
        assert!(err.to_string().contains("source vertex"), "{err}");
    }

    #[test]
    fn receiver_side_filter_accepted() {
        canonical_result(
            "Procedure f(G: Graph, suitor: N_P<Node>) {
                Foreach (b: G.Nodes)(b.suitor == NIL) {
                    Foreach (g: b.Nbrs)(g.suitor == NIL) {
                        g.suitor = b;
                    }
                }
            }",
        )
        .unwrap();
    }

    #[test]
    fn global_reduction_from_vertex_phase_accepted() {
        canonical_result(
            "Procedure f(G: Graph, cnt: N_P<Int>, K: Int) : Int {
                Int s = 0;
                Foreach (n: G.Nodes)(n.cnt > K) {
                    s += n.cnt;
                }
                Return s;
            }",
        )
        .unwrap();
    }
}
