//! Semantic analysis: scoping, name uniquification, and type checking.
//!
//! The checker walks a procedure, resolves every name against lexical
//! scopes, renames shadowed binders so that names are globally unique within
//! the procedure (later passes can then treat names as identities), and
//! annotates every expression with its [`Ty`].
//!
//! It also enforces the structural constraints the paper assumes: exactly
//! one `Graph` parameter, `UpNbrs`/`DownNbrs` only inside BFS bodies, no
//! `InBFS` inside a vertex-parallel body (a `Foreach` or another `InBFS`),
//! and `ToEdge()` only on neighborhood iterators.

use crate::ast::*;
use crate::diag::{Diagnostics, Span};
use crate::types::Ty;
use std::collections::HashMap;
use std::collections::HashSet;

/// What kind of binding a name is.
#[derive(Clone, Debug, PartialEq)]
pub enum SymKind {
    /// Procedure parameter.
    Param,
    /// Locally declared variable or property.
    Local,
    /// A `Foreach`/`For`/aggregate iterator together with its source.
    Iterator {
        /// What it iterates.
        source: IterSource,
    },
    /// An `InBFS` traversal iterator.
    BfsIter,
}

/// Resolved information about one (uniquified) name.
#[derive(Clone, Debug, PartialEq)]
pub struct SymbolInfo {
    /// The declared or inferred type.
    pub ty: Ty,
    /// Binding kind.
    pub kind: SymKind,
}

/// Per-procedure results of semantic analysis.
#[derive(Clone, Debug, Default)]
pub struct ProcInfo {
    /// The unique graph parameter's name.
    pub graph: String,
    /// Every binding in the procedure, keyed by its unique name.
    pub symbols: HashMap<String, SymbolInfo>,
}

impl ProcInfo {
    /// Looks up a symbol.
    pub fn symbol(&self, name: &str) -> Option<&SymbolInfo> {
        self.symbols.get(name)
    }

    /// The type of a symbol.
    ///
    /// # Panics
    ///
    /// Panics if the name is unknown — sema guarantees all names resolve.
    pub fn ty(&self, name: &str) -> &Ty {
        &self
            .symbols
            .get(name)
            .unwrap_or_else(|| panic!("unknown symbol {name:?}"))
            .ty
    }
}

/// Checks and annotates a whole program in place.
///
/// # Errors
///
/// Returns all semantic errors found.
pub fn check(program: &mut Program) -> Result<Vec<ProcInfo>, Diagnostics> {
    let mut infos = Vec::new();
    let mut diags = Diagnostics::new();
    for proc in &mut program.procedures {
        match check_procedure(proc) {
            Ok(info) => infos.push(info),
            Err(d) => diags.errors.extend(d.errors),
        }
    }
    if diags.has_errors() {
        Err(diags)
    } else {
        Ok(infos)
    }
}

/// Checks and annotates one procedure in place.
///
/// # Errors
///
/// Returns all semantic errors found in the procedure.
pub fn check_procedure(proc: &mut Procedure) -> Result<ProcInfo, Diagnostics> {
    let mut cx = Checker {
        diags: Diagnostics::new(),
        scopes: vec![HashMap::new()],
        used_names: HashSet::new(),
        info: ProcInfo::default(),
        ret: proc.ret.clone(),
        bfs_iters: Vec::new(),
        parallel: 0,
    };

    let graphs: Vec<&Param> = proc.params.iter().filter(|p| p.ty == Ty::Graph).collect();
    if graphs.len() != 1 {
        cx.diags.error(
            proc.span,
            format!(
                "procedure `{}` must take exactly one Graph parameter, found {}",
                proc.name,
                graphs.len()
            ),
        );
        return Err(cx.diags);
    }
    cx.info.graph = graphs[0].name.clone();

    for param in &mut proc.params {
        let unique = cx.bind(&param.name, param.ty.clone(), SymKind::Param, param.span);
        param.name = unique;
    }
    cx.info.graph = cx.resolve_quiet(&cx.info.graph.clone()).unwrap_or_default();
    cx.check_block(&mut proc.body, false);

    if cx.diags.has_errors() {
        Err(cx.diags)
    } else {
        Ok(cx.info)
    }
}

struct Checker {
    diags: Diagnostics,
    /// Lexical scopes mapping source name → unique name.
    scopes: Vec<HashMap<String, String>>,
    /// All unique names handed out so far.
    used_names: HashSet<String>,
    info: ProcInfo,
    ret: Option<Ty>,
    /// BFS iterator names currently in scope (for Up/DownNbrs checks).
    bfs_iters: Vec<String>,
    /// Enclosing vertex-parallel bodies: `Foreach` and `InBFS` bodies.
    parallel: usize,
}

impl Checker {
    fn bind(&mut self, name: &str, ty: Ty, kind: SymKind, _span: Span) -> String {
        let unique = if self.used_names.contains(name) {
            let mut k = 2;
            loop {
                let candidate = format!("{name}_{k}");
                if !self.used_names.contains(&candidate) {
                    break candidate;
                }
                k += 1;
            }
        } else {
            name.to_owned()
        };
        self.used_names.insert(unique.clone());
        self.scopes
            .last_mut()
            .expect("at least one scope")
            .insert(name.to_owned(), unique.clone());
        self.info
            .symbols
            .insert(unique.clone(), SymbolInfo { ty, kind });
        unique
    }

    fn resolve_quiet(&self, name: &str) -> Option<String> {
        for scope in self.scopes.iter().rev() {
            if let Some(u) = scope.get(name) {
                return Some(u.clone());
            }
        }
        // Post-transform re-checking: names are already unique and may be
        // referenced before this walk re-binds them only if undeclared —
        // treat an exact symbol-table hit as resolved.
        if self.info.symbols.contains_key(name) {
            return Some(name.to_owned());
        }
        None
    }

    fn resolve(&mut self, name: &str, span: Span) -> Option<(String, SymbolInfo)> {
        match self.resolve_quiet(name) {
            Some(u) => {
                let info = self.info.symbols.get(&u).cloned();
                info.map(|i| (u, i))
            }
            None => {
                self.diags
                    .error(span, format!("undeclared variable `{name}`"));
                None
            }
        }
    }

    fn push_scope(&mut self) {
        self.scopes.push(HashMap::new());
    }

    fn pop_scope(&mut self) {
        self.scopes.pop();
    }

    fn check_block(&mut self, block: &mut Block, new_scope: bool) {
        if new_scope {
            self.push_scope();
        }
        for stmt in &mut block.stmts {
            self.check_stmt(stmt);
        }
        if new_scope {
            self.pop_scope();
        }
    }

    fn check_stmt(&mut self, stmt: &mut Stmt) {
        let span = stmt.span;
        match &mut stmt.kind {
            StmtKind::VarDecl { ty, name, init } => {
                if matches!(ty, Ty::Graph) {
                    self.diags
                        .error(span, "local Graph variables are not supported");
                }
                if let Some(init) = init {
                    if matches!(ty, Ty::NodeProp(_) | Ty::EdgeProp(_)) {
                        self.diags
                            .error(span, "property declarations cannot have initializers");
                    }
                    self.check_expr(init, Some(&ty.clone()));
                }
                let unique = self.bind(name, ty.clone(), SymKind::Local, span);
                *name = unique;
            }
            StmtKind::Assign { target, op, value } => {
                let target_ty = self.check_target(target, span);
                if let Some(tty) = &target_ty {
                    self.check_expr(value, Some(tty));
                    self.check_assign_op(*op, tty, span);
                } else {
                    self.check_expr(value, None);
                }
            }
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.expect_bool(cond);
                self.check_block(then_branch, true);
                if let Some(eb) = else_branch {
                    self.check_block(eb, true);
                }
            }
            StmtKind::While { cond, body, .. } => {
                self.expect_bool(cond);
                self.check_block(body, true);
            }
            StmtKind::Foreach(f) => {
                let source = f.source.clone();
                self.check_iter_source(&mut f.source, span);
                self.push_scope();
                let unique = self.bind(
                    &f.iter,
                    Ty::Node,
                    SymKind::Iterator {
                        source: f.source.clone(),
                    },
                    span,
                );
                f.iter = unique;
                let _ = source;
                if let Some(filter) = &mut f.filter {
                    self.expect_bool(filter);
                }
                let parallel = usize::from(f.parallel);
                self.parallel += parallel;
                self.check_block(&mut f.body, false);
                self.parallel -= parallel;
                self.pop_scope();
            }
            StmtKind::InBfs(b) => {
                // A traversal is a sequence of supersteps; one vertex's
                // phase cannot run another.
                if self.parallel > 0 {
                    self.diags
                        .error(span, "InBFS inside a vertex-parallel phase");
                }
                match self.resolve(&b.graph.clone(), span) {
                    Some((unique, info)) if info.ty == Ty::Graph => b.graph = unique,
                    Some(_) => self
                        .diags
                        .error(span, format!("`{}` is not a Graph", b.graph)),
                    None => {}
                }
                self.check_expr(&mut b.root, Some(&Ty::Node));
                self.push_scope();
                let unique = self.bind(&b.iter, Ty::Node, SymKind::BfsIter, span);
                b.iter = unique.clone();
                self.bfs_iters.push(unique);
                self.parallel += 1;
                self.check_block(&mut b.body, false);
                if let Some(rb) = &mut b.reverse_body {
                    self.check_block(rb, false);
                }
                self.parallel -= 1;
                self.bfs_iters.pop();
                self.pop_scope();
            }
            StmtKind::Return(value) => {
                let expected = self.ret.clone();
                match (value, &expected) {
                    (Some(v), Some(ty)) => {
                        self.check_expr(v, Some(ty));
                    }
                    (Some(v), None) => {
                        self.check_expr(v, None);
                        self.diags
                            .error(span, "procedure has no return type but returns a value");
                    }
                    (None, Some(_)) => {
                        self.diags
                            .error(span, "procedure must return a value of its return type");
                    }
                    (None, None) => {}
                }
            }
            StmtKind::Block(b) => self.check_block(b, true),
        }
    }

    fn check_assign_op(&mut self, op: AssignOp, target_ty: &Ty, span: Span) {
        let ok = match op {
            AssignOp::Assign | AssignOp::Defer => true,
            AssignOp::Add | AssignOp::Sub | AssignOp::Mul => target_ty.is_numeric(),
            AssignOp::Min | AssignOp::Max => target_ty.is_numeric() || *target_ty == Ty::Node,
            AssignOp::And | AssignOp::Or => *target_ty == Ty::Bool,
        };
        if !ok {
            self.diags.error(
                span,
                format!("reduction operator not applicable to target of type {target_ty}"),
            );
        }
    }

    /// Resolves an assignment target, returning the type being written.
    fn check_target(&mut self, target: &mut Target, span: Span) -> Option<Ty> {
        match target {
            Target::Scalar(name) => {
                let (unique, info) = self.resolve(&name.clone(), span)?;
                *name = unique;
                match info.kind {
                    SymKind::Iterator { .. } | SymKind::BfsIter => {
                        self.diags
                            .error(span, format!("cannot assign to iterator `{name}`"));
                        None
                    }
                    _ if matches!(info.ty, Ty::NodeProp(_) | Ty::EdgeProp(_)) => {
                        self.diags.error(
                            span,
                            "cannot assign a property wholesale; use `G.prop = value`",
                        );
                        None
                    }
                    _ => Some(info.ty),
                }
            }
            Target::Prop { obj, prop } => {
                let (obj_unique, obj_info) = self.resolve(&obj.clone(), span)?;
                *obj = obj_unique;
                let (prop_unique, prop_info) = self.resolve(&prop.clone(), span)?;
                *prop = prop_unique;
                match (&obj_info.ty, &prop_info.ty) {
                    (Ty::Node, Ty::NodeProp(inner)) => Some((**inner).clone()),
                    (Ty::Edge, Ty::EdgeProp(inner)) => Some((**inner).clone()),
                    (Ty::Graph, Ty::NodeProp(inner)) => {
                        // Bulk assignment target (desugared by normalize;
                        // still typed here for pre-normalize checking).
                        Some((**inner).clone())
                    }
                    (obj_ty, prop_ty) => {
                        self.diags.error(
                            span,
                            format!("cannot access property of type {prop_ty} through {obj_ty}"),
                        );
                        None
                    }
                }
            }
        }
    }

    fn check_iter_source(&mut self, source: &mut IterSource, span: Span) {
        match source {
            IterSource::Nodes { graph } => {
                if let Some((unique, info)) = self.resolve(&graph.clone(), span) {
                    if info.ty != Ty::Graph {
                        self.diags.error(span, format!("`{graph}` is not a Graph"));
                    }
                    *graph = unique;
                }
            }
            IterSource::OutNbrs { of } | IterSource::InNbrs { of } => {
                if let Some((unique, info)) = self.resolve(&of.clone(), span) {
                    if info.ty != Ty::Node {
                        self.diags.error(span, format!("`{of}` is not a Node"));
                    }
                    *of = unique;
                }
            }
            IterSource::UpNbrs { of } | IterSource::DownNbrs { of } => {
                if let Some((unique, info)) = self.resolve(&of.clone(), span) {
                    if info.ty != Ty::Node {
                        self.diags.error(span, format!("`{of}` is not a Node"));
                    }
                    if info.kind != SymKind::BfsIter || !self.bfs_iters.contains(&unique) {
                        self.diags
                            .error(span, "UpNbrs/DownNbrs require the enclosing InBFS iterator");
                    }
                    *of = unique;
                }
            }
        }
    }

    fn expect_bool(&mut self, e: &mut Expr) {
        if let Some(ty) = self.check_expr(e, Some(&Ty::Bool)) {
            if ty != Ty::Bool {
                self.diags
                    .error(e.span, format!("expected Bool condition, found {ty}"));
            }
        }
    }

    /// Type-checks `e`, annotating `e.ty`. `expected` guides the typing of
    /// context-dependent literals (`INF`, `NIL`).
    fn check_expr(&mut self, e: &mut Expr, expected: Option<&Ty>) -> Option<Ty> {
        let span = e.span;
        let ty: Option<Ty> = match &mut e.kind {
            ExprKind::IntLit(_) => Some(Ty::Int),
            ExprKind::FloatLit(_) => Some(Ty::Double),
            ExprKind::BoolLit(_) => Some(Ty::Bool),
            ExprKind::Inf { .. } => match expected {
                Some(t) if t.is_numeric() => Some(t.clone()),
                _ => {
                    self.diags
                        .error(span, "cannot infer the numeric type of INF here");
                    None
                }
            },
            ExprKind::Nil => Some(Ty::Node),
            ExprKind::Var(name) => {
                let resolved = self.resolve(&name.clone(), span);
                match resolved {
                    Some((unique, info)) => {
                        *name = unique;
                        Some(info.ty)
                    }
                    None => None,
                }
            }
            ExprKind::Prop { obj, prop } => {
                let obj_r = self.resolve(&obj.clone(), span);
                let prop_r = self.resolve(&prop.clone(), span);
                match (obj_r, prop_r) {
                    (Some((ou, oi)), Some((pu, pi))) => {
                        *obj = ou;
                        *prop = pu;
                        match (&oi.ty, &pi.ty) {
                            (Ty::Node, Ty::NodeProp(inner)) => Some((**inner).clone()),
                            (Ty::Edge, Ty::EdgeProp(inner)) => Some((**inner).clone()),
                            (ot, pt) => {
                                self.diags.error(
                                    span,
                                    format!("cannot read property of type {pt} through {ot}"),
                                );
                                None
                            }
                        }
                    }
                    _ => None,
                }
            }
            ExprKind::Unary { op, expr } => {
                let op = *op;
                let inner_expected = match op {
                    UnOp::Not => Some(Ty::Bool),
                    UnOp::Neg | UnOp::Abs => expected.cloned().filter(|t| t.is_numeric()),
                };
                let t = self.check_expr(expr, inner_expected.as_ref())?;
                match op {
                    UnOp::Not if t == Ty::Bool => Some(Ty::Bool),
                    UnOp::Neg | UnOp::Abs if t.is_numeric() => Some(t),
                    _ => {
                        self.diags
                            .error(span, format!("unary operator not applicable to {t}"));
                        None
                    }
                }
            }
            ExprKind::Binary { op, lhs, rhs } => {
                let op = *op;
                let operand_expected: Option<Ty> = match op {
                    BinOp::And | BinOp::Or => Some(Ty::Bool),
                    BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => None,
                    _ => expected.cloned().filter(|t| t.is_numeric()),
                };
                // For comparisons with INF/NIL on one side, type the other
                // side first and use it as the expectation.
                let lt;
                let rt;
                if matches!(lhs.kind, ExprKind::Inf { .. } | ExprKind::Nil)
                    && !matches!(rhs.kind, ExprKind::Inf { .. } | ExprKind::Nil)
                {
                    rt = self.check_expr(rhs, operand_expected.as_ref());
                    lt = self.check_expr(lhs, rt.as_ref().or(operand_expected.as_ref()));
                } else {
                    lt = self.check_expr(lhs, operand_expected.as_ref());
                    rt = self.check_expr(rhs, lt.as_ref().or(operand_expected.as_ref()));
                }
                let (lt, rt) = (lt?, rt?);
                match op {
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
                        match lt.join_numeric(&rt) {
                            Some(t) => Some(t),
                            None => {
                                self.diags.error(
                                    span,
                                    format!(
                                        "arithmetic requires numeric operands, found {lt} and {rt}"
                                    ),
                                );
                                None
                            }
                        }
                    }
                    BinOp::Mod => {
                        if lt.is_integer() && rt.is_integer() {
                            Some(lt)
                        } else {
                            self.diags.error(span, "% requires integer operands");
                            None
                        }
                    }
                    BinOp::Eq | BinOp::Ne => {
                        let compatible = lt.join_numeric(&rt).is_some()
                            || (lt == rt && matches!(lt, Ty::Bool | Ty::Node | Ty::Edge));
                        if !compatible {
                            self.diags
                                .error(span, format!("cannot compare {lt} with {rt}"));
                        }
                        Some(Ty::Bool)
                    }
                    BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                        if lt.join_numeric(&rt).is_none() {
                            self.diags.error(
                                span,
                                format!("ordering requires numeric operands, found {lt} and {rt}"),
                            );
                        }
                        Some(Ty::Bool)
                    }
                    BinOp::And | BinOp::Or => {
                        if lt != Ty::Bool || rt != Ty::Bool {
                            self.diags
                                .error(span, "logical operators require Bool operands");
                        }
                        Some(Ty::Bool)
                    }
                }
            }
            ExprKind::Ternary {
                cond,
                then_val,
                else_val,
            } => {
                self.expect_bool(cond);
                let tt = self.check_expr(then_val, expected);
                let et = self.check_expr(else_val, expected.or(tt.as_ref()));
                match (tt, et) {
                    (Some(a), Some(b)) => {
                        if a == b {
                            Some(a)
                        } else if let Some(j) = a.join_numeric(&b) {
                            Some(j)
                        } else {
                            self.diags.error(
                                span,
                                format!("ternary branches have incompatible types {a} and {b}"),
                            );
                            None
                        }
                    }
                    _ => None,
                }
            }
            ExprKind::Agg(agg) => {
                self.check_iter_source(&mut agg.source, span);
                self.push_scope();
                let unique = self.bind(
                    &agg.iter.clone(),
                    Ty::Node,
                    SymKind::Iterator {
                        source: agg.source.clone(),
                    },
                    span,
                );
                agg.iter = unique;
                if let Some(f) = &mut agg.filter {
                    self.expect_bool(f);
                }
                let body_ty = agg.body.as_mut().map(|b| self.check_expr(b, None));
                self.pop_scope();
                match agg.kind {
                    AggKind::Count => Some(Ty::Int),
                    AggKind::Exist | AggKind::All => {
                        // The condition may live in the body slot.
                        if let Some(Some(t)) = &body_ty {
                            if *t != Ty::Bool {
                                self.diags.error(span, "Exist/All condition must be Bool");
                            }
                        } else if agg.filter.is_none() {
                            self.diags.error(span, "Exist/All require a condition");
                        }
                        Some(Ty::Bool)
                    }
                    AggKind::Avg => Some(Ty::Double),
                    AggKind::Sum | AggKind::Product | AggKind::Max | AggKind::Min => {
                        match body_ty {
                            Some(Some(t)) if t.is_numeric() => Some(t),
                            Some(Some(t)) => {
                                self.diags.error(
                                    span,
                                    format!(
                                        "{} requires a numeric body, found {t}",
                                        agg.kind.name()
                                    ),
                                );
                                None
                            }
                            _ => None,
                        }
                    }
                }
            }
            ExprKind::Call { obj, method, args } => {
                let method_name = method.clone();
                for a in args.iter_mut() {
                    self.check_expr(a, None);
                }
                if !args.is_empty() {
                    self.diags
                        .error(span, format!("built-in `{method_name}` takes no arguments"));
                }
                let resolved = self.resolve(&obj.clone(), span);
                match resolved {
                    Some((unique, info)) => {
                        *obj = unique.clone();
                        match (info.ty.clone(), method_name.as_str()) {
                            (Ty::Graph, "NumNodes") | (Ty::Graph, "NumEdges") => Some(Ty::Int),
                            (Ty::Graph, "PickRandom") => Some(Ty::Node),
                            (Ty::Node, "Degree")
                            | (Ty::Node, "OutDegree")
                            | (Ty::Node, "NumNbrs") => Some(Ty::Int),
                            (Ty::Node, "InDegree") => Some(Ty::Int),
                            (Ty::Node, "ToEdge") => {
                                let is_nbr_iter = matches!(
                                    info.kind,
                                    SymKind::Iterator { ref source } if source.is_neighborhood()
                                );
                                if !is_nbr_iter {
                                    self.diags.error(
                                        span,
                                        "ToEdge() is only available on neighborhood iterators",
                                    );
                                }
                                Some(Ty::Edge)
                            }
                            (ty, m) => {
                                self.diags.error(
                                    span,
                                    format!("unknown built-in `{m}` on receiver of type {ty}"),
                                );
                                None
                            }
                        }
                    }
                    None => None,
                }
            }
        };
        e.ty = ty.clone();
        ty
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn check_src(src: &str) -> Result<(Program, Vec<ProcInfo>), Diagnostics> {
        let mut p = parse(src).expect("parse failed");
        let infos = check(&mut p)?;
        Ok((p, infos))
    }

    fn check_err(src: &str) -> Diagnostics {
        match check_src(src) {
            Ok(_) => panic!("expected semantic error"),
            Err(d) => d,
        }
    }

    #[test]
    fn simple_procedure_checks() {
        let (_, infos) = check_src(
            "Procedure f(G: Graph, age: N_P<Int>, K: Int) : Int {
                Int s = 0;
                Foreach (n: G.Nodes)(n.age > K) {
                    s += n.age;
                }
                Return s;
            }",
        )
        .unwrap();
        assert_eq!(infos[0].graph, "G");
        assert_eq!(*infos[0].ty("s"), Ty::Int);
        assert!(matches!(
            infos[0].symbol("n").unwrap().kind,
            SymKind::Iterator { .. }
        ));
    }

    #[test]
    fn shadowed_names_are_uniquified() {
        let (p, infos) = check_src(
            "Procedure f(G: Graph, x: N_P<Int>) {
                Foreach (n: G.Nodes) {
                    n.x = 0;
                }
                Foreach (n: G.Nodes) {
                    n.x = 1;
                }
            }",
        )
        .unwrap();
        // The two loop iterators got distinct names.
        let (a, b) = match (
            &p.procedures[0].body.stmts[0].kind,
            &p.procedures[0].body.stmts[1].kind,
        ) {
            (StmtKind::Foreach(a), StmtKind::Foreach(b)) => (a.iter.clone(), b.iter.clone()),
            other => panic!("unexpected {other:?}"),
        };
        assert_ne!(a, b);
        assert!(infos[0].symbol(&a).is_some());
        assert!(infos[0].symbol(&b).is_some());
    }

    #[test]
    fn inf_types_from_context() {
        let (p, _) = check_src(
            "Procedure f(G: Graph, dist: N_P<Int>) {
                Foreach (n: G.Nodes) {
                    n.dist = INF;
                }
            }",
        )
        .unwrap();
        match &p.procedures[0].body.stmts[0].kind {
            StmtKind::Foreach(f) => match &f.body.stmts[0].kind {
                StmtKind::Assign { value, .. } => assert_eq!(value.ty, Some(Ty::Int)),
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn inf_in_comparison_takes_other_side_type() {
        let (p, _) = check_src(
            "Procedure f(G: Graph, dist: N_P<Int>) {
                Foreach (n: G.Nodes)(n.dist == INF) {
                    n.dist = 0;
                }
            }",
        )
        .unwrap();
        match &p.procedures[0].body.stmts[0].kind {
            StmtKind::Foreach(f) => {
                let filter = f.filter.as_ref().unwrap();
                match &filter.kind {
                    ExprKind::Binary { rhs, .. } => assert_eq!(rhs.ty, Some(Ty::Int)),
                    other => panic!("unexpected {other:?}"),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn undeclared_variable_is_reported() {
        let d = check_err("Procedure f(G: Graph) { x = 1; }");
        assert!(d.to_string().contains("undeclared"));
    }

    #[test]
    fn two_graphs_rejected() {
        let d = check_err("Procedure f(G: Graph, H: Graph) { }");
        assert!(d.to_string().contains("exactly one Graph"));
    }

    #[test]
    fn up_nbrs_outside_bfs_rejected() {
        let d = check_err(
            "Procedure f(G: Graph, x: N_P<Int>) {
                Foreach (n: G.Nodes) {
                    Foreach (t: n.UpNbrs) {
                        n.x += 1;
                    }
                }
            }",
        );
        assert!(d.to_string().contains("InBFS"));
    }

    #[test]
    fn in_bfs_inside_a_vertex_parallel_body_rejected() {
        for src in [
            "Procedure f(G: Graph, s: Node, p: N_P<Int>) {
                InBFS (v: G.Nodes From s) {
                    Int c = 0;
                    InBFS (u: G.Nodes From v) { c += 1; u.p = 1; }
                    v.p = c;
                }
            }",
            "Procedure f(G: Graph, s: Node, p: N_P<Int>) {
                InBFS (v: G.Nodes From s) { v.p = 1; }
                InReverse {
                    InBFS (u: G.Nodes From v) { u.p = Sum(w: v.UpNbrs){1}; }
                }
            }",
            "Procedure f(G: Graph, s: Node, p: N_P<Int>) {
                Foreach (n: G.Nodes) {
                    InBFS (u: G.Nodes From n) { u.p = 1; }
                }
            }",
        ] {
            let d = check_err(src).to_string();
            assert!(d.contains("InBFS inside a vertex-parallel phase"), "{d}");
            assert!(!d.contains("undeclared") && !d.contains("UpNbrs"), "{d}");
        }
    }

    #[test]
    fn up_nbrs_inside_bfs_accepted() {
        check_src(
            "Procedure f(G: Graph, s: Node, sigma: N_P<Double>) {
                InBFS (v: G.Nodes From s) {
                    v.sigma = Sum(w: v.UpNbrs){w.sigma};
                }
            }",
        )
        .unwrap();
    }

    #[test]
    fn to_edge_requires_neighbor_iterator() {
        let d = check_err(
            "Procedure f(G: Graph, len: E_P<Int>, x: N_P<Int>) {
                Foreach (n: G.Nodes) {
                    Edge e = n.ToEdge();
                    n.x = 1;
                }
            }",
        );
        assert!(d.to_string().contains("ToEdge"));
        check_src(
            "Procedure f(G: Graph, len: E_P<Int>, d: N_P<Int>) {
                Foreach (n: G.Nodes) {
                    Foreach (s: n.Nbrs) {
                        Edge e = s.ToEdge();
                        s.d min= n.d + e.len;
                    }
                }
            }",
        )
        .unwrap();
    }

    #[test]
    fn iterator_assignment_rejected() {
        let d = check_err(
            "Procedure f(G: Graph) {
                Foreach (n: G.Nodes) {
                    n = NIL;
                }
            }",
        );
        assert!(d.to_string().contains("iterator"));
    }

    #[test]
    fn reduction_op_type_rules() {
        let d = check_err(
            "Procedure f(G: Graph, flag: N_P<Bool>) {
                Foreach (n: G.Nodes) {
                    n.flag += 1;
                }
            }",
        );
        assert!(d.to_string().contains("reduction operator"));
    }

    #[test]
    fn node_comparison_with_nil() {
        check_src(
            "Procedure f(G: Graph, m: N_P<Node>, c: N_P<Int>) {
                Foreach (n: G.Nodes)(n.m == NIL) {
                    n.c = 1;
                }
            }",
        )
        .unwrap();
    }

    #[test]
    fn return_type_mismatch() {
        let d = check_err("Procedure f(G: Graph) : Int { Return; }");
        assert!(d.to_string().contains("return"));
    }

    #[test]
    fn aggregate_bodies_typed() {
        let (p, _) = check_src(
            "Procedure f(G: Graph, pr: N_P<Double>) : Double {
                Double s = Sum(n: G.Nodes){n.pr / n.Degree()};
                Return s;
            }",
        )
        .unwrap();
        match &p.procedures[0].body.stmts[0].kind {
            StmtKind::VarDecl { init, .. } => {
                assert_eq!(init.as_ref().unwrap().ty, Some(Ty::Double));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn exist_with_condition_in_filter_slot() {
        check_src(
            "Procedure f(G: Graph, updated: N_P<Bool>) : Bool {
                Bool fin = !Exist(n: G.Nodes)(n.updated);
                Return fin;
            }",
        )
        .unwrap();
    }

    #[test]
    fn bulk_target_through_graph_is_typed() {
        // Pre-normalize form: G.dist = 0 is accepted by sema (normalize
        // rewrites it into a Foreach before translation).
        check_src(
            "Procedure f(G: Graph, dist: N_P<Int>) {
                G.dist = 0;
            }",
        )
        .unwrap();
    }

    #[test]
    fn rechecking_is_idempotent() {
        let src = "Procedure f(G: Graph, age: N_P<Int>, K: Int) : Int {
            Int s = 0;
            Foreach (n: G.Nodes)(n.age > K) {
                s += n.age;
            }
            Return s;
        }";
        let mut p = parse(src).unwrap();
        check(&mut p).unwrap();
        let printed1 = crate::pretty::program_to_string(&p);
        check(&mut p).unwrap();
        let printed2 = crate::pretty::program_to_string(&p);
        assert_eq!(printed1, printed2);
    }
}
