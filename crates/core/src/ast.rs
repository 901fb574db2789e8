//! Abstract syntax tree for the Green-Marl subset.
//!
//! The same AST is used before and after the canonicalizing transformations
//! of §4.1 — those passes rewrite Green-Marl into Green-Marl, exactly as the
//! paper describes. Types are annotated in place by the semantic checker
//! ([`crate::sema`]).

use crate::diag::Span;
use crate::types::Ty;

/// A parsed compilation unit: one or more procedures.
#[derive(Clone, Debug, PartialEq)]
pub struct Program {
    /// The procedures, in source order.
    pub procedures: Vec<Procedure>,
}

impl Program {
    /// Finds a procedure by name.
    pub fn procedure(&self, name: &str) -> Option<&Procedure> {
        self.procedures.iter().find(|p| p.name == name)
    }
}

/// A Green-Marl procedure.
#[derive(Clone, Debug, PartialEq)]
pub struct Procedure {
    /// Procedure name.
    pub name: String,
    /// Formal parameters in order.
    pub params: Vec<Param>,
    /// Return type, if any.
    pub ret: Option<Ty>,
    /// Body block.
    pub body: Block,
    /// Source span of the header.
    pub span: Span,
}

/// A formal parameter.
#[derive(Clone, Debug, PartialEq)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// Declared type.
    pub ty: Ty,
    /// Source span.
    pub span: Span,
}

/// A `{ ... }` statement sequence.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Block {
    /// Statements in order.
    pub stmts: Vec<Stmt>,
}

impl Block {
    /// An empty block.
    pub fn new() -> Self {
        Self::default()
    }

    /// A block holding exactly the given statements.
    pub fn of(stmts: Vec<Stmt>) -> Self {
        Block { stmts }
    }
}

/// A statement with its source span.
#[derive(Clone, Debug, PartialEq)]
pub struct Stmt {
    /// The statement variant.
    pub kind: StmtKind,
    /// Source span ([`Span::synthetic`] for compiler-introduced nodes).
    pub span: Span,
}

impl Stmt {
    /// Wraps a kind with a synthetic span (for compiler-generated code).
    pub fn synth(kind: StmtKind) -> Self {
        Stmt {
            kind,
            span: Span::synthetic(),
        }
    }
}

/// Statement variants.
#[derive(Clone, Debug, PartialEq)]
pub enum StmtKind {
    /// Declaration of a scalar, node/edge variable, or local property.
    VarDecl {
        /// Declared type.
        ty: Ty,
        /// Variable name.
        name: String,
        /// Optional initializer (not allowed for property declarations).
        init: Option<Expr>,
    },
    /// Assignment or reduction-assignment.
    Assign {
        /// Left-hand side.
        target: Target,
        /// Operator.
        op: AssignOp,
        /// Right-hand side.
        value: Expr,
    },
    /// `If (cond) ... [Else ...]`.
    If {
        /// Condition.
        cond: Expr,
        /// Taken when true.
        then_branch: Block,
        /// Taken when false.
        else_branch: Option<Block>,
    },
    /// `While (cond) { ... }` or `Do { ... } While (cond);`.
    While {
        /// Loop condition.
        cond: Expr,
        /// Loop body.
        body: Block,
        /// Whether the condition is tested after the body (do-while).
        do_while: bool,
    },
    /// Parallel iteration (`Foreach`) or sequential (`For`).
    Foreach(Box<ForeachStmt>),
    /// BFS-order traversal with optional reverse pass.
    InBfs(Box<BfsStmt>),
    /// `Return expr;`.
    Return(Option<Expr>),
    /// A nested scope block.
    Block(Block),
}

/// A `Foreach`/`For` loop.
#[derive(Clone, Debug, PartialEq)]
pub struct ForeachStmt {
    /// Iterator variable name.
    pub iter: String,
    /// What is iterated.
    pub source: IterSource,
    /// Optional filter condition evaluated per element.
    pub filter: Option<Expr>,
    /// Loop body.
    pub body: Block,
    /// `Foreach` (parallel) vs `For` (sequential).
    pub parallel: bool,
}

/// An `InBFS` traversal with optional `InReverse` pass.
#[derive(Clone, Debug, PartialEq)]
pub struct BfsStmt {
    /// Iterator variable bound to the visited vertex.
    pub iter: String,
    /// The graph variable being traversed.
    pub graph: String,
    /// Root expression (a `Node`).
    pub root: Expr,
    /// Per-vertex body executed in BFS level order.
    pub body: Block,
    /// Optional body executed in reverse BFS order.
    pub reverse_body: Option<Block>,
}

/// Iteration sources.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IterSource {
    /// All vertices of a graph variable: `G.Nodes`.
    Nodes {
        /// The graph variable.
        graph: String,
    },
    /// Out-neighbors of a node variable: `n.Nbrs` / `n.OutNbrs`.
    OutNbrs {
        /// The node variable.
        of: String,
    },
    /// In-neighbors: `n.InNbrs`.
    InNbrs {
        /// The node variable.
        of: String,
    },
    /// BFS parents (only inside `InBFS`): `n.UpNbrs`.
    UpNbrs {
        /// The node variable.
        of: String,
    },
    /// BFS children (only inside `InBFS`/`InReverse`): `n.DownNbrs`.
    DownNbrs {
        /// The node variable.
        of: String,
    },
}

impl IterSource {
    /// The variable the source hangs off (graph or node).
    pub fn base(&self) -> &str {
        match self {
            IterSource::Nodes { graph } => graph,
            IterSource::OutNbrs { of }
            | IterSource::InNbrs { of }
            | IterSource::UpNbrs { of }
            | IterSource::DownNbrs { of } => of,
        }
    }

    /// Whether this iterates a neighborhood (rather than all vertices).
    pub fn is_neighborhood(&self) -> bool {
        !matches!(self, IterSource::Nodes { .. })
    }
}

/// Assignment targets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Target {
    /// A scalar variable.
    Scalar(String),
    /// `obj.prop` — a property of a node/edge variable, or a bulk
    /// assignment when `obj` is the graph variable.
    Prop {
        /// The node/edge/graph variable.
        obj: String,
        /// The property name.
        prop: String,
    },
}

impl Target {
    /// The variable at the base of the target.
    pub fn base(&self) -> &str {
        match self {
            Target::Scalar(name) => name,
            Target::Prop { obj, .. } => obj,
        }
    }
}

/// Assignment operators, including Green-Marl's reduction assignments and
/// the deferred assignment `<=` (whose writes become visible at the end of
/// the enclosing parallel region).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AssignOp {
    /// `=`.
    Assign,
    /// `<=` deferred assignment.
    Defer,
    /// `+=` sum reduction.
    Add,
    /// `-=`.
    Sub,
    /// `*=` product reduction.
    Mul,
    /// `min=` reduction.
    Min,
    /// `max=` reduction.
    Max,
    /// `&&=` reduction.
    And,
    /// `||=` reduction.
    Or,
}

impl AssignOp {
    /// Whether this is a commutative reduction (safe to evaluate in any
    /// order across parallel iterations).
    pub fn is_reduction(&self) -> bool {
        !matches!(self, AssignOp::Assign | AssignOp::Defer)
    }
}

/// An expression with span and (post-sema) type annotation.
#[derive(Clone, Debug, PartialEq)]
pub struct Expr {
    /// The expression variant.
    pub kind: ExprKind,
    /// Source span.
    pub span: Span,
    /// Filled in by the semantic checker.
    pub ty: Option<Ty>,
}

impl Expr {
    /// Wraps a kind with a synthetic span and no type yet.
    pub fn synth(kind: ExprKind) -> Self {
        Expr {
            kind,
            span: Span::synthetic(),
            ty: None,
        }
    }

    /// Wraps a kind with a synthetic span and a known type.
    pub fn typed(kind: ExprKind, ty: Ty) -> Self {
        Expr {
            kind,
            span: Span::synthetic(),
            ty: Some(ty),
        }
    }

    /// Convenience: a variable reference.
    pub fn var(name: &str) -> Self {
        Expr::synth(ExprKind::Var(name.to_owned()))
    }

    /// Convenience: a property access `obj.prop`.
    pub fn prop(obj: &str, prop: &str) -> Self {
        Expr::synth(ExprKind::Prop {
            obj: obj.to_owned(),
            prop: prop.to_owned(),
        })
    }

    /// Convenience: an integer literal.
    pub fn int(v: i64) -> Self {
        Expr::synth(ExprKind::IntLit(v))
    }

    /// Convenience: a boolean literal.
    pub fn bool(v: bool) -> Self {
        Expr::synth(ExprKind::BoolLit(v))
    }

    /// Convenience: a binary operation.
    pub fn binary(op: BinOp, lhs: Expr, rhs: Expr) -> Self {
        Expr::synth(ExprKind::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        })
    }

    /// The annotated type.
    ///
    /// # Panics
    ///
    /// Panics if the expression has not been through the type checker.
    pub fn ty(&self) -> &Ty {
        self.ty.as_ref().expect("expression was not type-checked")
    }

    /// Applies `f` to this expression and then, in pre-order, to every
    /// operand below it: unary, binary and ternary operands and call
    /// arguments. An aggregate's filter and body are not visited; they
    /// range over the aggregate's own iterator.
    pub(crate) fn visit<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match &self.kind {
            ExprKind::Unary { expr, .. } => expr.visit(f),
            ExprKind::Binary { lhs, rhs, .. } => {
                lhs.visit(f);
                rhs.visit(f);
            }
            ExprKind::Ternary {
                cond,
                then_val,
                else_val,
            } => {
                cond.visit(f);
                then_val.visit(f);
                else_val.visit(f);
            }
            ExprKind::Call { args, .. } => args.iter().for_each(|a| a.visit(f)),
            _ => {}
        }
    }
}

/// Expression variants.
#[derive(Clone, Debug, PartialEq)]
pub enum ExprKind {
    /// Integer literal.
    IntLit(i64),
    /// Float literal.
    FloatLit(f64),
    /// Boolean literal.
    BoolLit(bool),
    /// `INF` (type-directed: integer max or floating infinity).
    Inf {
        /// `-INF` when true.
        negative: bool,
    },
    /// `NIL` node reference.
    Nil,
    /// Variable reference.
    Var(String),
    /// Property access `obj.prop`.
    Prop {
        /// The node/edge variable (or graph for bulk reads in initializers).
        obj: String,
        /// The property name.
        prop: String,
    },
    /// Unary operation.
    Unary {
        /// The operator.
        op: UnOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Binary operation.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// `cond ? a : b`.
    Ternary {
        /// Condition.
        cond: Box<Expr>,
        /// Value when true.
        then_val: Box<Expr>,
        /// Value when false.
        else_val: Box<Expr>,
    },
    /// Aggregate over an iteration: `Sum(it: src)(filter?){body}` etc.
    Agg(Box<AggExpr>),
    /// Built-in method call: `G.NumNodes()`, `G.PickRandom()`,
    /// `n.Degree()`, `n.InDegree()`, `t.ToEdge()`.
    Call {
        /// Receiver variable.
        obj: String,
        /// Method name.
        method: String,
        /// Arguments (currently always empty in the supported built-ins).
        args: Vec<Expr>,
    },
}

/// An aggregate expression.
#[derive(Clone, Debug, PartialEq)]
pub struct AggExpr {
    /// Which aggregate.
    pub kind: AggKind,
    /// Iterator variable.
    pub iter: String,
    /// Iteration source.
    pub source: IterSource,
    /// Optional filter.
    pub filter: Option<Expr>,
    /// The aggregated expression (`None` for `Count`; the condition for
    /// `Exist`/`All` may be given as body or filter).
    pub body: Option<Expr>,
}

/// Aggregate kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AggKind {
    /// Sum of the body over matching elements.
    Sum,
    /// Product of the body.
    Product,
    /// Number of matching elements.
    Count,
    /// Maximum of the body.
    Max,
    /// Minimum of the body.
    Min,
    /// Average of the body.
    Avg,
    /// Whether any element matches.
    Exist,
    /// Whether all elements match.
    All,
}

impl AggKind {
    /// Source-syntax name.
    pub fn name(&self) -> &'static str {
        match self {
            AggKind::Sum => "Sum",
            AggKind::Product => "Product",
            AggKind::Count => "Count",
            AggKind::Max => "Max",
            AggKind::Min => "Min",
            AggKind::Avg => "Avg",
            AggKind::Exist => "Exist",
            AggKind::All => "All",
        }
    }
}

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical not.
    Not,
    /// Absolute value (`|expr|` syntax).
    Abs,
}

/// Binary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    And,
    /// `||`
    Or,
}

impl BinOp {
    /// Whether the operator yields `Bool`.
    pub fn is_comparison(&self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }

    /// Whether the operator is logical (`&&`/`||`).
    pub fn is_logical(&self) -> bool {
        matches!(self, BinOp::And | BinOp::Or)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iter_source_base_and_kind() {
        let s = IterSource::Nodes { graph: "G".into() };
        assert_eq!(s.base(), "G");
        assert!(!s.is_neighborhood());
        let n = IterSource::InNbrs { of: "n".into() };
        assert_eq!(n.base(), "n");
        assert!(n.is_neighborhood());
    }

    #[test]
    fn assign_op_reduction_classification() {
        assert!(AssignOp::Add.is_reduction());
        assert!(AssignOp::Min.is_reduction());
        assert!(!AssignOp::Assign.is_reduction());
        assert!(!AssignOp::Defer.is_reduction());
    }

    #[test]
    fn expr_builders() {
        let e = Expr::binary(BinOp::Add, Expr::int(1), Expr::var("x"));
        match e.kind {
            ExprKind::Binary { op: BinOp::Add, .. } => {}
            other => panic!("unexpected {other:?}"),
        }
        let p = Expr::prop("n", "age");
        assert!(matches!(p.kind, ExprKind::Prop { .. }));
    }

    #[test]
    #[should_panic(expected = "not type-checked")]
    fn untyped_expr_ty_panics() {
        Expr::int(1).ty();
    }

    #[test]
    fn binop_classification() {
        assert!(BinOp::Le.is_comparison());
        assert!(!BinOp::Add.is_comparison());
        assert!(BinOp::And.is_logical());
    }

    #[test]
    fn target_base() {
        assert_eq!(Target::Scalar("x".into()).base(), "x");
        assert_eq!(
            Target::Prop {
                obj: "n".into(),
                prop: "p".into()
            }
            .base(),
            "n"
        );
    }
}
