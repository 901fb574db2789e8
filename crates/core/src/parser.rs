//! Recursive-descent parser for the Green-Marl subset.
//!
//! The grammar follows the Green-Marl sources shown in the paper (Figures 2
//! and 4 and the Appendix): procedures, scalar/property declarations,
//! (reduction) assignments, `If`/`While`/`Do-While`, parallel `Foreach` with
//! optional filters, `InBFS`/`InReverse` traversals, and aggregate
//! expressions (`Sum`, `Count`, `Exist`, ...).

use crate::ast::*;
use crate::diag::{Diag, Diagnostics, Span};
use crate::lexer::{lex, Tok, Token};
use crate::types::Ty;

/// Parses a complete Green-Marl source text.
///
/// # Errors
///
/// Returns all lexical errors (first only) or the first syntax error.
pub fn parse(src: &str) -> Result<Program, Diagnostics> {
    let tokens = lex(src).map_err(|d| Diagnostics { errors: vec![d] })?;
    let mut p = Parser::new(tokens);
    match p.program() {
        Ok(prog) => Ok(prog),
        Err(d) => Err(Diagnostics { errors: vec![d] }),
    }
}

/// Parses a single expression — used by tests and the REPL-style examples.
///
/// # Errors
///
/// Returns the first lexical or syntax error.
pub fn parse_expr(src: &str) -> Result<Expr, Diagnostics> {
    let tokens = lex(src).map_err(|d| Diagnostics { errors: vec![d] })?;
    let mut p = Parser::new(tokens);
    let e = p.expr().map_err(|d| Diagnostics { errors: vec![d] })?;
    p.expect(&Tok::Eof)
        .map_err(|d| Diagnostics { errors: vec![d] })?;
    Ok(e)
}

/// The deepest nesting of statements and expressions the parser accepts.
/// Every pass after it recurses once per level of the tree it builds, on
/// whatever thread compiles (a gmd connection thread has 2 MiB of stack).
/// A statement, an expression, a prefix operator, each operator of a
/// left-associative chain (`a + b + c`) and a property type's element
/// type open one level each.
pub const MAX_NESTING: usize = 64;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Levels open around the current token (see [`MAX_NESTING`]).
    depth: usize,
}

type PResult<T> = Result<T, Diag>;

impl Parser {
    fn new(tokens: Vec<Token>) -> Self {
        Parser {
            tokens,
            pos: 0,
            depth: 0,
        }
    }

    fn peek(&self) -> &Tok {
        &self.tokens[self.pos].tok
    }

    fn peek2(&self) -> &Tok {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].tok
    }

    fn span(&self) -> Span {
        self.tokens[self.pos].span
    }

    fn prev_span(&self) -> Span {
        self.tokens[self.pos.saturating_sub(1)].span
    }

    fn bump(&mut self) -> Tok {
        let t = self.tokens[self.pos].tok.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, tok: &Tok) -> bool {
        if self.peek() == tok {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: &Tok) -> PResult<Span> {
        if self.peek() == tok {
            let sp = self.span();
            self.bump();
            Ok(sp)
        } else {
            Err(Diag::new(
                self.span(),
                format!("expected {tok}, found {}", self.peek()),
            ))
        }
    }

    /// Opens one more nesting level and returns the depth to restore when
    /// it closes.
    fn descend(&mut self) -> PResult<usize> {
        if self.depth == MAX_NESTING {
            return Err(Diag::new(
                self.span(),
                format!("nesting deeper than {MAX_NESTING} levels"),
            ));
        }
        self.depth += 1;
        Ok(self.depth - 1)
    }

    /// Runs `parse` one nesting level deeper.
    fn nested<T>(&mut self, parse: impl FnOnce(&mut Self) -> PResult<T>) -> PResult<T> {
        let outer = self.descend()?;
        let parsed = parse(self);
        self.depth = outer;
        parsed
    }

    fn ident(&mut self) -> PResult<String> {
        match self.peek().clone() {
            Tok::Ident(name) => {
                self.bump();
                Ok(name)
            }
            other => Err(Diag::new(
                self.span(),
                format!("expected identifier, found {other}"),
            )),
        }
    }

    // ---- program structure ----

    fn program(&mut self) -> PResult<Program> {
        let mut procedures = Vec::new();
        while self.peek() != &Tok::Eof {
            procedures.push(self.procedure()?);
        }
        if procedures.is_empty() {
            return Err(Diag::new(self.span(), "empty input: expected a Procedure"));
        }
        Ok(Program { procedures })
    }

    fn procedure(&mut self) -> PResult<Procedure> {
        let start = self.expect(&Tok::Procedure)?;
        let name = self.ident()?;
        self.expect(&Tok::LParen)?;
        let mut params = Vec::new();
        if self.peek() != &Tok::RParen {
            loop {
                // One or more names sharing a type: `a, b: T`.
                let mut names = vec![(self.ident()?, self.prev_span())];
                while self.eat(&Tok::Comma) {
                    // Lookahead: `name :` continues this group only if the
                    // token after the name is not a ':' starting a new type
                    // for the *same* group... groups always end at ':'.
                    names.push((self.ident()?, self.prev_span()));
                    if self.peek() == &Tok::Colon {
                        break;
                    }
                }
                self.expect(&Tok::Colon)?;
                let ty = self.ty()?;
                for (n, sp) in names {
                    params.push(Param {
                        name: n,
                        ty: ty.clone(),
                        span: sp,
                    });
                }
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        self.expect(&Tok::RParen)?;
        let ret = if self.eat(&Tok::Colon) {
            Some(self.ty()?)
        } else {
            None
        };
        let body = self.block()?;
        Ok(Procedure {
            name,
            params,
            ret,
            body,
            span: start,
        })
    }

    fn ty(&mut self) -> PResult<Ty> {
        let sp = self.span();
        let name = self.ident()?;
        let ty = match name.as_str() {
            "Int" => Ty::Int,
            "Long" => Ty::Long,
            "Float" => Ty::Float,
            "Double" => Ty::Double,
            "Bool" => Ty::Bool,
            "Node" => Ty::Node,
            "Edge" => Ty::Edge,
            "Graph" => Ty::Graph,
            "Node_Prop" | "N_P" | "NodeProp" => {
                self.expect(&Tok::Lt)?;
                let inner = self.nested(Self::ty)?;
                self.expect(&Tok::Gt)?;
                self.maybe_graph_binding()?;
                return Ok(Ty::NodeProp(Box::new(inner)));
            }
            "Edge_Prop" | "E_P" | "EdgeProp" => {
                self.expect(&Tok::Lt)?;
                let inner = self.nested(Self::ty)?;
                self.expect(&Tok::Gt)?;
                self.maybe_graph_binding()?;
                return Ok(Ty::EdgeProp(Box::new(inner)));
            }
            other => {
                return Err(Diag::new(sp, format!("unknown type `{other}`")));
            }
        };
        Ok(ty)
    }

    /// Accepts and ignores the optional graph binding `(G)` after a property
    /// type — the subset supports only a single input graph.
    fn maybe_graph_binding(&mut self) -> PResult<()> {
        if self.eat(&Tok::LParen) {
            self.ident()?;
            self.expect(&Tok::RParen)?;
        }
        Ok(())
    }

    fn is_type_name(tok: &Tok) -> bool {
        matches!(tok, Tok::Ident(name) if matches!(
            name.as_str(),
            "Int" | "Long" | "Float" | "Double" | "Bool" | "Node" | "Edge" | "Graph"
                | "Node_Prop" | "N_P" | "NodeProp" | "Edge_Prop" | "E_P" | "EdgeProp"
        ))
    }

    // ---- statements ----

    fn block(&mut self) -> PResult<Block> {
        self.expect(&Tok::LBrace)?;
        let mut stmts = Vec::new();
        while self.peek() != &Tok::RBrace {
            if self.peek() == &Tok::Eof {
                return Err(Diag::new(
                    self.span(),
                    "unexpected end of input inside block",
                ));
            }
            if self.eat(&Tok::Semi) {
                continue; // empty statement
            }
            self.append_stmt(&mut stmts)?;
        }
        self.expect(&Tok::RBrace)?;
        Ok(Block { stmts })
    }

    /// Parses one source statement, which may expand to several AST
    /// statements (multi-declarators like `Int a = 0, b = 1;` are spliced
    /// into the surrounding block so the declared names stay in scope).
    fn append_stmt(&mut self, out: &mut Vec<Stmt>) -> PResult<()> {
        if Self::is_type_name(self.peek()) && matches!(self.peek2(), Tok::Ident(_) | Tok::Lt) {
            self.var_decls(out)
        } else {
            let s = self.stmt()?;
            out.push(s);
            Ok(())
        }
    }

    /// Parses a statement; single statements after `If`/`While`/loops are
    /// wrapped into one-element blocks by the callers.
    fn stmt(&mut self) -> PResult<Stmt> {
        self.nested(Self::unnested_stmt)
    }

    fn unnested_stmt(&mut self) -> PResult<Stmt> {
        let sp = self.span();
        match self.peek().clone() {
            Tok::LBrace => {
                let b = self.block()?;
                Ok(Stmt {
                    kind: StmtKind::Block(b),
                    span: sp,
                })
            }
            Tok::If => self.if_stmt(),
            Tok::While => self.while_stmt(),
            Tok::Do => self.do_while_stmt(),
            Tok::Foreach => self.foreach_stmt(true),
            Tok::For => self.foreach_stmt(false),
            Tok::InBfs => self.inbfs_stmt(),
            Tok::Return => {
                self.bump();
                let value = if self.peek() == &Tok::Semi {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(&Tok::Semi)?;
                Ok(Stmt {
                    kind: StmtKind::Return(value),
                    span: sp,
                })
            }
            tok if Self::is_type_name(&tok) && matches!(self.peek2(), Tok::Ident(_) | Tok::Lt) => {
                // A declaration in single-statement position (e.g. the body
                // of an If without braces); multi-declarators become a block.
                let mut stmts = Vec::new();
                self.var_decls(&mut stmts)?;
                if stmts.len() == 1 {
                    Ok(stmts.pop().expect("one statement parsed"))
                } else {
                    Ok(Stmt {
                        kind: StmtKind::Block(Block { stmts }),
                        span: sp,
                    })
                }
            }
            Tok::Ident(_) => self.assign_stmt(),
            other => Err(Diag::new(sp, format!("expected statement, found {other}"))),
        }
    }

    /// Parses `T a [= e] [, b [= e]]* ;` into one `VarDecl` per declarator.
    fn var_decls(&mut self, out: &mut Vec<Stmt>) -> PResult<()> {
        let sp = self.span();
        let ty = self.ty()?;
        loop {
            let name = self.ident()?;
            let init = if self.eat(&Tok::Assign) {
                Some(self.expr()?)
            } else {
                None
            };
            out.push(Stmt {
                kind: StmtKind::VarDecl {
                    ty: ty.clone(),
                    name,
                    init,
                },
                span: sp,
            });
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        self.expect(&Tok::Semi)?;
        Ok(())
    }

    fn assign_stmt(&mut self) -> PResult<Stmt> {
        let sp = self.span();
        let base = self.ident()?;
        let target = if self.eat(&Tok::Dot) {
            let prop = self.ident()?;
            Target::Prop { obj: base, prop }
        } else {
            Target::Scalar(base)
        };
        // Determine the operator; `min=`/`max=` arrive as Ident + Assign.
        let op = match self.peek().clone() {
            Tok::Assign => {
                self.bump();
                AssignOp::Assign
            }
            Tok::Le => {
                self.bump();
                AssignOp::Defer
            }
            Tok::PlusAssign => {
                self.bump();
                AssignOp::Add
            }
            Tok::MinusAssign => {
                self.bump();
                AssignOp::Sub
            }
            Tok::StarAssign => {
                self.bump();
                AssignOp::Mul
            }
            Tok::AndAssign => {
                self.bump();
                AssignOp::And
            }
            Tok::OrAssign => {
                self.bump();
                AssignOp::Or
            }
            Tok::PlusPlus => {
                self.bump();
                self.expect(&Tok::Semi)?;
                return Ok(Stmt {
                    kind: StmtKind::Assign {
                        target,
                        op: AssignOp::Add,
                        value: Expr {
                            kind: ExprKind::IntLit(1),
                            span: sp,
                            ty: None,
                        },
                    },
                    span: sp,
                });
            }
            Tok::Ident(name)
                if (name == "min" || name == "max") && self.peek2() == &Tok::Assign =>
            {
                self.bump();
                self.bump();
                if name == "min" {
                    AssignOp::Min
                } else {
                    AssignOp::Max
                }
            }
            other => {
                return Err(Diag::new(
                    self.span(),
                    format!("expected assignment operator, found {other}"),
                ))
            }
        };
        let value = self.expr()?;
        // Optional reduction binding `@ ident` (accepted, not used: the
        // subset infers the binding from loop structure).
        if self.eat(&Tok::At) {
            self.ident()?;
        }
        self.expect(&Tok::Semi)?;
        Ok(Stmt {
            kind: StmtKind::Assign { target, op, value },
            span: sp,
        })
    }

    fn stmt_as_block(&mut self) -> PResult<Block> {
        if self.peek() == &Tok::LBrace {
            self.block()
        } else {
            let s = self.stmt()?;
            Ok(Block { stmts: vec![s] })
        }
    }

    fn if_stmt(&mut self) -> PResult<Stmt> {
        let sp = self.expect(&Tok::If)?;
        self.expect(&Tok::LParen)?;
        let cond = self.expr()?;
        self.expect(&Tok::RParen)?;
        let then_branch = self.stmt_as_block()?;
        let else_branch = if self.eat(&Tok::Else) {
            Some(self.stmt_as_block()?)
        } else {
            None
        };
        Ok(Stmt {
            kind: StmtKind::If {
                cond,
                then_branch,
                else_branch,
            },
            span: sp,
        })
    }

    fn while_stmt(&mut self) -> PResult<Stmt> {
        let sp = self.expect(&Tok::While)?;
        self.expect(&Tok::LParen)?;
        let cond = self.expr()?;
        self.expect(&Tok::RParen)?;
        let body = self.stmt_as_block()?;
        Ok(Stmt {
            kind: StmtKind::While {
                cond,
                body,
                do_while: false,
            },
            span: sp,
        })
    }

    fn do_while_stmt(&mut self) -> PResult<Stmt> {
        let sp = self.expect(&Tok::Do)?;
        let body = self.stmt_as_block()?;
        self.expect(&Tok::While)?;
        self.expect(&Tok::LParen)?;
        let cond = self.expr()?;
        self.expect(&Tok::RParen)?;
        self.expect(&Tok::Semi)?;
        Ok(Stmt {
            kind: StmtKind::While {
                cond,
                body,
                do_while: true,
            },
            span: sp,
        })
    }

    fn iter_source(&mut self) -> PResult<IterSource> {
        let base = self.ident()?;
        self.expect(&Tok::Dot)?;
        let sp = self.span();
        let kind = self.ident()?;
        match kind.as_str() {
            "Nodes" => Ok(IterSource::Nodes { graph: base }),
            "Nbrs" | "OutNbrs" => Ok(IterSource::OutNbrs { of: base }),
            "InNbrs" => Ok(IterSource::InNbrs { of: base }),
            "UpNbrs" => Ok(IterSource::UpNbrs { of: base }),
            "DownNbrs" => Ok(IterSource::DownNbrs { of: base }),
            other => Err(Diag::new(
                sp,
                format!("unknown iteration source `{other}` (expected Nodes, Nbrs, InNbrs, UpNbrs or DownNbrs)"),
            )),
        }
    }

    /// Optional filter after an iterator header: `(cond)` or `[cond]`.
    fn maybe_filter(&mut self) -> PResult<Option<Expr>> {
        if self.eat(&Tok::LBracket) {
            let e = self.expr()?;
            self.expect(&Tok::RBracket)?;
            Ok(Some(e))
        } else if self.peek() == &Tok::LParen {
            self.bump();
            let e = self.expr()?;
            self.expect(&Tok::RParen)?;
            Ok(Some(e))
        } else {
            Ok(None)
        }
    }

    fn foreach_stmt(&mut self, parallel: bool) -> PResult<Stmt> {
        let sp = self.bump(); // Foreach / For
        debug_assert!(matches!(sp, Tok::Foreach | Tok::For));
        let sp = self.prev_span();
        self.expect(&Tok::LParen)?;
        let iter = self.ident()?;
        self.expect(&Tok::Colon)?;
        let source = self.iter_source()?;
        self.expect(&Tok::RParen)?;
        let filter = self.maybe_filter()?;
        let body = self.stmt_as_block()?;
        Ok(Stmt {
            kind: StmtKind::Foreach(Box::new(ForeachStmt {
                iter,
                source,
                filter,
                body,
                parallel,
            })),
            span: sp,
        })
    }

    fn inbfs_stmt(&mut self) -> PResult<Stmt> {
        let sp = self.expect(&Tok::InBfs)?;
        self.expect(&Tok::LParen)?;
        let iter = self.ident()?;
        self.expect(&Tok::Colon)?;
        let graph = self.ident()?;
        self.expect(&Tok::Dot)?;
        let nodes_sp = self.span();
        let nodes = self.ident()?;
        if nodes != "Nodes" {
            return Err(Diag::new(nodes_sp, "InBFS iterates `G.Nodes`"));
        }
        self.expect(&Tok::From)?;
        let root = self.expr()?;
        self.expect(&Tok::RParen)?;
        let body = self.block()?;
        let reverse_body = if self.eat(&Tok::InReverse) {
            Some(self.block()?)
        } else {
            None
        };
        Ok(Stmt {
            kind: StmtKind::InBfs(Box::new(BfsStmt {
                iter,
                graph,
                root,
                body,
                reverse_body,
            })),
            span: sp,
        })
    }

    // ---- expressions (precedence climbing) ----

    fn expr(&mut self) -> PResult<Expr> {
        self.nested(Self::ternary)
    }

    fn ternary(&mut self) -> PResult<Expr> {
        let cond = self.or_expr()?;
        if self.eat(&Tok::Question) {
            let then_val = self.expr()?;
            self.expect(&Tok::Colon)?;
            let else_val = self.expr()?;
            let span = cond.span.merge(else_val.span);
            Ok(Expr {
                kind: ExprKind::Ternary {
                    cond: Box::new(cond),
                    then_val: Box::new(then_val),
                    else_val: Box::new(else_val),
                },
                span,
                ty: None,
            })
        } else {
            Ok(cond)
        }
    }

    fn binary_level(
        &mut self,
        next: fn(&mut Self) -> PResult<Expr>,
        ops: &[(Tok, BinOp)],
    ) -> PResult<Expr> {
        let outer = self.depth;
        let mut lhs = next(self)?;
        'outer: loop {
            for (tok, op) in ops {
                if self.peek() == tok {
                    self.bump();
                    // The tree grows one level per operator.
                    self.descend()?;
                    let rhs = next(self)?;
                    let span = lhs.span.merge(rhs.span);
                    lhs = Expr {
                        kind: ExprKind::Binary {
                            op: *op,
                            lhs: Box::new(lhs),
                            rhs: Box::new(rhs),
                        },
                        span,
                        ty: None,
                    };
                    continue 'outer;
                }
            }
            self.depth = outer;
            return Ok(lhs);
        }
    }

    fn or_expr(&mut self) -> PResult<Expr> {
        self.binary_level(Self::and_expr, &[(Tok::OrOr, BinOp::Or)])
    }

    fn and_expr(&mut self) -> PResult<Expr> {
        self.binary_level(Self::equality, &[(Tok::AndAnd, BinOp::And)])
    }

    fn equality(&mut self) -> PResult<Expr> {
        self.binary_level(
            Self::relational,
            &[(Tok::EqEq, BinOp::Eq), (Tok::NotEq, BinOp::Ne)],
        )
    }

    fn relational(&mut self) -> PResult<Expr> {
        self.binary_level(
            Self::additive,
            &[
                (Tok::Le, BinOp::Le),
                (Tok::Ge, BinOp::Ge),
                (Tok::Lt, BinOp::Lt),
                (Tok::Gt, BinOp::Gt),
            ],
        )
    }

    fn additive(&mut self) -> PResult<Expr> {
        self.binary_level(
            Self::multiplicative,
            &[(Tok::Plus, BinOp::Add), (Tok::Minus, BinOp::Sub)],
        )
    }

    fn multiplicative(&mut self) -> PResult<Expr> {
        self.binary_level(
            Self::unary,
            &[
                (Tok::Star, BinOp::Mul),
                (Tok::Slash, BinOp::Div),
                (Tok::Percent, BinOp::Mod),
            ],
        )
    }

    fn unary(&mut self) -> PResult<Expr> {
        let sp = self.span();
        if self.eat(&Tok::Minus) {
            if self.peek() == &Tok::Inf {
                self.bump();
                return Ok(Expr {
                    kind: ExprKind::Inf { negative: true },
                    span: sp.merge(self.prev_span()),
                    ty: None,
                });
            }
            let e = self.nested(Self::unary)?;
            let span = sp.merge(e.span);
            return Ok(Expr {
                kind: ExprKind::Unary {
                    op: UnOp::Neg,
                    expr: Box::new(e),
                },
                span,
                ty: None,
            });
        }
        if self.eat(&Tok::Not) {
            let e = self.nested(Self::unary)?;
            let span = sp.merge(e.span);
            return Ok(Expr {
                kind: ExprKind::Unary {
                    op: UnOp::Not,
                    expr: Box::new(e),
                },
                span,
                ty: None,
            });
        }
        self.postfix()
    }

    fn postfix(&mut self) -> PResult<Expr> {
        let mut e = self.primary()?;
        while self.peek() == &Tok::Dot {
            // Only variables can take `.prop` / `.Method()` in the subset.
            let obj = match &e.kind {
                ExprKind::Var(name) => name.clone(),
                _ => {
                    return Err(Diag::new(
                        self.span(),
                        "property access requires a plain variable on the left",
                    ))
                }
            };
            self.bump(); // '.'
            let member = self.ident()?;
            if self.eat(&Tok::LParen) {
                let mut args = Vec::new();
                if self.peek() != &Tok::RParen {
                    loop {
                        args.push(self.expr()?);
                        if !self.eat(&Tok::Comma) {
                            break;
                        }
                    }
                }
                let end = self.expect(&Tok::RParen)?;
                e = Expr {
                    kind: ExprKind::Call {
                        obj,
                        method: member,
                        args,
                    },
                    span: e.span.merge(end),
                    ty: None,
                };
            } else {
                let span = e.span.merge(self.prev_span());
                e = Expr {
                    kind: ExprKind::Prop { obj, prop: member },
                    span,
                    ty: None,
                };
            }
        }
        Ok(e)
    }

    fn primary(&mut self) -> PResult<Expr> {
        let sp = self.span();
        match self.peek().clone() {
            Tok::Int(v) => {
                self.bump();
                Ok(Expr {
                    kind: ExprKind::IntLit(v),
                    span: sp,
                    ty: None,
                })
            }
            Tok::Float(v) => {
                self.bump();
                Ok(Expr {
                    kind: ExprKind::FloatLit(v),
                    span: sp,
                    ty: None,
                })
            }
            Tok::True => {
                self.bump();
                Ok(Expr {
                    kind: ExprKind::BoolLit(true),
                    span: sp,
                    ty: None,
                })
            }
            Tok::False => {
                self.bump();
                Ok(Expr {
                    kind: ExprKind::BoolLit(false),
                    span: sp,
                    ty: None,
                })
            }
            Tok::Inf => {
                self.bump();
                Ok(Expr {
                    kind: ExprKind::Inf { negative: false },
                    span: sp,
                    ty: None,
                })
            }
            Tok::Nil => {
                self.bump();
                Ok(Expr {
                    kind: ExprKind::Nil,
                    span: sp,
                    ty: None,
                })
            }
            Tok::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(&Tok::RParen)?;
                Ok(e)
            }
            Tok::Pipe => {
                self.bump();
                let e = self.expr()?;
                self.expect(&Tok::Pipe)?;
                let span = sp.merge(self.prev_span());
                Ok(Expr {
                    kind: ExprKind::Unary {
                        op: UnOp::Abs,
                        expr: Box::new(e),
                    },
                    span,
                    ty: None,
                })
            }
            Tok::Ident(name) if Self::agg_kind(&name).is_some() && self.peek2() == &Tok::LParen => {
                self.agg_expr()
            }
            Tok::Ident(name) => {
                self.bump();
                Ok(Expr {
                    kind: ExprKind::Var(name),
                    span: sp,
                    ty: None,
                })
            }
            other => Err(Diag::new(sp, format!("expected expression, found {other}"))),
        }
    }

    fn agg_kind(name: &str) -> Option<AggKind> {
        Some(match name {
            "Sum" => AggKind::Sum,
            "Product" => AggKind::Product,
            "Count" => AggKind::Count,
            "Max" => AggKind::Max,
            "Min" => AggKind::Min,
            "Avg" => AggKind::Avg,
            "Exist" => AggKind::Exist,
            "All" => AggKind::All,
            _ => return None,
        })
    }

    /// Aggregate syntax: `Kind(it: src) group? group?` where each group is
    /// `(expr)`, `[expr]` or `{expr}`. With two groups the first is the
    /// filter and the second the body; with one group it is the body for
    /// value aggregates (`Sum`, `Max`, ...) and the condition for
    /// `Count`/`Exist`/`All`.
    fn agg_expr(&mut self) -> PResult<Expr> {
        let sp = self.span();
        let name = self.ident()?;
        let kind = Self::agg_kind(&name).expect("checked by caller");
        self.expect(&Tok::LParen)?;
        let iter = self.ident()?;
        self.expect(&Tok::Colon)?;
        let source = self.iter_source()?;
        self.expect(&Tok::RParen)?;

        let mut groups: Vec<Expr> = Vec::new();
        for _ in 0..2 {
            if self.eat(&Tok::LBracket) {
                let e = self.expr()?;
                self.expect(&Tok::RBracket)?;
                groups.push(e);
            } else if self.peek() == &Tok::LBrace {
                self.bump();
                let e = self.expr()?;
                self.expect(&Tok::RBrace)?;
                groups.push(e);
            } else if self.peek() == &Tok::LParen {
                self.bump();
                let e = self.expr()?;
                self.expect(&Tok::RParen)?;
                groups.push(e);
            } else {
                break;
            }
        }
        // With a single trailing group: value aggregates take it as the
        // body; `All` takes it as its condition (filtering would invert the
        // semantics); `Count`/`Exist` take it as the filter (equivalent to
        // the condition for these two).
        let needs_body = matches!(
            kind,
            AggKind::Sum
                | AggKind::Product
                | AggKind::Max
                | AggKind::Min
                | AggKind::Avg
                | AggKind::All
        );
        let (filter, body) = match (groups.len(), needs_body) {
            (2, _) => {
                let mut it = groups.into_iter();
                let f = it.next().expect("two groups parsed");
                let b = it.next().expect("two groups parsed");
                (Some(f), Some(b))
            }
            (1, true) => (None, Some(groups.pop().expect("one group parsed"))),
            (1, false) => (Some(groups.pop().expect("one group parsed")), None),
            (0, false) => (None, None),
            (0, true) => {
                return Err(Diag::new(
                    sp,
                    format!("{} requires a body expression", kind.name()),
                ))
            }
            _ => unreachable!("at most two groups"),
        };
        let span = sp.merge(self.prev_span());
        Ok(Expr {
            kind: ExprKind::Agg(Box::new(AggExpr {
                kind,
                iter,
                source,
                filter,
                body,
            })),
            span,
            ty: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(src: &str) -> Program {
        match parse(src) {
            Ok(p) => p,
            Err(d) => panic!("parse failed:\n{}", d.render(src)),
        }
    }

    #[test]
    fn minimal_procedure() {
        let p = parse_ok("Procedure f(G: Graph) { Int x = 0; }");
        assert_eq!(p.procedures.len(), 1);
        let f = &p.procedures[0];
        assert_eq!(f.name, "f");
        assert_eq!(f.params.len(), 1);
        assert_eq!(f.params[0].ty, Ty::Graph);
        assert!(f.ret.is_none());
    }

    #[test]
    fn grouped_params_and_return_type() {
        let p = parse_ok("Procedure f(G: Graph, a, b: Int) : Double { Return 1.0; }");
        let f = &p.procedures[0];
        assert_eq!(f.params.len(), 3);
        assert_eq!(f.params[1].name, "a");
        assert_eq!(f.params[2].name, "b");
        assert_eq!(f.params[2].ty, Ty::Int);
        assert_eq!(f.ret, Some(Ty::Double));
    }

    #[test]
    fn property_types() {
        let p = parse_ok("Procedure f(G: Graph, d: Node_Prop<Int>(G), l: E_P<Double>) { }");
        let f = &p.procedures[0];
        assert_eq!(f.params[1].ty, Ty::NodeProp(Box::new(Ty::Int)));
        assert_eq!(f.params[2].ty, Ty::EdgeProp(Box::new(Ty::Double)));
    }

    #[test]
    fn foreach_with_filter_and_nested() {
        let p = parse_ok(
            "Procedure f(G: Graph, age: N_P<Int>, cnt: N_P<Int>) {
                Foreach (n: G.Nodes) {
                    Foreach (t: n.InNbrs) (t.age >= 13 && t.age <= 19) {
                        n.cnt += 1;
                    }
                }
            }",
        );
        let body = &p.procedures[0].body;
        match &body.stmts[0].kind {
            StmtKind::Foreach(outer) => {
                assert_eq!(outer.iter, "n");
                assert!(outer.parallel);
                assert!(outer.filter.is_none());
                match &outer.body.stmts[0].kind {
                    StmtKind::Foreach(inner) => {
                        assert_eq!(inner.source, IterSource::InNbrs { of: "n".into() });
                        assert!(inner.filter.is_some());
                        match &inner.body.stmts[0].kind {
                            StmtKind::Assign { op, .. } => assert_eq!(*op, AssignOp::Add),
                            other => panic!("unexpected {other:?}"),
                        }
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn min_assign_and_defer_assign() {
        let p = parse_ok(
            "Procedure f(G: Graph, d: N_P<Int>, p: N_P<Double>) {
                Foreach (n: G.Nodes) {
                    n.d min= 3;
                    n.p <= 0.5;
                }
            }",
        );
        match &p.procedures[0].body.stmts[0].kind {
            StmtKind::Foreach(f) => {
                match &f.body.stmts[0].kind {
                    StmtKind::Assign { op, .. } => assert_eq!(*op, AssignOp::Min),
                    other => panic!("unexpected {other:?}"),
                }
                match &f.body.stmts[1].kind {
                    StmtKind::Assign { op, .. } => assert_eq!(*op, AssignOp::Defer),
                    other => panic!("unexpected {other:?}"),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn le_in_expression_context_is_comparison() {
        let e = parse_expr("a <= b").unwrap();
        assert!(matches!(e.kind, ExprKind::Binary { op: BinOp::Le, .. }));
    }

    #[test]
    fn increment_desugars_to_plus_one() {
        let p = parse_ok("Procedure f(G: Graph) { Int c = 0; c++; }");
        match &p.procedures[0].body.stmts[1].kind {
            StmtKind::Assign { op, value, .. } => {
                assert_eq!(*op, AssignOp::Add);
                assert!(matches!(value.kind, ExprKind::IntLit(1)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn ternary_and_abs() {
        let e = parse_expr("(c == 0) ? 0 : |s| / 2").unwrap();
        match e.kind {
            ExprKind::Ternary { else_val, .. } => match else_val.kind {
                ExprKind::Binary {
                    op: BinOp::Div,
                    lhs,
                    ..
                } => {
                    assert!(matches!(lhs.kind, ExprKind::Unary { op: UnOp::Abs, .. }));
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn aggregates_two_group_and_one_group_forms() {
        // Two groups: filter then body.
        let e = parse_expr("Sum(u: G.Nodes)[u.member == num](u.Degree())").unwrap();
        match e.kind {
            ExprKind::Agg(a) => {
                assert_eq!(a.kind, AggKind::Sum);
                assert!(a.filter.is_some());
                assert!(a.body.is_some());
            }
            other => panic!("unexpected {other:?}"),
        }
        // One group on a value aggregate: it is the body.
        let e = parse_expr("Sum(w: v.UpNbrs){w.sigma}").unwrap();
        match e.kind {
            ExprKind::Agg(a) => {
                assert!(a.filter.is_none());
                assert!(a.body.is_some());
            }
            other => panic!("unexpected {other:?}"),
        }
        // One group on Exist: it is the condition (filter slot).
        let e = parse_expr("Exist(n: G.Nodes)(n.updated)").unwrap();
        match e.kind {
            ExprKind::Agg(a) => {
                assert_eq!(a.kind, AggKind::Exist);
                assert!(a.filter.is_some());
                assert!(a.body.is_none());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn sum_without_body_is_an_error() {
        assert!(parse_expr("Sum(u: G.Nodes)").is_err());
    }

    #[test]
    fn inbfs_with_reverse() {
        let p = parse_ok(
            "Procedure f(G: Graph, s: Node, sigma: N_P<Double>) {
                InBFS (v: G.Nodes From s) {
                    v.sigma = Sum(w: v.UpNbrs){w.sigma};
                }
                InReverse {
                    v.sigma = 0.0;
                }
            }",
        );
        match &p.procedures[0].body.stmts[0].kind {
            StmtKind::InBfs(b) => {
                assert_eq!(b.iter, "v");
                assert_eq!(b.graph, "G");
                assert!(b.reverse_body.is_some());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn do_while() {
        let p = parse_ok("Procedure f(G: Graph) { Int x = 0; Do { x += 1; } While (x < 3); }");
        match &p.procedures[0].body.stmts[1].kind {
            StmtKind::While { do_while, .. } => assert!(do_while),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn calls_with_and_without_receiver_args() {
        let e = parse_expr("G.PickRandom()").unwrap();
        assert!(matches!(e.kind, ExprKind::Call { .. }));
        let e = parse_expr("s.ToEdge()").unwrap();
        match e.kind {
            ExprKind::Call { obj, method, args } => {
                assert_eq!(obj, "s");
                assert_eq!(method, "ToEdge");
                assert!(args.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn multi_declarator_splices_into_block() {
        let p = parse_ok("Procedure f(G: Graph) { Int a = 1, b = 2; a = b; }");
        let stmts = &p.procedures[0].body.stmts;
        assert_eq!(stmts.len(), 3);
        assert!(matches!(stmts[0].kind, StmtKind::VarDecl { .. }));
        assert!(matches!(stmts[1].kind, StmtKind::VarDecl { .. }));
        assert!(matches!(stmts[2].kind, StmtKind::Assign { .. }));
    }

    #[test]
    fn error_messages_carry_position() {
        let err = parse("Procedure f(G: Graph) { Int x = ; }").unwrap_err();
        assert!(err.has_errors());
        let rendered = err.render("Procedure f(G: Graph) { Int x = ; }");
        assert!(rendered.contains("expected expression"), "{rendered}");
    }

    #[test]
    fn unknown_type_is_an_error() {
        assert!(parse("Procedure f(G: Grap) { }").is_err());
    }

    #[test]
    fn negative_inf() {
        let e = parse_expr("-INF").unwrap();
        assert!(matches!(e.kind, ExprKind::Inf { negative: true }));
    }

    #[test]
    fn sequential_for_loop() {
        let p = parse_ok("Procedure f(G: Graph, x: N_P<Int>) { For (n: G.Nodes) { n.x = 0; } }");
        match &p.procedures[0].body.stmts[0].kind {
            StmtKind::Foreach(f) => assert!(!f.parallel),
            other => panic!("unexpected {other:?}"),
        }
    }

    type Shape = (&'static str, fn(usize) -> String);

    /// Sources whose nesting grows with `n`: each shape that deepens the
    /// tree the passes after the parser walk.
    fn nesting_shapes() -> Vec<Shape> {
        fn kernel(body: String) -> String {
            format!("Procedure f(G: Graph, a: N_P<Int>) {{ Foreach (v: G.Nodes) {{ {body} }} }}")
        }
        vec![
            ("parentheses", |n| {
                kernel(format!("v.a = {}v.a{};", "1 + (".repeat(n), ")".repeat(n)))
            }),
            ("an operator chain", |n| {
                kernel(format!("v.a = v.a{};", " + 1".repeat(n)))
            }),
            ("prefix operators", |n| {
                kernel(format!("v.a = {}v.a;", "- ".repeat(n)))
            }),
            ("a ternary chain", |n| {
                kernel(format!("v.a = {}0;", "v.a > 0 ? 1 : ".repeat(n)))
            }),
            ("nested Ifs", |n| {
                kernel(format!(
                    "{}v.a = 1;{}",
                    "If (v.a > 0) { ".repeat(n),
                    " }".repeat(n)
                ))
            }),
            ("nested blocks", |n| {
                format!(
                    "Procedure f(G: Graph) : Int {{ Int x = 0; {}x = 1;{} Return x; }}",
                    "{ ".repeat(n),
                    " }".repeat(n)
                )
            }),
        ]
    }

    #[test]
    fn nesting_at_the_cap_compiles_and_emits_on_a_2_mib_stack_and_deeper_is_refused() {
        let refused = |src: &str| match parse(src) {
            Ok(_) => false,
            Err(d) => {
                let msg = &d.errors[0].message;
                assert_eq!(msg, "nesting deeper than 64 levels", "{src}");
                true
            }
        };
        for (shape, source) in nesting_shapes() {
            // The deepest `n` the parser accepts.
            let n = (1..=MAX_NESTING + 1)
                .take_while(|&n| !refused(&source(n)))
                .last()
                .unwrap_or_else(|| panic!("{shape}: even n = 1 is refused"));
            assert!(n < MAX_NESTING + 1, "{shape}: never refused");
            let at_cap = source(n);
            let run = std::thread::Builder::new()
                .stack_size(2 << 20)
                .spawn(move || {
                    let options = crate::CompileOptions::default().verified();
                    let compiled = crate::compile(&at_cap, &options)
                        .unwrap_or_else(|e| panic!("{}", e.render(&at_cap)));
                    crate::kernel::lower(&compiled.program).unwrap();
                    crate::rustgen::emit_rust(&compiled.program).unwrap();
                    crate::javagen::emit_java(&compiled.program).unwrap();
                })
                .unwrap()
                .join();
            assert!(run.is_ok(), "{shape}: n = {n} fails on a 2 MiB stack");
        }
        // Property types nest too (no program compiles with one nested).
        let types = |n| {
            format!(
                "Procedure f(G: Graph, a: {}Int{}) {{}}",
                "N_P<".repeat(n),
                ">".repeat(n)
            )
        };
        assert!(!refused(&types(1)));
        assert!(refused(&types(100_000)));
    }
}
