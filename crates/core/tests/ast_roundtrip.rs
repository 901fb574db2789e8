//! Structured parser/printer round-trip: generate random ASTs directly
//! (deeper grammar coverage than string-level fuzzing), print them, parse
//! the output, and require a pretty-print fixed point.

use gm_core::ast::*;
use gm_core::parser::parse;
use gm_core::pretty::program_to_string;
use gm_core::types::Ty;
use gm_graph::rng::{check, SplitMix64};

/// A lowercase identifier matching `[a-z][a-z0-9_]{0,6}` (so never a
/// keyword or type name), except `min`/`max`, which recombine into
/// reduction-assignment tokens.
fn ident(rng: &mut SplitMix64) -> String {
    const TAIL: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_";
    let mut s = String::from(char::from(b'a' + rng.below(26) as u8));
    for _ in 0..rng.below(7) {
        s.push(char::from(TAIL[rng.below(TAIL.len() as u64) as usize]));
    }
    if matches!(s.as_str(), "min" | "max") {
        s.push('_');
    }
    s
}

fn pick<T: Clone>(rng: &mut SplitMix64, items: &[T]) -> T {
    items[rng.below(items.len() as u64) as usize].clone()
}

fn literal(rng: &mut SplitMix64) -> ExprKind {
    match rng.below(4) {
        0 => ExprKind::IntLit(rng.below(200) as i64 - 100),
        1 => ExprKind::FloatLit((rng.below(200) as i64 - 100) as f64 / 4.0),
        2 => ExprKind::BoolLit(rng.chance(0.5)),
        _ => ExprKind::Nil,
    }
}

/// The chance of an operator node at each remaining level of nesting (up
/// to three), as proptest's `prop_recursive(3, 24, 2)` drew them.
const BRANCH: [f64; 4] = [0.0, 0.375, 0.9, 0.9];

fn expr(rng: &mut SplitMix64, vars: &[String], level: usize) -> Expr {
    if level == 0 {
        return if rng.chance(0.5) {
            Expr::synth(literal(rng))
        } else {
            Expr::var(&pick(rng, vars))
        };
    }
    if !rng.chance(BRANCH[level]) {
        return expr(rng, vars, level - 1);
    }
    let (shape, op) = (rng.below(4), rng.below(7) as usize);
    let mut sub = || Box::new(expr(rng, vars, level - 1));
    let unary = |op, expr| Expr::synth(ExprKind::Unary { op, expr });
    match shape {
        0 => {
            let ops = [
                BinOp::Add,
                BinOp::Sub,
                BinOp::Mul,
                BinOp::Div,
                BinOp::Eq,
                BinOp::Lt,
                BinOp::Ge,
            ];
            Expr::binary(ops[op], *sub(), *sub())
        }
        1 => unary(UnOp::Neg, sub()),
        2 => unary(UnOp::Abs, sub()),
        _ => Expr::synth(ExprKind::Ternary {
            cond: sub(),
            then_val: sub(),
            else_val: sub(),
        }),
    }
}

fn stmts(rng: &mut SplitMix64, vars: &[String], depth: u32, len: std::ops::Range<u64>) -> Block {
    Block::of(
        (0..rng.range(len))
            .map(|_| stmt(rng, vars, depth))
            .collect(),
    )
}

/// Assignments, `If` and `While`, weighted 3:1:1 while `depth` allows
/// nesting.
fn stmt(rng: &mut SplitMix64, vars: &[String], depth: u32) -> Stmt {
    let kind = if depth == 0 { 0 } else { rng.below(5) };
    Stmt::synth(match kind {
        0..=2 => {
            let name = pick(rng, vars);
            let ops = [
                AssignOp::Assign,
                AssignOp::Add,
                AssignOp::Sub,
                AssignOp::Min,
                AssignOp::Max,
            ];
            StmtKind::Assign {
                target: Target::Scalar(name),
                value: expr(rng, vars, 3),
                op: pick(rng, &ops),
            }
        }
        3 => StmtKind::If {
            cond: expr(rng, vars, 3),
            then_branch: stmts(rng, vars, depth - 1, 1..3),
            else_branch: rng.chance(0.5).then(|| stmts(rng, vars, depth - 1, 1..3)),
        },
        _ => StmtKind::While {
            cond: expr(rng, vars, 3),
            body: stmts(rng, vars, depth - 1, 1..3),
            do_while: false,
        },
    })
}

fn program(rng: &mut SplitMix64) -> Program {
    let tys = [Ty::Int, Ty::Long, Ty::Float, Ty::Double, Ty::Bool, Ty::Node];
    // One to three declarations, deduplicated by name.
    let mut decls: Vec<(String, Ty)> = Vec::new();
    for _ in 0..rng.range(1..4) {
        let (name, ty) = (ident(rng), pick(rng, &tys));
        if decls.iter().all(|(n, _)| *n != name) {
            decls.push((name, ty));
        }
    }
    let vars: Vec<String> = decls.iter().map(|(n, _)| n.clone()).collect();
    let mut body: Vec<Stmt> = decls
        .into_iter()
        .map(|(name, ty)| {
            let init = Some(match ty {
                Ty::Bool => Expr::bool(false),
                Ty::Node => Expr::synth(ExprKind::Nil),
                Ty::Float | Ty::Double => Expr::synth(ExprKind::FloatLit(0.0)),
                _ => Expr::int(0),
            });
            Stmt::synth(StmtKind::VarDecl { ty, name, init })
        })
        .collect();
    body.extend(stmts(rng, &vars, 2, 0..5).stmts);
    Program {
        procedures: vec![Procedure {
            name: "generated".into(),
            params: vec![Param {
                name: "G".into(),
                ty: Ty::Graph,
                span: gm_core::Span::synthetic(),
            }],
            ret: None,
            body: Block::of(body),
            span: gm_core::Span::synthetic(),
        }],
    }
}

/// print(parse(print(ast))) == print(ast): the printer emits valid
/// Green-Marl and reaches a fixed point.
fn assert_fixed_point(printed: &str) {
    let reparsed = parse(printed).unwrap_or_else(|e| {
        panic!(
            "printer emitted invalid source:\n{}\n---\n{printed}",
            e.render(printed)
        );
    });
    assert_eq!(printed, program_to_string(&reparsed));
}

#[test]
fn pretty_print_parse_fixed_point() {
    check("pretty_print_parse_fixed_point", 64, |rng| {
        assert_fixed_point(&program_to_string(&program(rng)));
    });
}

/// A shrunk case proptest once found, pinned as the source it printed: a
/// negative float literal under unary minus, and `Abs`/`Nil` operands in
/// `While` conditions.
#[test]
fn regression_negative_float_under_neg_and_abs_nil_in_while() {
    assert_fixed_point(
        "Procedure generated(G: Graph) {
    Bool f76_t7_ = False;
    If ((0 + (-(0 + (-1.75))))) {
        f76_t7_ += (-(-True));
        f76_t7_ += |(-f76_t7_)|;
    } Else {
        While (((-(-f76_t7_)) ? (-(f76_t7_ >= f76_t7_)) : (f76_t7_ + (f76_t7_ * f76_t7_)))) {
            f76_t7_ -= |(-False)|;
        }
        While (((-NIL) / ((-f76_t7_) >= f76_t7_))) {
            f76_t7_ = |(NIL ? True : f76_t7_)|;
            f76_t7_ += (|(-18.75)| / |(-84)|);
        }
    }
}
",
    );
}

/// A shrunk case proptest once found, pinned as the source it printed: a
/// `Node`-typed variable in arithmetic and ternaries.
#[test]
fn regression_node_var_in_arithmetic_and_ternaries() {
    assert_fixed_point(
        "Procedure generated(G: Graph) {
    Node r50ox7 = NIL;
    While (((0 + 1.0) * (r50ox7 ? (NIL == True) : (r50ox7 >= r50ox7)))) {
        r50ox7 = |(|27|)|;
        While ((|NIL| - (96 ? 26 : |(-22.0)|))) {
            r50ox7 max= ((True ? r50ox7 : 10.75) < (|r50ox7| ? NIL : r50ox7));
        }
    }
}
",
    );
}
