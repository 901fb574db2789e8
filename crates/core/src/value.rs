//! The dynamic runtime value shared by the sequential interpreter and the
//! Pregel-state-machine interpreter.

use crate::ast::{BinOp, UnOp};
use crate::types::Ty;
use std::fmt;

/// Sentinel vertex id for Green-Marl's `NIL` node.
pub const NIL_NODE: u32 = u32::MAX;

/// A runtime value. `Int`/`Long` share the `Int` representation and
/// `Float`/`Double` share `Double`; declared widths only matter for message
/// byte accounting.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Value {
    /// Integer.
    Int(i64),
    /// Floating point.
    Double(f64),
    /// Boolean.
    Bool(bool),
    /// Vertex reference ([`NIL_NODE`] encodes `NIL`).
    Node(u32),
    /// Edge reference.
    Edge(u32),
}

impl Value {
    /// The zero/identity default for a declared type (what uninitialized
    /// Green-Marl variables hold).
    pub fn default_for(ty: &Ty) -> Value {
        match ty {
            Ty::Int | Ty::Long => Value::Int(0),
            Ty::Float | Ty::Double => Value::Double(0.0),
            Ty::Bool => Value::Bool(false),
            Ty::Node => Value::Node(NIL_NODE),
            Ty::Edge => Value::Edge(0),
            other => panic!("no runtime default for type {other}"),
        }
    }

    /// `INF` for a declared type: `i64::MAX` for integers, `+∞` for floats.
    pub fn inf_for(ty: &Ty, negative: bool) -> Value {
        match ty {
            Ty::Int | Ty::Long => Value::Int(if negative { i64::MIN } else { i64::MAX }),
            Ty::Float | Ty::Double => Value::Double(if negative {
                f64::NEG_INFINITY
            } else {
                f64::INFINITY
            }),
            other => panic!("INF has no meaning at type {other}"),
        }
    }

    /// Coerces to the runtime representation of `ty` (int↔float
    /// conversions; everything else must already match).
    ///
    /// # Panics
    ///
    /// Panics on unconvertible combinations — the type checker rules those
    /// out before execution.
    pub fn coerce(self, ty: &Ty) -> Value {
        self.try_coerce(ty).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Value::coerce`], with an unconvertible combination (a value that
    /// did not pass the type checker, such as a job argument) as an error.
    pub fn try_coerce(self, ty: &Ty) -> Result<Value, String> {
        Ok(match (self, ty) {
            (Value::Int(v), Ty::Int | Ty::Long) => Value::Int(v),
            (Value::Int(v), Ty::Float | Ty::Double) => Value::Double(v as f64),
            (Value::Double(v), Ty::Float | Ty::Double) => Value::Double(v),
            (Value::Double(v), Ty::Int | Ty::Long) => Value::Int(v as i64),
            (Value::Bool(v), Ty::Bool) => Value::Bool(v),
            (Value::Node(v), Ty::Node) => Value::Node(v),
            (Value::Edge(v), Ty::Edge) => Value::Edge(v),
            (v, t) => return Err(format!("cannot coerce {v:?} to {t}")),
        })
    }

    /// Integer payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is not an `Int`.
    pub fn as_int(self) -> i64 {
        match self {
            Value::Int(v) => v,
            other => panic!("expected Int, found {other:?}"),
        }
    }

    /// Numeric payload as `f64` (ints widen).
    ///
    /// # Panics
    ///
    /// Panics for non-numeric values.
    pub fn as_f64(self) -> f64 {
        match self {
            Value::Int(v) => v as f64,
            Value::Double(v) => v,
            other => panic!("expected numeric, found {other:?}"),
        }
    }

    /// Boolean payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is not a `Bool`.
    pub fn as_bool(self) -> bool {
        match self {
            Value::Bool(v) => v,
            other => panic!("expected Bool, found {other:?}"),
        }
    }

    /// Vertex-id payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is not a `Node`.
    pub fn as_node(self) -> u32 {
        match self {
            Value::Node(v) => v,
            other => panic!("expected Node, found {other:?}"),
        }
    }

    /// Edge-id payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is not an `Edge`.
    pub fn as_edge(self) -> u32 {
        match self {
            Value::Edge(v) => v,
            other => panic!("expected Edge, found {other:?}"),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Double(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Node(v) if *v == NIL_NODE => f.write_str("NIL"),
            Value::Node(v) => write!(f, "n{v}"),
            Value::Edge(v) => write!(f, "e{v}"),
        }
    }
}

/// Evaluates a binary operation with Green-Marl semantics: integer
/// arithmetic stays integral (truncating division), mixed arithmetic
/// widens to float, comparisons work across numeric types, and `==`/`!=`
/// apply to nodes and edges.
///
/// # Panics
///
/// Panics on combinations the type checker rejects (e.g. `%` on floats)
/// and on integer division by zero.
pub fn apply_bin(op: BinOp, a: Value, b: Value) -> Value {
    use BinOp::*;
    use Value::*;
    match op {
        Add | Sub | Mul | Div => match (a, b) {
            (Int(x), Int(y)) => Int(match op {
                Add => x.wrapping_add(y),
                Sub => x.wrapping_sub(y),
                Mul => x.wrapping_mul(y),
                Div => div_i64(x, y),
                _ => unreachable!(),
            }),
            (x, y) => {
                let (x, y) = (x.as_f64(), y.as_f64());
                Double(match op {
                    Add => x + y,
                    Sub => x - y,
                    Mul => x * y,
                    Div => x / y,
                    _ => unreachable!(),
                })
            }
        },
        Mod => match (a, b) {
            (Int(x), Int(y)) => Int(mod_i64(x, y)),
            (x, y) => panic!("% requires integers, found {x:?} and {y:?}"),
        },
        Eq | Ne => {
            let eq = match (a, b) {
                (Int(x), Int(y)) => x == y,
                (Bool(x), Bool(y)) => x == y,
                (Node(x), Node(y)) => x == y,
                (Edge(x), Edge(y)) => x == y,
                (x, y) => x.as_f64() == y.as_f64(),
            };
            Bool(if op == Eq { eq } else { !eq })
        }
        Lt | Le | Gt | Ge => {
            let ord = match (a, b) {
                (Int(x), Int(y)) => x.partial_cmp(&y),
                (x, y) => x.as_f64().partial_cmp(&y.as_f64()),
            };
            let r = match (op, ord) {
                (Lt, Some(o)) => o.is_lt(),
                (Le, Some(o)) => o.is_le(),
                (Gt, Some(o)) => o.is_gt(),
                (Ge, Some(o)) => o.is_ge(),
                (_, None) => false, // NaN comparisons are false
                _ => unreachable!(),
            };
            Bool(r)
        }
        And => Bool(a.as_bool() && b.as_bool()),
        Or => Bool(a.as_bool() || b.as_bool()),
    }
}

/// Integer division, shared by every execution leg; panics on zero.
pub fn div_i64(x: i64, y: i64) -> i64 {
    assert!(y != 0, "integer division by zero");
    x / y
}

/// Integer remainder, shared by every execution leg; panics on zero.
pub fn mod_i64(x: i64, y: i64) -> i64 {
    assert!(y != 0, "integer modulo by zero");
    x % y
}

/// Evaluates a unary operation.
///
/// # Panics
///
/// Panics on type mismatches the checker rules out.
pub fn apply_un(op: UnOp, v: Value) -> Value {
    match (op, v) {
        (UnOp::Neg, Value::Int(x)) => Value::Int(-x),
        (UnOp::Neg, Value::Double(x)) => Value::Double(-x),
        (UnOp::Not, Value::Bool(x)) => Value::Bool(!x),
        (UnOp::Abs, Value::Int(x)) => Value::Int(x.abs()),
        (UnOp::Abs, Value::Double(x)) => Value::Double(x.abs()),
        (op, v) => panic!("unary {op:?} not applicable to {v:?}"),
    }
}

/// Combines `current` and `incoming` under a reduction assignment operator
/// (`+=`, `min=`, ...). Plain and deferred assignment replace.
///
/// # Panics
///
/// Panics on type mismatches the checker rules out.
pub fn apply_reduce(op: crate::ast::AssignOp, current: Value, incoming: Value) -> Value {
    use crate::ast::AssignOp;
    match op {
        AssignOp::Assign | AssignOp::Defer => incoming,
        AssignOp::Add => apply_bin(BinOp::Add, current, incoming),
        AssignOp::Sub => apply_bin(BinOp::Sub, current, incoming),
        AssignOp::Mul => apply_bin(BinOp::Mul, current, incoming),
        AssignOp::Min => match (current, incoming) {
            (Value::Int(x), Value::Int(y)) => Value::Int(x.min(y)),
            (Value::Node(x), Value::Node(y)) => Value::Node(x.min(y)),
            (x, y) => Value::Double(x.as_f64().min(y.as_f64())),
        },
        AssignOp::Max => match (current, incoming) {
            (Value::Int(x), Value::Int(y)) => Value::Int(x.max(y)),
            (Value::Node(x), Value::Node(y)) => Value::Node(x.max(y)),
            (x, y) => Value::Double(x.as_f64().max(y.as_f64())),
        },
        AssignOp::And => Value::Bool(current.as_bool() && incoming.as_bool()),
        AssignOp::Or => Value::Bool(current.as_bool() || incoming.as_bool()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::AssignOp;

    #[test]
    fn defaults_and_inf() {
        assert_eq!(Value::default_for(&Ty::Int), Value::Int(0));
        assert_eq!(Value::default_for(&Ty::Node), Value::Node(NIL_NODE));
        assert_eq!(Value::inf_for(&Ty::Int, false), Value::Int(i64::MAX));
        assert_eq!(
            Value::inf_for(&Ty::Double, true),
            Value::Double(f64::NEG_INFINITY)
        );
    }

    #[test]
    fn integer_arithmetic_truncates() {
        assert_eq!(
            apply_bin(BinOp::Div, Value::Int(7), Value::Int(2)),
            Value::Int(3)
        );
        assert_eq!(
            apply_bin(BinOp::Mod, Value::Int(7), Value::Int(2)),
            Value::Int(1)
        );
    }

    #[test]
    fn mixed_arithmetic_widens() {
        assert_eq!(
            apply_bin(BinOp::Div, Value::Int(7), Value::Double(2.0)),
            Value::Double(3.5)
        );
        assert_eq!(
            apply_bin(BinOp::Add, Value::Double(0.5), Value::Int(1)),
            Value::Double(1.5)
        );
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn int_div_by_zero_panics() {
        apply_bin(BinOp::Div, Value::Int(1), Value::Int(0));
    }

    #[test]
    fn comparisons_and_equality() {
        assert_eq!(
            apply_bin(BinOp::Lt, Value::Int(1), Value::Double(1.5)),
            Value::Bool(true)
        );
        assert_eq!(
            apply_bin(BinOp::Eq, Value::Node(3), Value::Node(3)),
            Value::Bool(true)
        );
        assert_eq!(
            apply_bin(BinOp::Ne, Value::Node(3), Value::Node(NIL_NODE)),
            Value::Bool(true)
        );
        // NaN comparisons are false.
        assert_eq!(
            apply_bin(BinOp::Lt, Value::Double(f64::NAN), Value::Double(1.0)),
            Value::Bool(false)
        );
    }

    #[test]
    fn logic_and_unary() {
        assert_eq!(
            apply_bin(BinOp::And, Value::Bool(true), Value::Bool(false)),
            Value::Bool(false)
        );
        assert_eq!(apply_un(UnOp::Not, Value::Bool(false)), Value::Bool(true));
        assert_eq!(apply_un(UnOp::Abs, Value::Int(-4)), Value::Int(4));
        assert_eq!(apply_un(UnOp::Abs, Value::Double(-0.5)), Value::Double(0.5));
        assert_eq!(apply_un(UnOp::Neg, Value::Int(4)), Value::Int(-4));
    }

    #[test]
    fn reductions() {
        assert_eq!(
            apply_reduce(AssignOp::Min, Value::Int(5), Value::Int(3)),
            Value::Int(3)
        );
        assert_eq!(
            apply_reduce(AssignOp::Max, Value::Double(1.0), Value::Double(2.0)),
            Value::Double(2.0)
        );
        assert_eq!(
            apply_reduce(AssignOp::Add, Value::Int(1), Value::Int(2)),
            Value::Int(3)
        );
        assert_eq!(
            apply_reduce(AssignOp::Assign, Value::Int(1), Value::Int(2)),
            Value::Int(2)
        );
        assert_eq!(
            apply_reduce(AssignOp::Or, Value::Bool(false), Value::Bool(true)),
            Value::Bool(true)
        );
        // Arbitrary-write resolution uses Max over node ids (documented in
        // DESIGN.md) — exercised via Max on Node values.
        assert_eq!(
            apply_reduce(AssignOp::Max, Value::Node(2), Value::Node(7)),
            Value::Node(7)
        );
    }

    #[test]
    fn coerce_between_numeric_reprs() {
        assert_eq!(Value::Int(3).coerce(&Ty::Double), Value::Double(3.0));
        assert_eq!(Value::Double(3.7).coerce(&Ty::Int), Value::Int(3));
        assert_eq!(Value::Bool(true).coerce(&Ty::Bool), Value::Bool(true));
        let err = Value::Bool(true).try_coerce(&Ty::Node).unwrap_err();
        assert_eq!(err, "cannot coerce Bool(true) to Node");
    }

    #[test]
    fn display() {
        assert_eq!(Value::Node(NIL_NODE).to_string(), "NIL");
        assert_eq!(Value::Node(4).to_string(), "n4");
        assert_eq!(Value::Int(-2).to_string(), "-2");
    }
}
