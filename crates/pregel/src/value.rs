//! Dynamic values carried through the global objects map.

use std::fmt;

/// A value stored in the global objects map (GPS's `Global.put`/`Global.get`
/// payloads). Sized to Green-Marl's scalar types.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum GlobalValue {
    /// 64-bit integer (Green-Marl `Int`/`Long`).
    Int(i64),
    /// 64-bit float (Green-Marl `Float`/`Double`).
    Double(f64),
    /// Boolean.
    Bool(bool),
    /// A vertex id (Green-Marl `Node`).
    Node(u32),
}

impl GlobalValue {
    /// The integer payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is not `Int`.
    pub fn as_int(&self) -> i64 {
        match self {
            GlobalValue::Int(v) => *v,
            other => panic!("expected Int global value, found {other:?}"),
        }
    }

    /// The float payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is not `Double`.
    pub fn as_double(&self) -> f64 {
        match self {
            GlobalValue::Double(v) => *v,
            other => panic!("expected Double global value, found {other:?}"),
        }
    }

    /// The boolean payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is not `Bool`.
    pub fn as_bool(&self) -> bool {
        match self {
            GlobalValue::Bool(v) => *v,
            other => panic!("expected Bool global value, found {other:?}"),
        }
    }

    /// The vertex-id payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is not `Node`.
    pub fn as_node(&self) -> u32 {
        match self {
            GlobalValue::Node(v) => *v,
            other => panic!("expected Node global value, found {other:?}"),
        }
    }
}

impl fmt::Display for GlobalValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GlobalValue::Int(v) => write!(f, "{v}"),
            GlobalValue::Double(v) => write!(f, "{v}"),
            GlobalValue::Bool(v) => write!(f, "{v}"),
            GlobalValue::Node(v) => write!(f, "n{v}"),
        }
    }
}

impl From<i64> for GlobalValue {
    fn from(v: i64) -> Self {
        GlobalValue::Int(v)
    }
}

impl From<f64> for GlobalValue {
    fn from(v: f64) -> Self {
        GlobalValue::Double(v)
    }
}

impl From<bool> for GlobalValue {
    fn from(v: bool) -> Self {
        GlobalValue::Bool(v)
    }
}

/// Reduction operator attached to a vertex-side global write
/// (the paper's `IntSum`, `IntMin`, ... global objects).
///
/// All operators are commutative and associative so worker-merge order
/// cannot affect integer/boolean results.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ReduceOp {
    /// `+` on `Int`/`Double`.
    Sum,
    /// Minimum on `Int`/`Double`/`Node`.
    Min,
    /// Maximum on `Int`/`Double`/`Node`.
    Max,
    /// Logical or on `Bool`.
    Or,
    /// Logical and on `Bool`.
    And,
}

impl ReduceOp {
    /// Combines `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if the operand types disagree or the operator does not apply
    /// to the operand type (e.g. `Or` on `Int`).
    #[inline]
    pub fn combine(self, a: GlobalValue, b: GlobalValue) -> GlobalValue {
        use GlobalValue::*;
        match (self, a, b) {
            // Integer sums wrap, like the Java `int` arithmetic of the
            // generated GPS code (and like every other integer operation
            // in this workspace).
            (ReduceOp::Sum, Int(x), Int(y)) => Int(x.wrapping_add(y)),
            (ReduceOp::Sum, Double(x), Double(y)) => Double(x + y),
            (ReduceOp::Min, Int(x), Int(y)) => Int(x.min(y)),
            (ReduceOp::Min, Double(x), Double(y)) => Double(x.min(y)),
            (ReduceOp::Min, Node(x), Node(y)) => Node(x.min(y)),
            (ReduceOp::Max, Int(x), Int(y)) => Int(x.max(y)),
            (ReduceOp::Max, Double(x), Double(y)) => Double(x.max(y)),
            (ReduceOp::Max, Node(x), Node(y)) => Node(x.max(y)),
            (ReduceOp::Or, Bool(x), Bool(y)) => Bool(x || y),
            (ReduceOp::And, Bool(x), Bool(y)) => Bool(x && y),
            (op, a, b) => panic!("reduce op {op:?} not applicable to {a:?} / {b:?}"),
        }
    }
}

impl fmt::Display for ReduceOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ReduceOp::Sum => "sum",
            ReduceOp::Min => "min",
            ReduceOp::Max => "max",
            ReduceOp::Or => "or",
            ReduceOp::And => "and",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combine_int_ops() {
        assert_eq!(
            ReduceOp::Sum.combine(GlobalValue::Int(2), GlobalValue::Int(3)),
            GlobalValue::Int(5)
        );
        assert_eq!(
            ReduceOp::Min.combine(GlobalValue::Int(2), GlobalValue::Int(3)),
            GlobalValue::Int(2)
        );
        assert_eq!(
            ReduceOp::Max.combine(GlobalValue::Int(2), GlobalValue::Int(3)),
            GlobalValue::Int(3)
        );
    }

    #[test]
    fn combine_double_and_bool_ops() {
        assert_eq!(
            ReduceOp::Sum.combine(GlobalValue::Double(0.5), GlobalValue::Double(1.5)),
            GlobalValue::Double(2.0)
        );
        assert_eq!(
            ReduceOp::Or.combine(GlobalValue::Bool(false), GlobalValue::Bool(true)),
            GlobalValue::Bool(true)
        );
        assert_eq!(
            ReduceOp::And.combine(GlobalValue::Bool(true), GlobalValue::Bool(false)),
            GlobalValue::Bool(false)
        );
    }

    #[test]
    fn combine_node_min_max() {
        assert_eq!(
            ReduceOp::Min.combine(GlobalValue::Node(7), GlobalValue::Node(3)),
            GlobalValue::Node(3)
        );
        assert_eq!(
            ReduceOp::Max.combine(GlobalValue::Node(7), GlobalValue::Node(3)),
            GlobalValue::Node(7)
        );
    }

    #[test]
    #[should_panic(expected = "not applicable")]
    fn combine_type_mismatch_panics() {
        ReduceOp::Sum.combine(GlobalValue::Int(1), GlobalValue::Bool(true));
    }

    #[test]
    fn accessors() {
        assert_eq!(GlobalValue::Int(4).as_int(), 4);
        assert_eq!(GlobalValue::Double(1.5).as_double(), 1.5);
        assert!(GlobalValue::Bool(true).as_bool());
        assert_eq!(GlobalValue::Node(2).as_node(), 2);
    }

    #[test]
    #[should_panic(expected = "expected Int")]
    fn wrong_accessor_panics() {
        GlobalValue::Bool(true).as_int();
    }

    #[test]
    fn display_forms() {
        assert_eq!(GlobalValue::Int(3).to_string(), "3");
        assert_eq!(GlobalValue::Node(3).to_string(), "n3");
        assert_eq!(ReduceOp::Sum.to_string(), "sum");
    }
}
