//! Allocation-light evaluation of lowered expressions, vertex and master
//! side.

use crate::eval::PickRng;
use gm_core::ast::BinOp;
use gm_core::kernel::CExpr;
use gm_core::value::{apply_bin, apply_un, Value};
use std::cell::RefCell;

/// Evaluation context: one vertex, or the master.
#[derive(Default)]
pub struct EvalCx<'a> {
    /// Live property row.
    pub props: &'a [Value],
    /// Snapshot row for receive-phase reads (None ⇒ read live).
    pub snapshot: Option<&'a [Value]>,
    /// Message payload (empty outside receive handlers).
    pub payload: &'a [Value],
    /// Kernel locals.
    pub locals: &'a [Value],
    /// Every program global, by slot.
    pub globals: &'a [Value],
    /// The executing vertex.
    pub self_id: u32,
    /// Its out-degree.
    pub out_degree: u32,
    /// Length of its in-neighbor array.
    pub in_nbrs_len: usize,
    /// Edge-property columns.
    pub edge_cols: &'a [Vec<Value>],
    /// The connecting edge for `SendToNbrs` payloads.
    pub edge: usize,
    /// Graph size.
    pub num_nodes: u32,
    /// Graph edge count.
    pub num_edges: u32,
    /// The master's RNG behind `PickRandom` (`None` in vertex code).
    pub rng: Option<&'a RefCell<&'a mut PickRng>>,
}

/// Evaluates a lowered expression.
///
/// # Panics
///
/// Panics only on programs the compiler cannot produce (e.g. payload reads
/// outside a receive handler).
pub fn eval(e: &CExpr, cx: &EvalCx<'_>) -> Value {
    match e {
        CExpr::Const(v) => *v,
        CExpr::Prop(slot) => match cx.snapshot {
            Some(snap) => snap[*slot],
            None => cx.props[*slot],
        },
        CExpr::EdgeProp(col) => cx.edge_cols[*col][cx.edge],
        CExpr::Payload(i) => cx.payload[*i],
        CExpr::Local(slot) => cx.locals[*slot],
        CExpr::Global(slot) => cx.globals[*slot],
        CExpr::SelfId => Value::Node(cx.self_id),
        CExpr::OutDegree => Value::Int(cx.out_degree as i64),
        CExpr::InDegree => Value::Int(cx.in_nbrs_len as i64),
        CExpr::NumNodes => Value::Int(cx.num_nodes as i64),
        CExpr::NumEdges => Value::Int(cx.num_edges as i64),
        CExpr::PickRandom => {
            let rng = cx.rng.expect("PickRandom is master code");
            assert!(cx.num_nodes > 0, "PickRandom on an empty graph");
            Value::Node(rng.borrow_mut().pick(cx.num_nodes))
        }
        CExpr::Un(op, inner) => apply_un(*op, eval(inner, cx)),
        CExpr::Bin(BinOp::And, a, b) => {
            if !eval(a, cx).as_bool() {
                Value::Bool(false)
            } else {
                Value::Bool(eval(b, cx).as_bool())
            }
        }
        CExpr::Bin(BinOp::Or, a, b) => {
            if eval(a, cx).as_bool() {
                Value::Bool(true)
            } else {
                Value::Bool(eval(b, cx).as_bool())
            }
        }
        CExpr::Bin(op, a, b) => apply_bin(*op, eval(a, cx), eval(b, cx)),
        CExpr::Ternary {
            cond,
            then_val,
            else_val,
            coerce,
        } => {
            let v = if eval(cond, cx).as_bool() {
                eval(then_val, cx)
            } else {
                eval(else_val, cx)
            };
            match coerce {
                Some(t) => v.coerce(t),
                None => v,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_core::ast::UnOp;
    use gm_core::types::Ty;

    fn cx<'a>(props: &'a [Value], locals: &'a [Value]) -> EvalCx<'a> {
        EvalCx {
            props,
            locals,
            self_id: 3,
            out_degree: 5,
            in_nbrs_len: 2,
            num_nodes: 10,
            num_edges: 20,
            ..EvalCx::default()
        }
    }

    #[test]
    fn slots_and_builtins() {
        let props = [Value::Int(7)];
        let locals = [Value::Double(0.5)];
        let c = cx(&props, &locals);
        assert_eq!(eval(&CExpr::Prop(0), &c), Value::Int(7));
        assert_eq!(eval(&CExpr::Local(0), &c), Value::Double(0.5));
        assert_eq!(eval(&CExpr::SelfId, &c), Value::Node(3));
        assert_eq!(eval(&CExpr::OutDegree, &c), Value::Int(5));
        assert_eq!(eval(&CExpr::InDegree, &c), Value::Int(2));
        assert_eq!(eval(&CExpr::NumNodes, &c), Value::Int(10));
        assert_eq!(eval(&CExpr::NumEdges, &c), Value::Int(20));
    }

    #[test]
    fn snapshot_reads_override_live() {
        let props = [Value::Int(7)];
        let snap = [Value::Int(4)];
        let locals = [];
        let mut c = cx(&props, &locals);
        c.snapshot = Some(&snap);
        assert_eq!(eval(&CExpr::Prop(0), &c), Value::Int(4));
    }

    #[test]
    fn short_circuit_logic() {
        let props = [];
        let locals = [];
        let c = cx(&props, &locals);
        // (false && <payload read that would panic>) must short-circuit.
        let e = CExpr::Bin(
            BinOp::And,
            Box::new(CExpr::Const(Value::Bool(false))),
            Box::new(CExpr::Payload(0)),
        );
        assert_eq!(eval(&e, &c), Value::Bool(false));
        let e = CExpr::Bin(
            BinOp::Or,
            Box::new(CExpr::Const(Value::Bool(true))),
            Box::new(CExpr::Payload(0)),
        );
        assert_eq!(eval(&e, &c), Value::Bool(true));
    }

    #[test]
    fn ternary_coercion() {
        let props = [];
        let locals = [];
        let c = cx(&props, &locals);
        let e = CExpr::Ternary {
            cond: Box::new(CExpr::Const(Value::Bool(false))),
            then_val: Box::new(CExpr::Const(Value::Double(0.0))),
            else_val: Box::new(CExpr::Const(Value::Int(3))),
            coerce: Some(Ty::Double),
        };
        assert_eq!(eval(&e, &c), Value::Double(3.0));
        let e = CExpr::Un(UnOp::Neg, Box::new(CExpr::Const(Value::Int(4))));
        assert_eq!(eval(&e, &c), Value::Int(-4));
    }
}
