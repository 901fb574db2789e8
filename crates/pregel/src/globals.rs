//! The global objects map: master → vertex broadcasts and vertex → master
//! reductions.
//!
//! GPS exposes a single string-keyed map (`Global.put` / `Global.get`). We
//! split it by direction, which is how generated programs actually use it:
//!
//! * [`Globals`] — written by the master at the start of a superstep, read
//!   by every vertex during the same superstep (e.g. the broadcast `_state`
//!   number, or a global `K` threshold).
//! * [`AggMap`] — accumulated by vertices during a superstep with an
//!   explicit [`ReduceOp`], merged across workers at the barrier, and handed
//!   to the master at the start of the *next* superstep (e.g. an `IntSum`
//!   global object).

use crate::value::{GlobalValue, ReduceOp};
use std::collections::BTreeMap;

/// Master-to-vertex broadcast map.
///
/// Keys are short stable strings chosen by the program (generated code uses
/// names like `"_state"`, `"K"`).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Globals {
    map: BTreeMap<String, GlobalValue>,
}

impl Globals {
    /// Creates an empty broadcast map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets `key` to `value`, replacing any previous broadcast.
    pub fn put(&mut self, key: &str, value: GlobalValue) {
        self.map.insert(key.to_owned(), value);
    }

    /// Reads a broadcast value.
    pub fn get(&self, key: &str) -> Option<GlobalValue> {
        self.map.get(key).copied()
    }

    /// Reads a broadcast value, panicking with the key name if missing.
    ///
    /// # Panics
    ///
    /// Panics if `key` was never broadcast.
    pub fn expect(&self, key: &str) -> GlobalValue {
        match self.get(key) {
            Some(v) => v,
            None => panic!("global {key:?} was not broadcast"),
        }
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// Number of live broadcasts.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no broadcast is set.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, GlobalValue)> {
        self.map.iter().map(|(k, v)| (k.as_str(), *v))
    }
}

/// Vertex-to-master reduction map for one superstep.
///
/// Every write carries its [`ReduceOp`]; writes to the same key must agree on
/// the operator (mixing `Sum` and `Min` under one key is a program bug and
/// panics).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AggMap {
    /// Entries in key order. A superstep writes a handful of keys, and
    /// every vertex that writes one pays the lookup: a short sorted vector
    /// finds it faster than a tree.
    entries: Vec<(String, ReduceOp, GlobalValue)>,
}

impl AggMap {
    /// Creates an empty aggregation map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds `value` into `key` under `op`.
    ///
    /// # Panics
    ///
    /// Panics if a previous write to `key` used a different operator, or if
    /// the operand types disagree.
    #[inline]
    pub fn reduce(&mut self, key: &str, op: ReduceOp, value: GlobalValue) {
        // Small enough to inline into a kernel, where a literal `key`
        // makes the comparison a load or two.
        match self.entries.iter_mut().find(|(k, ..)| k == key) {
            Some((_, prev_op, acc)) if *prev_op == op => *acc = op.combine(*acc, value),
            _ => self.first_write(key, op, value),
        }
    }

    /// The first write of `key` this superstep, or a conflicting one.
    #[cold]
    #[inline(never)]
    fn first_write(&mut self, key: &str, op: ReduceOp, value: GlobalValue) {
        let at = self.entries.partition_point(|(k, ..)| k.as_str() < key);
        if let Some((k, prev_op, _)) = self.entries.get(at) {
            assert!(
                k != key,
                "conflicting reduce ops for global {key:?}: {prev_op} vs {op}"
            );
        }
        self.entries.insert(at, (key.to_owned(), op, value));
    }

    /// Merges another worker's map into this one (barrier-time merge).
    ///
    /// # Merge-order guarantee
    ///
    /// The runtime merges per-worker partial aggregates in **ascending
    /// worker order**, and each worker folds its vertices' writes in
    /// **vertex order**. Integer, boolean, min/max and node-valued
    /// aggregates are order-insensitive, so they are identical for every
    /// worker count. Floating-point `Sum` aggregates are order-sensitive
    /// under rounding; the fixed fold order makes them **bit-reproducible
    /// for a fixed worker count** (and graph/partition), though the rounded
    /// result may differ across *different* worker counts. A test in the
    /// runtime pins this order.
    ///
    /// # Panics
    ///
    /// Panics on operator or type conflicts, as in [`AggMap::reduce`].
    pub fn merge(&mut self, other: &AggMap) {
        for (key, op, value) in other.iter() {
            self.reduce(key, op, value);
        }
    }

    /// Reads the aggregate for `key`, if any vertex wrote it.
    pub fn get(&self, key: &str) -> Option<GlobalValue> {
        self.entries
            .iter()
            .find(|(k, ..)| k == key)
            .map(|&(_, _, v)| v)
    }

    /// Reads the aggregate for `key`, falling back to `default` when no
    /// vertex wrote it this superstep (the identity-element convention the
    /// generated master code uses).
    pub fn get_or(&self, key: &str, default: GlobalValue) -> GlobalValue {
        self.get(key).unwrap_or(default)
    }

    /// Removes every entry (called by the runtime between supersteps).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Number of keys written this superstep.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing was aggregated.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates `(key, op, value)` in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, ReduceOp, GlobalValue)> {
        self.entries.iter().map(|(k, op, v)| (k.as_str(), *op, *v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn globals_put_get() {
        let mut g = Globals::new();
        assert!(g.is_empty());
        g.put("_state", GlobalValue::Int(3));
        assert_eq!(g.get("_state"), Some(GlobalValue::Int(3)));
        assert_eq!(g.expect("_state"), GlobalValue::Int(3));
        assert_eq!(g.len(), 1);
        g.put("_state", GlobalValue::Int(4));
        assert_eq!(g.get("_state"), Some(GlobalValue::Int(4)));
        g.clear();
        assert!(g.get("_state").is_none());
    }

    #[test]
    #[should_panic(expected = "was not broadcast")]
    fn globals_expect_missing_panics() {
        Globals::new().expect("missing");
    }

    #[test]
    fn agg_reduce_accumulates() {
        let mut a = AggMap::new();
        a.reduce("S", ReduceOp::Sum, GlobalValue::Int(2));
        a.reduce("S", ReduceOp::Sum, GlobalValue::Int(5));
        assert_eq!(a.get("S"), Some(GlobalValue::Int(7)));
        assert_eq!(
            a.get_or("missing", GlobalValue::Int(0)),
            GlobalValue::Int(0)
        );
    }

    #[test]
    fn agg_merge_is_commutative_for_ints() {
        let mut a = AggMap::new();
        a.reduce("S", ReduceOp::Sum, GlobalValue::Int(2));
        a.reduce("m", ReduceOp::Min, GlobalValue::Int(9));
        let mut b = AggMap::new();
        b.reduce("S", ReduceOp::Sum, GlobalValue::Int(3));
        b.reduce("m", ReduceOp::Min, GlobalValue::Int(4));
        b.reduce("only_b", ReduceOp::Or, GlobalValue::Bool(true));

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.get("S"), Some(GlobalValue::Int(5)));
        assert_eq!(ab.get("m"), Some(GlobalValue::Int(4)));
        assert_eq!(ab.get("only_b"), Some(GlobalValue::Bool(true)));
    }

    #[test]
    #[should_panic(expected = "conflicting reduce ops")]
    fn agg_op_conflict_panics() {
        let mut a = AggMap::new();
        a.reduce("S", ReduceOp::Sum, GlobalValue::Int(2));
        a.reduce("S", ReduceOp::Min, GlobalValue::Int(1));
    }

    #[test]
    fn agg_iter_in_key_order() {
        let mut a = AggMap::new();
        a.reduce("z", ReduceOp::Sum, GlobalValue::Int(1));
        a.reduce("a", ReduceOp::Sum, GlobalValue::Int(2));
        let keys: Vec<&str> = a.iter().map(|(k, _, _)| k).collect();
        assert_eq!(keys, vec!["a", "z"]);
    }
}
