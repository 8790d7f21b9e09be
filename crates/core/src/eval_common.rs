//! Helpers shared by all evaluators: strict binary operators, predicate
//! truth, and location-step expansion (axis + node test).

use xpath_syntax::{Axis, BinaryOp, NodeTest};
use xpath_xml::{Document, NodeId};

use crate::compare::compare;
use crate::context::{EvalError, EvalResult};
use crate::node_test;
use crate::nodeset::NodeSet;
use crate::value::Value;

/// Apply a non-lazy binary operator (`ArithOp`, comparisons, `|`).
/// `and`/`or` are handled by the evaluators themselves (short-circuit).
pub fn apply_binary(doc: &Document, op: BinaryOp, l: Value, r: Value) -> EvalResult<Value> {
    if op.is_relational() {
        return Ok(Value::Boolean(compare(doc, op, &l, &r)));
    }
    match op {
        BinaryOp::Union => match (l, r) {
            (Value::NodeSet(a), Value::NodeSet(b)) => Ok(Value::NodeSet(a.union(&b))),
            (l, r) => Err(EvalError::TypeMismatch(format!(
                "'|' requires node sets, got {} and {}",
                l.type_name(),
                r.type_name()
            ))),
        },
        BinaryOp::And | BinaryOp::Or => Ok(Value::Boolean(match op {
            BinaryOp::And => l.to_boolean() && r.to_boolean(),
            _ => l.to_boolean() || r.to_boolean(),
        })),
        // F[[ArithOp : num × num → num]](v1, v2) := v1 ArithOp v2.
        _ => {
            let a = l.to_number(doc);
            let b = r.to_number(doc);
            Ok(Value::Number(match op {
                BinaryOp::Add => a + b,
                BinaryOp::Sub => a - b,
                BinaryOp::Mul => a * b,
                // XPath div/mod follow IEEE 754 (mod is the remainder with
                // the sign of the dividend, like Rust's `%`).
                BinaryOp::Div => a / b,
                BinaryOp::Mod => a % b,
                _ => unreachable!("arith op"),
            }))
        }
    }
}

/// Predicate truth at a given context position (W3C §2.4): a number value
/// `v` is true iff `position() = v`; any other value converts via
/// `boolean()`. Normalized queries only produce boolean predicates, for
/// which this coincides with `to_boolean`.
pub fn predicate_holds(value: &Value, position: u32) -> bool {
    match value {
        Value::Number(v) => *v == position as f64,
        other => other.to_boolean(),
    }
}

/// Expand one location step's axis and node test from a single context
/// node: `{y | x χ y, y ∈ T(t)}`, sorted in document order.
pub fn step_candidates(doc: &Document, axis: Axis, test: &NodeTest, x: NodeId) -> Vec<NodeId> {
    let mut v = xpath_axes::axis_from(doc, axis, x);
    node_test::filter(doc, axis, test, &mut v);
    v
}

/// Set-at-a-time counterpart of [`step_candidates`]:
/// `{y | ∃x ∈ S: x χ y, y ∈ T(t)}` via the adaptive axis engine (the
/// cost-based kernel planner of `xpath_axes::cost`), in document order.
/// This is the predicate-free step expansion every set-level evaluator
/// shares.
pub fn step_candidates_set(doc: &Document, axis: Axis, test: &NodeTest, s: &NodeSet) -> NodeSet {
    let (mut out, _) =
        xpath_axes::bulk::axis_set_planned(doc, axis, s, xpath_axes::CostModel::global());
    node_test::filter_set(doc, axis, test, &mut out);
    out
}

/// Context position of the j-th element (0-based, document order) of a
/// step-result set of size `len`, respecting `<doc,χ` (§4): forward axes
/// count from the front, reverse axes from the back.
#[inline]
pub fn position_of(axis: Axis, j: usize, len: usize) -> u32 {
    if axis.is_forward() {
        (j + 1) as u32
    } else {
        (len - j) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpath_xml::generate::doc_flat;

    #[test]
    fn arithmetic() {
        let d = doc_flat(1);
        let n = |v| Value::Number(v);
        let run = |op, a, b| apply_binary(&d, op, n(a), n(b)).unwrap().to_number(&d);
        assert_eq!(run(BinaryOp::Add, 2.0, 3.0), 5.0);
        assert_eq!(run(BinaryOp::Sub, 2.0, 3.0), -1.0);
        assert_eq!(run(BinaryOp::Mul, 2.0, 3.0), 6.0);
        assert_eq!(run(BinaryOp::Div, 3.0, 2.0), 1.5);
        assert_eq!(run(BinaryOp::Mod, 5.0, 2.0), 1.0);
        assert_eq!(run(BinaryOp::Mod, -5.0, 2.0), -1.0, "mod keeps dividend sign");
        assert!(run(BinaryOp::Div, 1.0, 0.0).is_infinite());
        assert!(run(BinaryOp::Mod, 1.0, 0.0).is_nan());
    }

    #[test]
    fn arithmetic_coerces_strings() {
        let d = doc_flat(1);
        let v =
            apply_binary(&d, BinaryOp::Add, Value::String("2".into()), Value::String("3".into()))
                .unwrap();
        assert_eq!(v, Value::Number(5.0));
    }

    #[test]
    fn union_requires_nodesets() {
        let d = doc_flat(1);
        assert!(apply_binary(
            &d,
            BinaryOp::Union,
            Value::Number(1.0),
            Value::NodeSet(NodeSet::new())
        )
        .is_err());
        let v = apply_binary(
            &d,
            BinaryOp::Union,
            Value::NodeSet(NodeSet::singleton(NodeId(1))),
            Value::NodeSet(vec![NodeId(0), NodeId(2)].into()),
        )
        .unwrap();
        assert_eq!(v, Value::NodeSet(vec![NodeId(0), NodeId(1), NodeId(2)].into()));
    }

    #[test]
    fn predicate_number_is_position_test() {
        assert!(predicate_holds(&Value::Number(3.0), 3));
        assert!(!predicate_holds(&Value::Number(3.0), 2));
        assert!(predicate_holds(&Value::Boolean(true), 9));
        assert!(!predicate_holds(&Value::String("".into()), 1));
        assert!(predicate_holds(&Value::String("x".into()), 1));
    }

    #[test]
    fn positions_respect_axis_direction() {
        assert_eq!(position_of(Axis::Child, 0, 3), 1);
        assert_eq!(position_of(Axis::Child, 2, 3), 3);
        assert_eq!(position_of(Axis::Ancestor, 0, 3), 3);
        assert_eq!(position_of(Axis::Ancestor, 2, 3), 1);
    }
}
