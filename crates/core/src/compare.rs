//! Comparison semantics: the `RelOp`/`EqOp`/`GtOp` rows of Table II.
//!
//! One documented deviation from the paper's (simplified) Table II: for
//! `GtOp` (`< <= > >=`) with node-set operands we follow the W3C rule the
//! paper defers to — string values are converted to numbers — while `EqOp`
//! (`= !=`) compares string values as strings, exactly as in Table II.

use xpath_syntax::BinaryOp;
use xpath_xml::Document;

use crate::value::{str_to_number, Value};

/// Is `op` one of `= !=`?
fn is_eq_op(op: BinaryOp) -> bool {
    matches!(op, BinaryOp::Eq | BinaryOp::Ne)
}

pub(crate) fn num_cmp(op: BinaryOp, a: f64, b: f64) -> bool {
    match op {
        BinaryOp::Eq => a == b,
        BinaryOp::Ne => a != b,
        BinaryOp::Lt => a < b,
        BinaryOp::Le => a <= b,
        BinaryOp::Gt => a > b,
        BinaryOp::Ge => a >= b,
        _ => unreachable!("not a comparison operator"),
    }
}

pub(crate) fn str_cmp(op: BinaryOp, a: &str, b: &str) -> bool {
    match op {
        BinaryOp::Eq => a == b,
        BinaryOp::Ne => a != b,
        // GtOp on strings compares the numeric conversions (W3C §3.4).
        _ => num_cmp(op, str_to_number(a), str_to_number(b)),
    }
}

fn bool_cmp(op: BinaryOp, a: bool, b: bool) -> bool {
    match op {
        BinaryOp::Eq => a == b,
        BinaryOp::Ne => a != b,
        _ => num_cmp(op, a as u8 as f64, b as u8 as f64),
    }
}

/// Mirror a comparison operator: `a op b ⇔ b mirror(op) a`.
pub(crate) fn mirror(op: BinaryOp) -> BinaryOp {
    match op {
        BinaryOp::Lt => BinaryOp::Gt,
        BinaryOp::Le => BinaryOp::Ge,
        BinaryOp::Gt => BinaryOp::Lt,
        BinaryOp::Ge => BinaryOp::Le,
        other => other,
    }
}

/// Evaluate `l op r` per Table II.
///
/// # Panics
/// Panics if `op` is not a comparison operator.
pub fn compare(doc: &Document, op: BinaryOp, l: &Value, r: &Value) -> bool {
    assert!(op.is_relational(), "compare called with {op:?}");
    match (l, r) {
        // F[[RelOp : nset × nset]]: ∃ n1 ∈ S1, n2 ∈ S2 with matching
        // string values (strings for EqOp, numbers for GtOp).
        (Value::NodeSet(s1), Value::NodeSet(s2)) => {
            if is_eq_op(op) {
                // For = / != an O(|S1|+|S2|) hash-based check.
                if s1.is_empty() || s2.is_empty() {
                    return false;
                }
                let set1: std::collections::HashSet<&str> =
                    s1.iter().map(|n| doc.string_value(n)).collect();
                match op {
                    BinaryOp::Eq => s2.iter().any(|n| set1.contains(doc.string_value(n))),
                    _ => {
                        // != : ∃ pair with different values. False only if
                        // every value on both sides is the single same string.
                        let set2: std::collections::HashSet<&str> =
                            s2.iter().map(|n| doc.string_value(n)).collect();
                        set1.len() > 1 || set2.len() > 1 || set1 != set2
                    }
                }
            } else {
                let nums2: Vec<f64> =
                    s2.iter().map(|n| str_to_number(doc.string_value(n))).collect();
                s1.iter().any(|n1| {
                    let v1 = str_to_number(doc.string_value(n1));
                    nums2.iter().any(|&v2| num_cmp(op, v1, v2))
                })
            }
        }
        // F[[RelOp : nset × num]]: ∃ n ∈ S : to_number(strval(n)) RelOp v.
        (Value::NodeSet(s), Value::Number(v)) => {
            s.iter().any(|n| num_cmp(op, str_to_number(doc.string_value(n)), *v))
        }
        (Value::Number(v), Value::NodeSet(s)) => {
            s.iter().any(|n| num_cmp(mirror(op), str_to_number(doc.string_value(n)), *v))
        }
        // F[[RelOp : nset × str]]: ∃ n ∈ S : strval(n) RelOp s.
        (Value::NodeSet(s), Value::String(t)) => {
            s.iter().any(|n| str_cmp(op, doc.string_value(n), t))
        }
        (Value::String(t), Value::NodeSet(s)) => {
            s.iter().any(|n| str_cmp(mirror(op), doc.string_value(n), t))
        }
        // F[[RelOp : nset × bool]]: boolean(S) RelOp b.
        (Value::NodeSet(s), Value::Boolean(b)) => bool_cmp(op, !s.is_empty(), *b),
        (Value::Boolean(b), Value::NodeSet(s)) => bool_cmp(op, *b, !s.is_empty()),
        // Scalar cases.
        (l, r) => {
            if is_eq_op(op) {
                // F[[EqOp : bool × (str∪num∪bool)]], then numbers, then strings.
                match (l, r) {
                    (Value::Boolean(_), _) | (_, Value::Boolean(_)) => {
                        bool_cmp(op, l.to_boolean(), r.to_boolean())
                    }
                    (Value::Number(_), _) | (_, Value::Number(_)) => {
                        num_cmp(op, l.to_number(doc), r.to_number(doc))
                    }
                    _ => str_cmp(op, &l.to_xpath_string(doc), &r.to_xpath_string(doc)),
                }
            } else {
                // F[[GtOp]]: number(x1) GtOp number(x2).
                num_cmp(op, l.to_number(doc), r.to_number(doc))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpath_xml::generate::doc_flat_text;
    use xpath_xml::{Document, NodeId};

    fn doc() -> Document {
        doc_flat_text(3)
    }

    fn bset(d: &Document) -> crate::nodeset::NodeSet {
        let a = d.document_element().unwrap();
        d.children(a).collect()
    }

    #[test]
    fn nset_vs_string_eq() {
        let d = doc();
        let s = Value::NodeSet(bset(&d));
        assert!(compare(&d, BinaryOp::Eq, &s, &Value::String("c".into())));
        assert!(!compare(&d, BinaryOp::Eq, &s, &Value::String("z".into())));
        // != true because some node's value differs from "z".
        assert!(compare(&d, BinaryOp::Ne, &s, &Value::String("z".into())));
        // != false only when every node equals the string... here all are
        // "c", so "!= 'c'" is false.
        assert!(!compare(&d, BinaryOp::Ne, &s, &Value::String("c".into())));
    }

    #[test]
    fn empty_nset_comparisons_are_false() {
        let d = doc();
        let e = Value::NodeSet(crate::nodeset::NodeSet::new());
        for op in [BinaryOp::Eq, BinaryOp::Ne, BinaryOp::Lt, BinaryOp::Gt] {
            assert!(!compare(&d, op, &e, &Value::String("c".into())), "{op:?}");
            assert!(!compare(&d, op, &e, &Value::Number(0.0)), "{op:?}");
            assert!(!compare(&d, op, &e, &e), "{op:?}");
        }
        // But against booleans the nset converts to false.
        assert!(compare(&d, BinaryOp::Eq, &e, &Value::Boolean(false)));
        assert!(compare(&d, BinaryOp::Ne, &e, &Value::Boolean(true)));
    }

    #[test]
    fn nset_vs_number() {
        let d = Document::parse_str("<a><b>1</b><b>5</b></a>").unwrap();
        let s = Value::NodeSet(bset(&d));
        assert!(compare(&d, BinaryOp::Eq, &s, &Value::Number(5.0)));
        assert!(compare(&d, BinaryOp::Lt, &s, &Value::Number(2.0)));
        assert!(!compare(&d, BinaryOp::Gt, &s, &Value::Number(5.0)));
        assert!(compare(&d, BinaryOp::Ge, &s, &Value::Number(5.0)));
        // Mirrored: 2 < {1,5} via 5; 5 > {1,5} via 1; 6 ≤ {1,5} has no witness.
        assert!(compare(&d, BinaryOp::Lt, &Value::Number(2.0), &s));
        assert!(compare(&d, BinaryOp::Gt, &Value::Number(5.0), &s));
        assert!(!compare(&d, BinaryOp::Le, &Value::Number(6.0), &s));
    }

    #[test]
    fn nset_vs_nset() {
        let d = Document::parse_str("<a><b>1</b><b>2</b><c>2</c><c>3</c></a>").unwrap();
        let a = d.document_element().unwrap();
        let kids: Vec<NodeId> = d.children(a).collect();
        let bs = Value::NodeSet(kids[0..2].to_vec().into());
        let cs = Value::NodeSet(kids[2..4].to_vec().into());
        assert!(compare(&d, BinaryOp::Eq, &bs, &cs)); // both contain "2"
        assert!(compare(&d, BinaryOp::Ne, &bs, &cs));
        assert!(compare(&d, BinaryOp::Lt, &bs, &cs));
        assert!(compare(&d, BinaryOp::Gt, &cs, &bs));
        // {1,2} > {2,3}: 2 > ... no pair with b > c? 2 > 2 false, 2 > 3
        // false, 1 > anything false → false... wait 2 > 2 is false but is
        // there any pair? No. Actually {1,2} vs {2,3}: no b-value exceeds a
        // c-value, so > is false.
        assert!(!compare(&d, BinaryOp::Gt, &bs, &cs));
    }

    #[test]
    fn nset_ne_nset_single_equal_value() {
        let d = Document::parse_str("<a><b>x</b><c>x</c></a>").unwrap();
        let a = d.document_element().unwrap();
        let kids: Vec<NodeId> = d.children(a).collect();
        let bs = Value::NodeSet(vec![kids[0]].into());
        let cs = Value::NodeSet(vec![kids[1]].into());
        assert!(compare(&d, BinaryOp::Eq, &bs, &cs));
        assert!(!compare(&d, BinaryOp::Ne, &bs, &cs), "all values identical");
    }

    #[test]
    fn scalar_eq_type_ladder() {
        let d = doc();
        // Boolean dominates.
        assert!(compare(&d, BinaryOp::Eq, &Value::Boolean(true), &Value::Number(7.0)));
        assert!(compare(&d, BinaryOp::Eq, &Value::Boolean(false), &Value::String("".into())));
        // Number next: "1" = 1.
        assert!(compare(&d, BinaryOp::Eq, &Value::Number(1.0), &Value::String("1".into())));
        assert!(!compare(&d, BinaryOp::Eq, &Value::Number(1.0), &Value::String("x".into())));
        // Strings last.
        assert!(compare(&d, BinaryOp::Eq, &Value::String("q".into()), &Value::String("q".into())));
    }

    #[test]
    fn gtop_is_numeric() {
        let d = doc();
        assert!(compare(&d, BinaryOp::Lt, &Value::String("2".into()), &Value::String("10".into())));
        assert!(
            !compare(&d, BinaryOp::Lt, &Value::String("abc".into()), &Value::String("abd".into())),
            "non-numeric strings compare as NaN → false"
        );
        assert!(compare(&d, BinaryOp::Le, &Value::Boolean(false), &Value::Boolean(true)));
    }

    #[test]
    fn nan_semantics() {
        let d = doc();
        let nan = Value::Number(f64::NAN);
        assert!(!compare(&d, BinaryOp::Eq, &nan, &nan));
        assert!(compare(&d, BinaryOp::Ne, &nan, &nan));
        assert!(!compare(&d, BinaryOp::Lt, &nan, &Value::Number(1.0)));
        assert!(!compare(&d, BinaryOp::Ge, &nan, &Value::Number(1.0)));
    }
}
