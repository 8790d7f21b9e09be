//! The XPath 1.0 value model (paper §5, Table III): the four expression
//! types `num`, `str`, `bool`, `nset` and the conversion functions
//! `to_number`, `to_string`, `boolean` with full IEEE-754/NaN semantics.

use std::fmt;

use xpath_xml::Document;

use crate::nodeset::NodeSet;

/// An XPath 1.0 value.
#[derive(Clone, PartialEq, Debug)]
pub enum Value {
    /// IEEE-754 double (type `num`).
    Number(f64),
    /// Character string (type `str`).
    String(String),
    /// Boolean (type `bool`).
    Boolean(bool),
    /// Node set in document order (type `nset`).
    NodeSet(NodeSet),
}

impl Value {
    /// The `boolean` conversion function (Table II):
    /// * `num` → true iff not ±0 and not NaN;
    /// * `str` → true iff non-empty;
    /// * `nset` → true iff non-empty.
    pub fn to_boolean(&self) -> bool {
        match self {
            Value::Number(v) => *v != 0.0 && !v.is_nan(),
            Value::String(s) => !s.is_empty(),
            Value::Boolean(b) => *b,
            Value::NodeSet(s) => !s.is_empty(),
        }
    }

    /// The `number` conversion function (Table II):
    /// * `str` → `to_number(s)`;
    /// * `bool` → 1 or 0;
    /// * `nset` → `number(string(S))`.
    pub fn to_number(&self, doc: &Document) -> f64 {
        match self {
            Value::Number(v) => *v,
            Value::String(s) => str_to_number(s),
            Value::Boolean(b) => {
                if *b {
                    1.0
                } else {
                    0.0
                }
            }
            Value::NodeSet(s) => str_to_number(&nodeset_to_string(doc, s)),
        }
    }

    /// The `string` conversion function (Table II):
    /// * `num` → `to_string(v)`;
    /// * `bool` → `"true"` / `"false"`;
    /// * `nset` → string value of the first node in document order, `""` if
    ///   empty.
    pub fn to_xpath_string(&self, doc: &Document) -> String {
        match self {
            Value::Number(v) => number_to_string(*v),
            Value::String(s) => s.clone(),
            Value::Boolean(b) => if *b { "true" } else { "false" }.to_string(),
            Value::NodeSet(s) => nodeset_to_string(doc, s),
        }
    }

    /// Borrow the node set, if this value is one.
    pub fn as_node_set(&self) -> Option<&NodeSet> {
        match self {
            Value::NodeSet(s) => Some(s),
            _ => None,
        }
    }

    /// Take the node set out of the value, if it is one.
    pub fn into_node_set(self) -> Option<NodeSet> {
        match self {
            Value::NodeSet(s) => Some(s),
            _ => None,
        }
    }

    /// Equality for differential testing: like `==`, but `NaN` equals `NaN`
    /// (two evaluators both producing NaN agree semantically).
    pub fn semantically_equal(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Number(a), Value::Number(b)) => a == b || (a.is_nan() && b.is_nan()),
            (a, b) => a == b,
        }
    }

    /// A short type name for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Number(_) => "number",
            Value::String(_) => "string",
            Value::Boolean(_) => "boolean",
            Value::NodeSet(_) => "node-set",
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Number(v) => f.write_str(&number_to_string(*v)),
            Value::String(s) => f.write_str(s),
            Value::Boolean(b) => write!(f, "{b}"),
            Value::NodeSet(s) => {
                f.write_str("{")?;
                for (i, n) in s.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{n}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// `string(nset)`: string value of the first node (document order), or "".
pub fn nodeset_to_string(doc: &Document, s: &NodeSet) -> String {
    s.first().map(|n| doc.string_value(n).to_string()).unwrap_or_default()
}

/// `to_number(str)`: XPath 1.0 number syntax — optional whitespace, optional
/// `-`, digits and at most one `.`; anything else is NaN. (No exponent
/// notation, no `+`, unlike Rust's `f64::parse`.)
pub fn str_to_number(s: &str) -> f64 {
    let t = s.trim_matches([' ', '\t', '\r', '\n']);
    if t.is_empty() {
        return f64::NAN;
    }
    let body = t.strip_prefix('-').unwrap_or(t);
    if body.is_empty() {
        return f64::NAN;
    }
    let mut dot_seen = false;
    let mut digits = false;
    for c in body.chars() {
        match c {
            '0'..='9' => digits = true,
            '.' if !dot_seen => dot_seen = true,
            _ => return f64::NAN,
        }
    }
    if !digits {
        return f64::NAN;
    }
    t.parse::<f64>().unwrap_or(f64::NAN)
}

/// `to_string(num)`: XPath 1.0 number formatting — NaN, ±Infinity, integers
/// without a decimal point, and otherwise decimal notation without an
/// exponent.
pub fn number_to_string(v: f64) -> String {
    if v.is_nan() {
        return "NaN".to_string();
    }
    if v.is_infinite() {
        return if v > 0.0 { "Infinity" } else { "-Infinity" }.to_string();
    }
    if v == 0.0 {
        return "0".to_string(); // both +0 and -0 print as "0"
    }
    if v.fract() == 0.0 && v.abs() < 9.007_199_254_740_992e15 {
        return format!("{}", v as i64);
    }
    let s = format!("{v}");
    if !s.contains(['e', 'E']) {
        return s;
    }
    // Expand exponent notation into plain decimal form.
    let mut out = format!("{v:.17}");
    if out.contains('.') {
        while out.ends_with('0') {
            out.pop();
        }
        if out.ends_with('.') {
            out.pop();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpath_xml::generate::doc_flat_text;
    use xpath_xml::NodeId;

    #[test]
    fn str_to_number_xpath_syntax() {
        assert_eq!(str_to_number("12"), 12.0);
        assert_eq!(str_to_number(" 12 "), 12.0);
        assert_eq!(str_to_number("-3.5"), -3.5);
        assert_eq!(str_to_number(".5"), 0.5);
        assert_eq!(str_to_number("5."), 5.0);
        assert!(str_to_number("").is_nan());
        assert!(str_to_number("abc").is_nan());
        assert!(str_to_number("1e3").is_nan(), "exponent notation is not XPath");
        assert!(str_to_number("+1").is_nan(), "leading + is not XPath");
        assert!(str_to_number("1.2.3").is_nan());
        assert!(str_to_number("-").is_nan());
        assert!(str_to_number(".").is_nan());
        assert!(str_to_number("12 13").is_nan());
    }

    #[test]
    fn number_to_string_rules() {
        assert_eq!(number_to_string(f64::NAN), "NaN");
        assert_eq!(number_to_string(f64::INFINITY), "Infinity");
        assert_eq!(number_to_string(f64::NEG_INFINITY), "-Infinity");
        assert_eq!(number_to_string(0.0), "0");
        assert_eq!(number_to_string(-0.0), "0");
        assert_eq!(number_to_string(5.0), "5");
        assert_eq!(number_to_string(-17.0), "-17");
        assert_eq!(number_to_string(1.5), "1.5");
        assert_eq!(number_to_string(0.5), "0.5");
        assert_eq!(number_to_string(1e20), "100000000000000000000");
    }

    #[test]
    fn roundtrip_small_numbers() {
        for v in [0.0, 1.0, -1.0, 0.25, 1234.5, -0.125] {
            assert_eq!(str_to_number(&number_to_string(v)), v);
        }
    }

    #[test]
    fn boolean_conversion() {
        assert!(!Value::Number(0.0).to_boolean());
        assert!(!Value::Number(-0.0).to_boolean());
        assert!(!Value::Number(f64::NAN).to_boolean());
        assert!(Value::Number(0.1).to_boolean());
        assert!(Value::Number(f64::INFINITY).to_boolean());
        assert!(!Value::String(String::new()).to_boolean());
        assert!(Value::String("false".into()).to_boolean(), "any non-empty string is true");
        assert!(!Value::NodeSet(NodeSet::new()).to_boolean());
    }

    #[test]
    fn nodeset_conversions_use_first_node() {
        let d = doc_flat_text(3); // root, a, (b c)*3
        let a = d.document_element().unwrap();
        let bs: NodeSet = d.children(a).collect();
        let v = Value::NodeSet(bs.clone());
        assert_eq!(v.to_xpath_string(&d), "c");
        assert!(v.to_number(&d).is_nan());
        let empty = Value::NodeSet(NodeSet::new());
        assert_eq!(empty.to_xpath_string(&d), "");
        assert!(empty.to_number(&d).is_nan());
    }

    #[test]
    fn display() {
        assert_eq!(Value::Number(2.5).to_string(), "2.5");
        assert_eq!(Value::Boolean(true).to_string(), "true");
        assert_eq!(Value::String("x".into()).to_string(), "x");
        assert_eq!(Value::NodeSet(vec![NodeId(1), NodeId(3)].into()).to_string(), "{n1, n3}");
    }
}
