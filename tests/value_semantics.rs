//! Value-model semantics: XPath number formatting/parsing laws, unicode
//! string functions, and coercion edge cases across engines.
//!
//! The number laws run on 256 inputs each from a seeded splitmix64 stream
//! (`xpath_xml::rng`).

use gkp_xpath::core::value::{number_to_string, str_to_number};
use gkp_xpath::core::EvalResult;
use gkp_xpath::xml::rng::Rng;
use gkp_xpath::{CompiledQuery, Document, Value};

/// Cases per property.
const CASES: usize = 256;

/// `q` at the document root.
fn evaluate(d: &Document, q: &str) -> EvalResult<Value> {
    CompiledQuery::compile(q)?.evaluate_root(d)
}

/// A uniform draw from `[0, 1)`.
fn unit(rng: &mut Rng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// to_number(to_string(v)) = v for finite doubles without exponent
/// blowup (XPath's decimal notation is exact for these).
#[test]
fn number_string_roundtrip() {
    let mut rng = Rng::seed_from_u64(1);
    for _ in 0..CASES {
        let v = -1.0e12 + 2.0e12 * unit(&mut rng);
        let s = number_to_string(v);
        // Parsing the shortest-roundtrip decimal form recovers v exactly.
        assert_eq!(str_to_number(&s), v, "{v} -> {s}");
    }
}

/// number_to_string never produces exponent notation, on any bit pattern
/// (NaN, infinities, subnormals and the extremes included).
#[test]
fn no_exponent_notation() {
    let mut rng = Rng::seed_from_u64(2);
    let specials =
        [0.0, -0.0, f64::MIN_POSITIVE, f64::MAX, f64::MIN, f64::INFINITY, f64::NAN, 5e-324];
    let draws = (0..CASES).map(|_| f64::from_bits(rng.next_u64()));
    for v in specials.into_iter().chain(draws) {
        let s = number_to_string(v);
        assert!(!s.contains('e') && !s.contains('E'), "{v} -> {s}");
    }
}

/// str_to_number accepts exactly the XPath Number grammar:
/// `-?[0-9]{1,10}(\.[0-9]{0,8})?`.
#[test]
fn number_grammar() {
    let mut rng = Rng::seed_from_u64(3);
    let digits = |rng: &mut Rng, n: usize| -> String {
        (0..n).map(|_| char::from(b'0' + rng.random_range(0u32..10) as u8)).collect()
    };
    for _ in 0..CASES {
        let mut s = String::new();
        if rng.random_bool(0.5) {
            s.push('-');
        }
        let n = rng.random_range(1..=10);
        s.push_str(&digits(&mut rng, n));
        if rng.random_bool(0.5) {
            s.push('.');
            let n = rng.random_range(0..=8);
            s.push_str(&digits(&mut rng, n));
        }
        assert!(!str_to_number(&s).is_nan(), "{s}");
    }
}

/// Whitespace-trimmed parsing.
#[test]
fn number_whitespace() {
    let mut rng = Rng::seed_from_u64(4);
    for _ in 0..CASES {
        let v = rng.random_range(0u32..100_000);
        let s = format!("  {v} \t");
        assert_eq!(str_to_number(&s), f64::from(v));
    }
}

#[test]
fn unicode_string_functions() {
    let d = Document::parse_str("<a motto=\"zażółć gęślą jaźń\">日本語テキスト</a>").unwrap();
    // string-length counts characters, not bytes.
    assert_eq!(evaluate(&d, "string-length(/a)").unwrap().to_string(), "7");
    assert_eq!(evaluate(&d, "string-length(/a/@motto)").unwrap().to_string(), "17");
    // substring operates on characters.
    assert_eq!(evaluate(&d, "substring(/a, 3, 2)").unwrap().to_string(), "語テ");
    // translate handles non-ASCII replacements.
    assert_eq!(
        evaluate(&d, "translate(/a/@motto, 'ażółęą', 'azolea')").unwrap().to_string(),
        // ć, ś, ź, ń are not in the from-set and pass through.
        "zazolć geśla jaźń"
    );
    // contains/starts-with over unicode.
    assert_eq!(evaluate(&d, "contains(/a, '語テ')").unwrap().to_string(), "true");
    assert_eq!(evaluate(&d, "starts-with(/a, '日本')").unwrap().to_string(), "true");
}

#[test]
fn coercion_chains() {
    let d = Document::parse_str("<a><b> 42 </b><c>x</c><d></d></a>").unwrap();
    // nset → string → number with whitespace.
    assert_eq!(evaluate(&d, "number(//b)").unwrap().to_string(), "42");
    assert_eq!(evaluate(&d, "number(//c)").unwrap().to_string(), "NaN");
    assert_eq!(evaluate(&d, "number(//d)").unwrap().to_string(), "NaN");
    assert_eq!(evaluate(&d, "number(//zzz)").unwrap().to_string(), "NaN");
    // boolean of empty-string element is false; of whitespace is true.
    assert_eq!(evaluate(&d, "boolean(string(//d))").unwrap().to_string(), "false");
    assert_eq!(evaluate(&d, "boolean(string(//b))").unwrap().to_string(), "true");
    // string of boolean of number...
    assert_eq!(evaluate(&d, "string(boolean(number(//b)))").unwrap().to_string(), "true");
    assert_eq!(evaluate(&d, "string(number(boolean(//zzz)))").unwrap().to_string(), "0");
    // Arithmetic propagates NaN.
    assert_eq!(evaluate(&d, "number(//c) + 1").unwrap().to_string(), "NaN");
    // Infinity formatting.
    assert_eq!(evaluate(&d, "1 div 0").unwrap().to_string(), "Infinity");
    assert_eq!(evaluate(&d, "-1 div 0").unwrap().to_string(), "-Infinity");
    assert_eq!(evaluate(&d, "0 div 0").unwrap().to_string(), "NaN");
    assert_eq!(evaluate(&d, "string(1 div 0)").unwrap().to_string(), "Infinity");
}

#[test]
fn comparison_type_matrix_via_queries() {
    let d = Document::parse_str("<a><b>1</b><b>2</b><c>true</c></a>").unwrap();
    let t = |q: &str| evaluate(&d, q).unwrap().to_boolean();
    // nset vs nset.
    assert!(t("//b = //b"));
    assert!(t("//b != //b"), "two distinct values exist");
    assert!(!t("//c != //c"), "single value: no differing pair");
    // nset vs number / string / boolean.
    assert!(t("//b = 2"));
    assert!(t("//b < 2"));
    assert!(!t("//b > 2"));
    assert!(t("//b = '1'"));
    assert!(t("//b = true()"));
    assert!(t("//zzz = false()"));
    // booleans dominate =.
    assert!(t("'x' = true()"));
    assert!(t("0 = false()"));
    // numbers beat strings for =.
    assert!(t("'1' = 1"));
    assert!(!t("'01' = '1'"), "string vs string compares textually");
    assert!(t("'01' = 1"), "string vs number compares numerically");
}
