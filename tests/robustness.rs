//! Robustness: the lexer, parser and XML parser must reject garbage with
//! errors — never panic — and evaluation must fail cleanly on type errors.
//!
//! The never-panics properties draw their inputs from a seeded splitmix64
//! stream (`xpath_xml::rng`), 256 cases each, so every run sees the same
//! strings.

use gkp_xpath::core::EvalResult;
use gkp_xpath::xml::rng::Rng;
use gkp_xpath::{CompiledQuery, Document, NodeSet, Value};

/// Cases per property.
const CASES: usize = 256;

/// `q` at the document root.
fn evaluate(d: &Document, q: &str) -> EvalResult<Value> {
    CompiledQuery::compile(q)?.evaluate_root(d)
}

/// The nodes `q` selects at the document root.
fn select(d: &Document, q: &str) -> EvalResult<NodeSet> {
    CompiledQuery::compile(q)?.select(d)
}

/// Up to `max` characters: any Unicode scalar value but a newline (the
/// regex `.`), biased towards ASCII so markup and operators show up.
fn any_string(rng: &mut Rng, max: usize) -> String {
    let len = rng.random_range(0..=max);
    (0..len)
        .map(|_| {
            let c = if rng.random_bool(0.5) {
                char::from(rng.random_range(0u32..128) as u8)
            } else {
                char::from_u32(rng.random_range(0u32..0x11_0000)).unwrap_or('\u{fffd}')
            };
            if c == '\n' {
                ' '
            } else {
                c
            }
        })
        .collect()
}

/// Up to `max` characters drawn from `alphabet`.
fn string_of(rng: &mut Rng, alphabet: &str, max: usize) -> String {
    let chars: Vec<char> = alphabet.chars().collect();
    let len = rng.random_range(0..=max);
    (0..len).map(|_| chars[rng.random_range(0..chars.len())]).collect()
}

/// Run `check` on `CASES` inputs from a stream seeded with `seed`.
fn for_cases(seed: u64, mut check: impl FnMut(&mut Rng)) {
    let mut rng = Rng::seed_from_u64(seed);
    for _ in 0..CASES {
        check(&mut rng);
    }
}

/// The XPath parser never panics on arbitrary input.
#[test]
fn xpath_parser_never_panics() {
    for_cases(1, |rng| {
        let _ = gkp_xpath::syntax::parse(&any_string(rng, 60));
    });
}

/// The XPath parser never panics on plausible-looking query fragments.
#[test]
fn xpath_parser_never_panics_on_querylike() {
    for_cases(2, |rng| {
        let _ = gkp_xpath::syntax::parse(&string_of(
            rng,
            "abcdefghijklmnopqrstuvwxyz/@[]():*.'= |0123456789$!<>+-",
            40,
        ));
    });
}

/// The XML parser never panics on arbitrary input.
#[test]
fn xml_parser_never_panics() {
    for_cases(3, |rng| {
        let _ = Document::parse_str(&any_string(rng, 80));
    });
}

/// The XML parser never panics on markup-looking input.
#[test]
fn xml_parser_never_panics_on_markuplike() {
    for_cases(4, |rng| {
        let _ = Document::parse_str(&string_of(
            rng,
            "abcdefghijklmnopqrstuvwxyz<>/='\"! -?[]&;#x0123456789",
            60,
        ));
    });
}

/// Whatever parses also evaluates without panicking (errors allowed):
/// queries shaped `(//)?[abc](\[[0-9]\])?(/[abc])*`.
#[test]
fn parsed_queries_evaluate_or_error() {
    let doc = Document::parse_str("<a><b><c/></b></a>").unwrap();
    for_cases(5, |rng| {
        let mut s = String::new();
        if rng.random_bool(0.5) {
            s.push_str("//");
        }
        s.push(['a', 'b', 'c'][rng.random_range(0..3usize)]);
        if rng.random_bool(0.5) {
            s.push_str(&format!("[{}]", rng.random_range(0u32..10)));
        }
        for _ in 0..rng.random_range(0..=8) {
            s.push('/');
            s.push(['a', 'b', 'c'][rng.random_range(0..3usize)]);
        }
        if gkp_xpath::syntax::parse(&s).is_ok() {
            let _ = evaluate(&doc, &s);
        }
    });
}

/// The DTD internal-subset parser never panics on arbitrary input.
#[test]
fn dtd_parser_never_panics() {
    for_cases(6, |rng| {
        let _ = gkp_xpath::xml::dtd::parse_doctype_body(&any_string(rng, 80), 0);
    });
}

/// The DTD parser never panics on declaration-looking input.
#[test]
fn dtd_parser_never_panics_on_decl_like() {
    for_cases(7, |rng| {
        let body = string_of(
            rng,
            "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ <>![]()|,*+?#'\"%;-",
            70,
        );
        let _ = gkp_xpath::xml::dtd::parse_doctype_body(&body, 0);
    });
}

/// Documents with DOCTYPE prologs never panic the full parser.
#[test]
fn doctype_documents_never_panic() {
    for_cases(8, |rng| {
        let body = string_of(rng, "abcdefghijklmnopqrstuvwxyz <>![]()|,*+?#'\"-", 50);
        let _ = Document::parse_str(&format!("<!DOCTYPE {body}><a/>"));
    });
}

#[test]
fn type_errors_are_reported_not_panicked() {
    let doc = Document::parse_str("<a><b/></a>").unwrap();
    // Predicates on a non-node-set primary.
    assert!(evaluate(&doc, "(1)[2]").is_err());
    // count of a scalar.
    assert!(evaluate(&doc, "count(1)").is_err());
    // union of scalars.
    assert!(evaluate(&doc, "1 | 2").is_err());
    // unknown function.
    assert!(evaluate(&doc, "frobnicate()").is_err());
    // unbound variable (normalization rejects it).
    assert!(evaluate(&doc, "//a[$x]").is_err());
    // wrong arity.
    assert!(evaluate(&doc, "concat('a')").is_err());
    assert!(evaluate(&doc, "substring('a')").is_err());
}

#[test]
fn malformed_xml_is_reported() {
    for bad in [
        "",
        "<",
        "<a",
        "<a>",
        "<a></b>",
        "<a><b></a></b>",
        "text only",
        "<a>&bogus;</a>",
        "<a x></a>",
        "<a x=1></a>",
        "<a/><a/>",
        "<a>&#xZZ;</a>",
    ] {
        assert!(Document::parse_str(bad).is_err(), "{bad:?} should be rejected");
    }
}

#[test]
fn deeply_nested_documents_parse() {
    // Deep nesting must not overflow the parser (recursion depth = element
    // depth; 1000 is far beyond the paper's documents).
    let depth = 1000;
    let mut s = String::new();
    for _ in 0..depth {
        s.push_str("<d>");
    }
    for _ in 0..depth {
        s.push_str("</d>");
    }
    let d = Document::parse_str(&s).unwrap();
    assert_eq!(d.len(), depth + 1);
    // And deep queries evaluate.
    assert_eq!(evaluate(&d, "count(//d)").unwrap().to_string(), depth.to_string());
}

#[test]
fn large_flat_documents() {
    let d = gkp_xpath::xml::generate::doc_flat(50_000);
    assert_eq!(evaluate(&d, "count(//b)").unwrap().to_string(), "50000");
    assert_eq!(select(&d, "//b[not(following-sibling::b)]").unwrap().len(), 1);
}
