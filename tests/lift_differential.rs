//! Lifting differential suite: under `Strategy::Auto`, a query whose paths
//! outside predicates are all Core XPath / XPatterns runs those paths on
//! the §10 algebra and folds the rest of the query over their node sets
//! (`xpath_core::lift`). Every answer must agree with the paper's
//! TopDown (§7) and OptMinContext (§11.2) evaluators — which never lift —
//! on generated documents, from the root and from relative contexts, for
//! every query of `queries/*.txt` and for aggregate, comparison,
//! arithmetic, union and `id()` shapes, and for value tests (`π op c`)
//! over numeric, non-numeric, empty and whitespace-padded values.
//! Queries with a path the algebra rejects must fall back to Figure 1's
//! choice.

use std::time::Duration;

use gkp_xpath::core::engine::Strategy;
use gkp_xpath::core::Context;
use gkp_xpath::xml::generate::{
    doc_balanced, doc_bookstore, doc_idref_chain, doc_random, RandomDocConfig,
};
use gkp_xpath::{Compiler, Document, EvalBudget, EvalError};

/// Aggregates, comparisons, arithmetic, unions and `id()` over fragment
/// paths: every one lifts.
const LIFTED: &[&str] = &[
    // count / sum / boolean / not / string / number over fragment paths.
    "count(//a)",
    "count(//b[c])",
    "count(//*[not(ancestor::b)])",
    "count(//book[author]/title)",
    "sum(//d)",
    "sum(//item/@id)",
    "boolean(//c[preceding::a])",
    "not(//a[descendant::d]/following::b)",
    "string(//b/c)",
    "number(//d)",
    "string-length(//title)",
    // XPatterns paths (=s predicates) inside aggregates.
    "count(//*[c = '100'])",
    "count(//book[title = 'XPath Processing'])",
    // Comparisons and arithmetic against constants.
    "count(//c) > 3",
    "count(//a//c) = 0",
    "//d = 100",
    "//d != '7'",
    "sum(//d) div count(//d) >= 10",
    "count(//b) * 2 + 1",
    "-count(//a) mod 3",
    "count(//a) = count(//b) or boolean(//c)",
    // Unions.
    "//a | //b",
    "//b/c | //d | //a[b]",
    "count(//a | //c)",
    // id() over paths and literals.
    "id(//related)",
    "count(id(//item))",
    "id('i1')/following-sibling::item",
    "count(id('i3') | //item[not(related)])",
    // Relative paths lift too (evaluated at the context node).
    "count(child::*)",
    "count(descendant::*) - count(child::*)",
    "string(.)",
    // Value tests π op c: each operator in both orientations.
    "//item[@qty > 5]",
    "//item[5 < @qty]",
    "//*[d >= 100]",
    "//*[100 <= d]",
    "//*[d < 50]",
    "//*[50 > d]",
    "//*[d <= 13]",
    "//*[13 >= d]",
    "//*[d = 7]",
    "//*[7 = d]",
    "//*[d != 100]",
    "//*[100 != d]",
    // Negated constants.
    "//item[@qty > -3]",
    "//*[-2.5 = @qty]",
    "//*[d <= -1]",
    // A string constant under a relational operator compares numbers:
    // never true for a non-numeric string, numeric for '40'.
    "//*[d < 'abc']",
    "//*['abc' >= d]",
    "//*[d > '40']",
    // != against a string and against a number.
    "//*[c != 'x']",
    "//item[@qty != 5]",
    // Value tests under not(...) and or.
    "//b[not(d > 50)]",
    "//*[c or d >= 100]",
    "//item[not(@price != ' 12 ') or title < 3]",
    // Value tests under count, sum and boolean.
    "count(//item[@qty > 5])",
    "sum(//d[. < 500])",
    "sum(//item[@price < 100]/@qty)",
    "boolean(//item[review/rating = 5][not(stock)][@qty > 328])",
    "boolean(//item[@price > 10][@sale])",
    // Step-less paths: the test filters the start node.
    "//d[/ = 'x']",
    "count(//*[/ != 'x'])",
];

/// Paths outside both dialects, a filter expression, or no path at all
/// keep the query on Figure 1.
const FALLBACK: &[&str] = &[
    "count(//b[position() = last()])",
    "count(//a) + count(//b[count(c) > 1])",
    "count((//a | //b)[1])",
    "sum(//d[string(.) = '100'])",
    "//b[last()]",
    // No path at all: nothing to lift.
    "1 + 2",
    "concat('a', 'b')",
];

fn corpus(content: &str) -> Vec<&str> {
    content.lines().map(str::trim).filter(|l| !l.is_empty() && !l.starts_with('#')).collect()
}

fn corpus_queries() -> Vec<&'static str> {
    [
        include_str!("../queries/adversarial.txt"),
        include_str!("../queries/bench_axes.txt"),
        include_str!("../queries/value_tests.txt"),
        include_str!("../queries/w3c_examples.txt"),
    ]
    .into_iter()
    .flat_map(corpus)
    .collect()
}

fn documents() -> Vec<(String, Document)> {
    let labels = ["doc", "chapter", "para", "section", "title", "a", "b", "c", "d"];
    let mut docs = vec![
        ("values".to_string(), doc_values()),
        ("bookstore".to_string(), doc_bookstore()),
        ("balanced".to_string(), doc_balanced(3, 4, &["a", "b", "c", "d"])),
        ("idref chain".to_string(), doc_idref_chain(9)),
    ];
    for seed in 0..4u64 {
        let cfg = RandomDocConfig {
            elements: 50,
            labels: labels.iter().map(ToString::to_string).collect(),
            ..RandomDocConfig::default()
        };
        docs.push((format!("random seed {seed}"), doc_random(seed, &cfg)));
    }
    docs
}

/// A catalog whose values are numeric, non-numeric, empty,
/// whitespace-padded, negative, and (for `d` with an element inside)
/// joined from several text nodes.
fn doc_values() -> Document {
    Document::parse_str(concat!(
        r#"<catalog>"#,
        r#"<item id="i1" qty="5" price=" 12 " sale="y"><title>A</title><d>100</d>"#,
        r#"<review><rating>5</rating></review></item>"#,
        r#"<item id="i2" qty="abc" price=""><title/><d>  7  </d><d>-3</d><stock>1</stock></item>"#,
        r#"<item id="i3" qty=" 330 " price="1e3"><title>2</title><d/><c>5</c>"#,
        r#"<review><rating> 5 </rating></review></item>"#,
        r#"<item id="i4" qty="-2.5" price="NaN" sale=""><d>4<b>0</b></d><c>x</c></item>"#,
        r#"<b><c>100</c><d>NaN</d></b><b><d>50</d><d>abc</d></b><b><c>x</c></b>"#,
        r#"</catalog>"#
    ))
    .expect("value corpus is well-formed")
}

/// The root plus a few element contexts spread over the document.
fn contexts(doc: &Document) -> Vec<Context> {
    let elements: Vec<_> =
        doc.all_nodes().filter(|&n| doc.name(n).is_some() && doc.parent(n).is_some()).collect();
    let mut out = vec![Context::of(doc.root())];
    out.extend(elements.iter().step_by((elements.len() / 3).max(1)).map(|&n| Context::of(n)));
    out
}

/// Auto must agree with TopDown and OptMinContext on every document and
/// context (errors included: all three fail or none does).
fn assert_auto_agrees(queries: &[&str]) {
    let auto = Compiler::new();
    let oracles = [Strategy::TopDown, Strategy::OptMinContext];
    for (name, doc) in documents() {
        for q in queries {
            let lifted = auto.compile(q).unwrap_or_else(|e| panic!("{q}: {e}"));
            let oracle: Vec<_> = oracles
                .iter()
                .map(|&s| Compiler::new().default_strategy(s).compile(q).unwrap())
                .collect();
            for ctx in contexts(&doc) {
                let got = lifted.evaluate(&doc, ctx);
                for (s, o) in oracles.iter().zip(&oracle) {
                    match (&got, o.evaluate(&doc, ctx)) {
                        (Ok(g), Ok(w)) => assert!(
                            g.semantically_equal(&w),
                            "{name}: {q} at {:?}: Auto ({:?}) gave {g:?}, {s:?} gave {w:?}",
                            ctx.node,
                            lifted.strategy()
                        ),
                        (Err(_), Err(_)) => {}
                        (g, w) => panic!("{name}: {q}: Auto {g:?} vs {s:?} {w:?}"),
                    }
                }
            }
        }
    }
}

#[test]
fn aggregate_shapes_lift_and_agree_with_the_oracles() {
    let compiler = Compiler::new();
    for q in LIFTED {
        let c = compiler.compile(q).unwrap();
        assert!(
            matches!(c.strategy(), Strategy::CoreXPath | Strategy::XPatterns),
            "{q} should lift onto the algebra, resolved to {:?}",
            c.strategy()
        );
    }
    assert_auto_agrees(LIFTED);
}

#[test]
fn corpus_queries_agree_with_the_oracles() {
    assert_auto_agrees(&corpus_queries());
}

#[test]
fn non_liftable_remainders_fall_back_to_figure_1() {
    let compiler = Compiler::new();
    for q in FALLBACK {
        let c = compiler.compile(q).unwrap();
        assert_eq!(c.strategy(), Strategy::OptMinContext, "{q}");
        assert!(c.plan().program().is_none(), "{q}");
    }
    assert_auto_agrees(FALLBACK);
}

#[test]
fn dialect_is_the_widest_lifted_path_needs() {
    let compiler = Compiler::new();
    assert_eq!(
        compiler.compile("count(//a) + count(//b)").unwrap().strategy(),
        Strategy::CoreXPath
    );
    assert_eq!(
        compiler.compile("count(//a) + count(//b[c = 'x'])").unwrap().strategy(),
        Strategy::XPatterns
    );
    assert_eq!(compiler.compile("count(id(//a))").unwrap().strategy(), Strategy::XPatterns);
}

#[test]
fn forced_strategies_never_lift() {
    for s in [Strategy::TopDown, Strategy::MinContext, Strategy::OptMinContext] {
        let c = Compiler::new().default_strategy(s).compile("count(//a)").unwrap();
        assert_eq!(c.strategy(), s);
        assert!(c.plan().program().is_none());
    }
    // An explicit fragment strategy still rejects a non-path query.
    let rejected = Compiler::new().default_strategy(Strategy::CoreXPath).compile("count(//a)");
    assert!(matches!(rejected, Err(EvalError::UnsupportedFragment(_))));
}

#[test]
fn lifted_plan_under_an_expired_budget_reports_deadline_exceeded() {
    let doc = doc_balanced(4, 5, &["a", "b", "c", "d"]);
    let c = Compiler::new().compile("count(//a//c) + sum(//d)").unwrap();
    assert_eq!(c.strategy(), Strategy::CoreXPath);
    let budget = EvalBudget::timeout(Duration::ZERO);
    std::thread::sleep(Duration::from_millis(2));
    let err = c.evaluate_with(&doc, Context::of(doc.root()), &budget).unwrap_err();
    assert!(matches!(err, EvalError::DeadlineExceeded), "got {err:?}");
    // The handle stays usable afterwards.
    assert!(c.evaluate_root(&doc).is_ok());
}
