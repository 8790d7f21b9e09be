//! Every worked example of the paper, executed end-to-end through every
//! evaluation algorithm.

use gkp_xpath::core::{plan, Context, Strategy};
use gkp_xpath::xml::generate::{doc_figure8, doc_flat};
use gkp_xpath::{CompiledQuery, Compiler, Document, NodeId, Value};

const ALL_STRATEGIES: &[Strategy] = &[
    Strategy::Naive,
    Strategy::DataPool,
    Strategy::BottomUp,
    Strategy::TopDown,
    Strategy::MinContext,
    Strategy::OptMinContext,
];

fn expect_nodes(doc: &Document, q: &str, ctx: Context, expect: &[NodeId]) {
    for &s in ALL_STRATEGIES {
        let e = Compiler::new().parse(q).unwrap();
        let v = plan::execute_adhoc(&e, s, None, doc, ctx)
            .unwrap_or_else(|err| panic!("{s:?} on {q}: {err}"));
        assert_eq!(
            v.as_node_set().map(gkp_xpath::xml::NodeSet::to_vec),
            Some(expect.to_vec()),
            "{s:?} on {q}"
        );
    }
}

/// `q` at the root under Auto, printed.
fn eval(doc: &Document, q: &str) -> String {
    CompiledQuery::compile(q).unwrap().evaluate_root(doc).unwrap().to_string()
}

/// `q` at the root with `strategy` pinned.
fn eval_with(doc: &Document, q: &str, strategy: Strategy) -> Value {
    Compiler::new().default_strategy(strategy).compile(q).unwrap().evaluate_root(doc).unwrap()
}

/// Example 6.4 / 7.3: `descendant::b/following-sibling::*[position() !=
/// last()]` over DOC(4) with context ⟨a,1,1⟩ yields {b2, b3}.
#[test]
fn example_6_4_and_7_3() {
    let d = doc_flat(4);
    let a = d.document_element().unwrap();
    let bs: Vec<NodeId> = d.children(a).collect();
    expect_nodes(
        &d,
        "descendant::b/following-sibling::*[position() != last()]",
        Context::of(a),
        &[bs[1], bs[2]],
    );
}

/// Example 4.1: the typed node sets of DOC(4).
#[test]
fn example_4_1() {
    let d = doc_flat(4);
    assert_eq!(eval(&d, "count(//node()) + 1"), "6");
    assert_eq!(eval(&d, "count(//*)"), "5");
    assert_eq!(eval(&d, "count(//a)"), "1");
    assert_eq!(eval(&d, "count(//b)"), "4");
}

/// Example 8.1: the §8 running example over the Figure 8 document.
#[test]
fn example_8_1() {
    let d = doc_figure8();
    let expect: Vec<NodeId> =
        ["13", "14", "21", "22", "23", "24"].iter().map(|i| d.element_by_id(i).unwrap()).collect();
    expect_nodes(
        &d,
        "/descendant::*/descendant::*[position() > last() * 0.5 or string(self::*) = '100']",
        Context::of(d.element_by_id("10").unwrap()),
        &expect,
    );
}

/// Example 8.3: the outermost-path node sets X, Y, Z of the §8 query.
#[test]
fn example_8_3_intermediate_sets() {
    let d = doc_figure8();
    // Y = nodes selected by /descendant::* — all 9 elements.
    assert_eq!(CompiledQuery::compile("/descendant::*").unwrap().select(&d).unwrap().len(), 9);
    // After the second descendant step (before the predicate): 8 nodes.
    assert_eq!(
        CompiledQuery::compile("/descendant::*/descendant::*").unwrap().select(&d).unwrap().len(),
        8
    );
}

/// Example 10.3-style Core XPath query through the algebraic evaluator and
/// the general engines.
#[test]
fn example_10_3_shape() {
    let d = doc_figure8();
    let q = "/descendant::b/child::c[child::d or not(following::*)]";
    let general = eval_with(&d, q, Strategy::TopDown);
    let core = eval_with(&d, q, Strategy::CoreXPath);
    assert_eq!(general, core);
}

/// Example 11.2: the full OptMinContext walkthrough, result
/// {x11, x12, x13, x14, x22}.
#[test]
fn example_11_2() {
    let d = doc_figure8();
    let expect: Vec<NodeId> =
        ["11", "12", "13", "14", "22"].iter().map(|i| d.element_by_id(i).unwrap()).collect();
    expect_nodes(
        &d,
        "/child::a/descendant::*[boolean(following::d[(position() != last()) and \
         (preceding-sibling::*/preceding::* = 100)]/following::d)]",
        Context::of(d.root()),
        &expect,
    );
}

/// The experiment queries of §2 produce the values the paper describes.
#[test]
fn section_2_experiment_queries() {
    // Experiment 1 on DOC(2): every query returns both b's.
    let d = doc_flat(2);
    let a = d.document_element().unwrap();
    let bs: Vec<NodeId> = d.children(a).collect();
    for k in 0..6 {
        let mut q = String::from("//a/b");
        for _ in 0..k {
            q.push_str("/parent::a/b");
        }
        expect_nodes(&d, &q, Context::of(d.root()), &bs);
    }
    // Experiment 3 discussion: on DOC(2) the count predicate holds (2 > 1).
    expect_nodes(&d, "//a/b[count(parent::a/b) > 1]", Context::of(d.root()), &bs);
}

/// Footnote example for Theorem 10.7 (the `ref` relation document).
#[test]
fn theorem_10_7_ref_document() {
    let d = gkp_xpath::Document::parse_str(
        r#"<t id="1"> 3 <t id="2"> 1 </t> <t id="3"> 1 2 </t> </t>"#,
    )
    .unwrap();
    // id of node 3's content {1, 2}.
    let hits = CompiledQuery::compile("id('1 2')").unwrap().select(&d).unwrap();
    assert_eq!(hits.len(), 2);
    // id() through the function and through the XPatterns axis agree.
    let via_fn = eval_with(&d, "id(//t[not(child::t)])", Strategy::TopDown);
    let via_core = eval_with(&d, "id(//t[not(child::t)])", Strategy::XPatterns);
    assert_eq!(via_fn, via_core);
}
