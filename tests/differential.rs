//! Differential testing: all eight algorithms must agree on a broad query
//! corpus across documents of different shapes.

use gkp_xpath::core::{plan, Context};
use gkp_xpath::xml::generate::{
    doc_ab_groups, doc_balanced, doc_bookstore, doc_deep_path, doc_figure8, doc_flat,
    doc_flat_text, doc_idref_chain, doc_random, RandomDocConfig,
};
use gkp_xpath::{Compiler, Document};

/// The shared query corpus. Everything here is valid full XPath; fragments
/// vary so all dispatch routes get exercised.
const CORPUS: &[&str] = &[
    // Paths and axes.
    "//a",
    "//b/c",
    "//*",
    "/child::*/child::*",
    "//b/parent::*",
    "//c/ancestor::*",
    "//a/descendant-or-self::b",
    "//b/following::c",
    "//c/preceding::b",
    "//b/following-sibling::*",
    "//c/preceding-sibling::*",
    "//b/ancestor-or-self::node()",
    "//text()",
    "//comment()",
    "//@*",
    "//@id/parent::*",
    "//node()",
    // Predicates.
    "//b[c]",
    "//b[not(c)]",
    "//*[@id]",
    "//b[1]",
    "//b[2]",
    "//b[last()]",
    "//b[position() != last()]",
    "//b[position() = 2 or position() = last()]",
    "//*[c and d]",
    "//*[c][d]",
    "//b[c[2]]",
    "//*[self::b or self::c]",
    "//*[count(child::*) > 1]",
    "//*[count(*) = 2][1]",
    // Comparisons of all type pairs.
    "//*[c = '100']",
    "//*[c = 100]",
    "//*[d > 50]",
    "//*[c != d]",
    "//*[string-length(c) > 2]",
    "//*[. = '100']",
    "//*[@id > 10]",
    "//*[true() = c]",
    // Functions.
    "count(//b)",
    "count(//b) + count(//c) * 2",
    "sum(//d)",
    "string(//c)",
    "concat(name(/*), '-', string(count(//*)))",
    "boolean(//zzz)",
    "not(boolean(//b))",
    "normalize-space(string(//c[1]))",
    "substring(string(//c), 2, 3)",
    "translate(string(//c[1]), '0123456789', 'abcdefghij')",
    "floor(sum(//d) div 7)",
    "ceiling(count(//*) div 2)",
    "round(sum(//d) * 0.01)",
    "string-length(string(//c[1]))",
    "starts-with(string(//c[1]), '1')",
    "contains(string(/), '100')",
    "number('42') + 1",
    "number(//d[1])",
    // id machinery.
    "id('12 24')",
    "id('12')/parent::*",
    "id(//c)",
    // Unions and filters.
    "//b | //c",
    "(//b | //c)[3]",
    "(//c)[last()]",
    "(//b/c | //b/d)[2]/parent::*",
    // Arithmetic edge cases.
    "1 div 0",
    "-1 div 0",
    "0 div 0",
    "5 mod 2",
    "5.5 mod -2",
    "-5 mod 2",
    "2 * 3 - 4 div 2",
    "-(count(//b))",
    // Positional arithmetic in predicates.
    "//*[position() = last() - 1]",
    "//*[position() mod 2 = 1][position() <= 3]",
    "//b[position() > count(//c) div 2]",
];

fn check_doc(doc: &Document) {
    for q in CORPUS {
        let e = match Compiler::new().parse(q) {
            Ok(e) => e,
            Err(err) => panic!("{q}: {err}"),
        };
        plan::evaluate_all_agree(&e, doc, Context::of(doc.root()), 3_000_000)
            .unwrap_or_else(|err| panic!("{q} on {doc:?}: {err}"));
    }
}

#[test]
fn corpus_on_flat_docs() {
    check_doc(&doc_flat(5));
    check_doc(&doc_flat_text(4));
}

#[test]
fn corpus_on_figure8() {
    check_doc(&doc_figure8());
}

#[test]
fn corpus_on_bookstore() {
    check_doc(&doc_bookstore());
}

#[test]
fn corpus_on_deep_path() {
    check_doc(&doc_deep_path(12));
}

#[test]
fn corpus_on_balanced_tree() {
    check_doc(&doc_balanced(3, 3, &["a", "b", "c", "d"]));
}

#[test]
fn corpus_on_ab_groups() {
    check_doc(&doc_ab_groups(4, 5));
}

#[test]
fn corpus_on_idref_chain() {
    check_doc(&doc_idref_chain(9));
}

#[test]
fn corpus_on_random_documents() {
    for seed in 0..12 {
        let cfg = RandomDocConfig { elements: 30, ..RandomDocConfig::default() };
        check_doc(&doc_random(seed, &cfg));
    }
}

#[test]
fn corpus_on_namespace_synthesized_document() {
    // Namespace nodes in the tree must not perturb any algorithm: they are
    // filtered by every axis except `namespace` (§4).
    let doc = Document::parse_str_opts(
        r#"<a xmlns:p="urn:p" id="12">
             <b xmlns:q="urn:q"><c id="24">100</c><c>7</c></b>
             <b><d>50</d><d>51</d></b>
           </a>"#,
        gkp_xpath::xml::ParseOptions { namespaces: true, ..Default::default() },
    )
    .unwrap();
    check_doc(&doc);
}

#[test]
fn corpus_on_dtd_document() {
    // DTD-declared IDs, defaults and entities feed the same corpus.
    let doc = Document::parse_str(
        r#"<!DOCTYPE a [
             <!ATTLIST b id ID #IMPLIED kind CDATA "plain">
             <!ENTITY h "100">
           ]>
           <a><b id="12"><c>&h;</c><d>24</d></b><b id="24"><c>7</c></b></a>"#,
    )
    .unwrap();
    check_doc(&doc);
}

#[test]
fn corpus_from_non_root_contexts() {
    // Differential agreement must also hold for relative queries from
    // arbitrary context nodes.
    let doc = doc_figure8();
    let queries = [
        "child::*",
        "parent::*",
        "following-sibling::*[1]",
        "preceding-sibling::*[last()]",
        "count(ancestor::*)",
        "descendant::*[position() = 2]",
        "string(.)",
        "../*",
        ".//d",
        "self::node()",
    ];
    for node in doc.all_nodes() {
        for q in queries {
            let e = Compiler::new().parse(q).unwrap();
            plan::evaluate_all_agree(&e, &doc, Context::of(node), 1_000_000)
                .unwrap_or_else(|err| panic!("{q} at {node:?}: {err}"));
        }
    }
}
