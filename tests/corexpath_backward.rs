//! Exhaustive checks of the Core XPath backward semantics `S←`
//! (Definition 10.2, Theorem 10.4): for every axis and several predicate
//! shapes, `S←[[π]]` must equal `{x | S↓[[π]]({x}) ≠ ∅}` — computed here by
//! evaluating the path from every node with the general engine.

use gkp_xpath::core::corexpath::{compile_xpatterns, CoreXPathEvaluator};
use gkp_xpath::core::topdown::TopDownEvaluator;
use gkp_xpath::core::{Context, Value};
use gkp_xpath::xml::generate::{doc_bookstore, doc_figure8, doc_random, RandomDocConfig};
use gkp_xpath::{Document, EvalBudget, NodeId};

/// Brute-force S← via the top-down engine: evaluate π at every node and
/// keep those with non-empty results.
fn brute_force_matches(doc: &Document, q: &str) -> Vec<NodeId> {
    let e = gkp_xpath::syntax::parse_normalized(q).unwrap();
    let td = TopDownEvaluator::new(doc);
    doc.all_nodes()
        .filter(|&n| match td.evaluate(&e, Context::of(n)) {
            Ok(Value::NodeSet(s)) => !s.is_empty(),
            other => panic!("{q} at {n:?}: {other:?}"),
        })
        .collect()
}

fn check(doc: &Document, q: &str) {
    let e = gkp_xpath::syntax::parse_normalized(q).unwrap();
    let compiled = compile_xpatterns(&e).unwrap_or_else(|err| panic!("{q}: {err}"));
    let ev = CoreXPathEvaluator::new(doc);
    let fast = ev.matching_contexts(&compiled, &EvalBudget::unlimited()).unwrap();
    let brute = brute_force_matches(doc, q);
    assert_eq!(fast.to_vec(), brute, "S← mismatch for {q}");
}

/// Theorem 10.4 on relative single-step paths, one per axis.
#[test]
fn single_step_every_axis() {
    let docs = [doc_figure8(), doc_bookstore()];
    for d in &docs {
        for q in [
            "self::b",
            "child::c",
            "parent::b",
            "descendant::d",
            "ancestor::b",
            "descendant-or-self::c",
            "ancestor-or-self::a",
            "following::d",
            "preceding::c",
            "following-sibling::d",
            "preceding-sibling::c",
            "attribute::id",
            "child::text()",
            "child::node()",
            "self::*",
        ] {
            check(d, q);
        }
    }
}

/// Multi-step paths mixing antagonist axes.
#[test]
fn multi_step_paths() {
    let docs = [doc_figure8(), doc_bookstore()];
    for d in &docs {
        for q in [
            "child::c/following-sibling::d",
            "parent::b/parent::a",
            "descendant::c/ancestor::b",
            "following::d/preceding::c",
            "ancestor::*/child::b",
            "child::*/child::*/child::*",
            "preceding-sibling::*/descendant::c",
            "attribute::id/parent::*",
        ] {
            check(d, q);
        }
    }
}

/// Paths with boolean predicate structure (and/or/not, nesting).
#[test]
fn predicated_paths() {
    let docs = [doc_figure8(), doc_bookstore()];
    for d in &docs {
        for q in [
            "child::b[child::c]",
            "child::b[not(child::c)]",
            "descendant::*[child::c and child::d]",
            "descendant::*[child::c or not(following::*)]",
            "child::b[child::c[following-sibling::d]]",
            "descendant::d[not(preceding-sibling::c[child::zzz])]",
        ] {
            check(d, q);
        }
    }
}

/// Absolute paths inside predicates use the dom/root operation.
#[test]
fn absolute_paths() {
    let d = doc_figure8();
    for q in [
        "/child::a",
        "/descendant::d",
        "/descendant::zzz",
        "descendant::b[/descendant::d]",
        "descendant::b[/descendant::zzz]",
    ] {
        check(&d, q);
    }
}

/// XPatterns `=s` comparisons, both orientations and numeric form.
#[test]
fn eq_s_paths() {
    let d = doc_figure8();
    for q in [
        "child::*[child::c = '21 22']",
        "descendant::*[child::d = 100]",
        "descendant::d[self::* = 100]",
        "child::b[descendant::* = '23 24']",
    ] {
        check(&d, q);
    }
}

/// Random documents: S← equals brute force on a query battery.
#[test]
fn backward_on_random_documents() {
    let queries = [
        "child::b[child::c]",
        "descendant::*[following-sibling::a]",
        "ancestor::*[not(child::d)]",
        "following::c/parent::*",
        "preceding::*[child::a or child::b]",
        "self::a[descendant::c]",
    ];
    for seed in 0..10 {
        let cfg = RandomDocConfig { elements: 25, ..RandomDocConfig::default() };
        let d = doc_random(seed, &cfg);
        for q in queries {
            check(&d, q);
        }
    }
}

/// The forward semantics S→ with a non-trivial context set equals the
/// union of per-node evaluations (Theorem 10.4 third equation).
#[test]
fn forward_set_semantics() {
    let d = doc_bookstore();
    let e = gkp_xpath::syntax::parse_normalized("child::book[child::author]/child::title").unwrap();
    let compiled = compile_xpatterns(&e).unwrap();
    let ev = CoreXPathEvaluator::new(&d);
    let td = TopDownEvaluator::new(&d);
    let contexts: Vec<NodeId> = d.all_nodes().filter(|n| n.0 % 3 == 0).collect();
    let fast = ev.evaluate(&compiled, &contexts, &EvalBudget::unlimited()).unwrap();
    let mut brute: Vec<NodeId> = Vec::new();
    for &x in &contexts {
        if let Value::NodeSet(s) = td.evaluate(&e, Context::of(x)).unwrap() {
            brute.extend(s);
        }
    }
    brute.sort_unstable();
    brute.dedup();
    assert_eq!(fast.to_vec(), brute);
}
