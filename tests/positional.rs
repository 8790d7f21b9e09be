//! Positional predicates: every evaluator agrees on the closed form
//! `position() op R` that MinContext decides by index, on the checked-in
//! corpus (`queries/positional.txt`) and on a generated grid of every
//! comparison against edge-case bounds along forward, reverse and filter
//! orders.

use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use gkp_xpath::core::{plan, Context};
use gkp_xpath::xml::generate::{
    doc_balanced, doc_bookstore, doc_figure8, doc_flat, doc_random, RandomDocConfig,
};
use gkp_xpath::{Compiler, Document, EvalBudget, EvalError, Strategy};

fn corpus() -> Vec<String> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("queries/positional.txt");
    std::fs::read_to_string(path)
        .unwrap()
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(String::from)
        .collect()
}

fn agree(q: &str, doc: &Document) {
    let e = Compiler::new().parse(q).unwrap_or_else(|err| panic!("{q}: {err}"));
    plan::evaluate_all_agree(&e, doc, Context::of(doc.root()), 1_000_000)
        .unwrap_or_else(|err| panic!("{q} on {doc:?}: {err}"));
}

fn corpus_agrees_on(doc: &Document) {
    let queries = corpus();
    assert!(queries.len() >= 30, "{queries:?}");
    for q in &queries {
        agree(q, doc);
    }
}

// One test per document, so the slow one (bottom-up's `{cp,cs}` tables
// on 1,366 nodes) runs beside the rest.
#[test]
fn corpus_on_flat() {
    corpus_agrees_on(&doc_flat(6));
}

#[test]
fn corpus_on_balanced() {
    corpus_agrees_on(&doc_balanced(4, 5, &["a", "b", "c", "d"]));
}

#[test]
fn corpus_on_bookstore_figure8_and_random() {
    corpus_agrees_on(&doc_bookstore());
    corpus_agrees_on(&doc_figure8());
    corpus_agrees_on(&doc_random(29, &RandomDocConfig::default()));
}

/// Every comparison, in both operand orders, against bounds that are
/// zero, negative, fractional, NaN, infinite, past the end and relative
/// to `last()`, along a forward axis, a reverse axis, a filter
/// expression and an inner path.
#[test]
fn every_comparison_against_edge_bounds_agrees() {
    let ops = ["=", "!=", "<", "<=", ">", ">="];
    let bounds = [
        "0",
        "-1",
        "1",
        "2",
        "2.5",
        "9",
        "0 div 0",
        "1 div 0",
        "-1 div 0",
        "last()",
        "last() - 1",
        "last() + 1",
        "last() - 0.5",
        "1 + last()",
        "3 - last()",
    ];
    let shapes = ["/a/b[{}]", "//c/ancestor::*[{}]", "(//b)[{}]", "//a[b[{}]]"];
    let doc = doc_balanced(3, 3, &["a", "b", "c", "d"]);
    let flat = doc_flat(5);
    for op in ops {
        for r in bounds {
            for pred in [format!("position() {op} {r}"), format!("{r} {op} position()")] {
                for shape in shapes {
                    let q = shape.replace("{}", &pred);
                    agree(&q, &doc);
                    agree(&q, &flat);
                }
            }
        }
    }
}

/// A tripped budget stops a positional evaluation with the budget's
/// error, not a partial answer, on the pinned MinContext evaluators and
/// on Auto.
#[test]
fn budget_trips_positional_evaluation() {
    let doc = doc_flat(1_000);
    let cancel = Arc::new(AtomicBool::new(true));
    let budget = EvalBudget::unlimited().with_cancel(cancel);
    for strategy in [Strategy::Auto, Strategy::MinContext, Strategy::OptMinContext] {
        for q in ["/a/b[500]", "(//b)[last()]", "count(//a[b[2]])"] {
            let compiled = Compiler::new().default_strategy(strategy).compile(q).unwrap();
            let out = compiled.evaluate_with(&doc, Context::of(doc.root()), &budget);
            assert!(matches!(out, Err(EvalError::Cancelled)), "{strategy:?} {q}: {out:?}");
            // Without the trip the same query answers.
            assert!(compiled.evaluate_root(&doc).is_ok(), "{strategy:?} {q}");
        }
    }
}
