//! Rewrite differential suite: every compile runs the sound rewrite pass
//! (`xpath_syntax::rewrite`), so the rewritten query must be
//! indistinguishable from the normalized query it came from.
//!
//! * **Results**: the compiled Auto answer equals TopDown (§7) and
//!   OptMinContext (§11.2) run through `plan::execute_adhoc` on the
//!   normalized expression *before* the rewrite, on random and bookstore
//!   documents and a small catalog shaped like the served benchmark's.
//! * **Figure 1 labels**: `classify` gives the same fragment before and
//!   after the rewrite (the `CLASSIFIED` table is checked in
//!   `tests/fragment_conformance.rs`).
//! * **Lint verdicts**: satisfiability, the lazy verdict, the constant
//!   result and the diagnostics `xpq --lint` prints for `queries/*.txt`
//!   are the same as the analyzer's report on the un-rewritten query.
//!
//! The query set is every query in `queries/*.txt` plus the query shapes
//! of the served benchmark's catalog workloads.

use gkp_xpath::core::analyze::{Laziness, QueryReport};
use gkp_xpath::core::fragment::classify;
use gkp_xpath::core::plan::{self, Plan};
use gkp_xpath::core::{Context, Strategy};
use gkp_xpath::syntax::{parse_normalized, Expr};
use gkp_xpath::xml::generate::{doc_bookstore, doc_random, RandomDocConfig};
use gkp_xpath::{Compiler, Document};

/// The served benchmark's catalog shapes (aggregates, value tests and
/// bare paths, every one starting with `//`).
const CATALOG_SHAPES: &[&str] = &[
    "count(//item[@sale])",
    "sum(//section[@kind='k1']//item/@qty)",
    "boolean(//item[review/rating=1][not(stock)][@qty>328])",
    "//item[@qty=0]/title",
    "count(//tag[.='t0'])",
];

fn corpus(content: &str) -> Vec<&str> {
    content.lines().map(str::trim).filter(|l| !l.is_empty() && !l.starts_with('#')).collect()
}

/// Every query of the checked-in corpora.
fn file_queries() -> Vec<&'static str> {
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

fn all_queries() -> Vec<&'static str> {
    let mut out = file_queries();
    out.extend_from_slice(CATALOG_SHAPES);
    out
}

/// A few sections of items in the served benchmark's catalog format.
fn doc_catalog() -> Document {
    Document::parse_str(concat!(
        r#"<catalog><section name="s0" kind="k1">"#,
        r#"<item id="i0" price="10" qty="0" sale="yes"><title>A</title><tag>t0</tag>"#,
        r#"<review><rating>1</rating></review></item>"#,
        r#"<item id="i1" price="20" qty="400"><title>B</title><tag>t1</tag><tag>t0</tag>"#,
        r#"<review><rating>1</rating></review><related>i0</related></item>"#,
        r#"<section name="s1" kind="k1"><item id="i2" price="5" qty="329" sale="yes">"#,
        r#"<title>C</title><stock>3</stock></item></section></section>"#,
        r#"<section name="s2" kind="k2"><item id="i3" price="7" qty="0"><title>D</title>"#,
        r#"<tag>t2</tag><review><rating>4</rating></review><stock>0</stock></item>"#,
        r#"</section></catalog>"#
    ))
    .expect("catalog sample is well-formed")
}

fn documents() -> Vec<(String, Document)> {
    let labels = [
        "doc", "chapter", "para", "section", "title", "item", "tag", "review", "rating", "stock",
        "a", "b", "c", "d",
    ];
    let mut docs =
        vec![("bookstore".to_string(), doc_bookstore()), ("catalog".to_string(), doc_catalog())];
    for seed in 0..4u64 {
        let cfg = RandomDocConfig {
            elements: 60,
            labels: labels.iter().map(ToString::to_string).collect(),
            ..RandomDocConfig::default()
        };
        docs.push((format!("random seed {seed}"), doc_random(seed, &cfg)));
    }
    docs
}

/// The normalized query before the rewrite pass.
fn unrewritten(q: &str) -> Expr {
    parse_normalized(q).unwrap_or_else(|e| panic!("{q}: {e}"))
}

#[test]
fn rewritten_queries_agree_with_the_oracles_on_the_unrewritten_form() {
    let compiler = Compiler::new();
    for (name, doc) in documents() {
        let ctx = Context::of(doc.root());
        for q in all_queries() {
            let plain = unrewritten(q);
            let got = compiler.compile(q).unwrap().evaluate(&doc, ctx);
            for s in [Strategy::TopDown, Strategy::OptMinContext] {
                match (&got, plan::execute_adhoc(&plain, s, None, &doc, ctx)) {
                    (Ok(g), Ok(w)) => assert!(
                        g.semantically_equal(&w),
                        "{name}: {q}: rewritten Auto gave {g:?}, {s:?} on {plain} gave {w:?}"
                    ),
                    (Err(_), Err(_)) => {}
                    (g, w) => panic!("{name}: {q}: rewritten Auto {g:?} vs {s:?} {w:?}"),
                }
            }
        }
    }
}

#[test]
fn the_rewrite_keeps_every_figure_1_label() {
    let compiler = Compiler::new();
    for q in all_queries() {
        let compiled = compiler.compile(q).unwrap();
        assert_eq!(compiled.fragment(), classify(&unrewritten(q)).fragment, "{q}");
    }
}

/// The parts of a report `xpq --lint` prints as verdicts.
fn verdicts(r: &QueryReport) -> impl PartialEq + std::fmt::Debug {
    let codes: Vec<_> = r.diagnostics.iter().map(|d| (d.severity, d.code)).collect();
    (
        r.is_empty_query(),
        matches!(r.laziness, Laziness::Lazy),
        r.const_result.as_ref().map(ToString::to_string),
        codes,
    )
}

#[test]
fn the_rewrite_keeps_every_lint_verdict() {
    let compiler = Compiler::new();
    for q in file_queries() {
        let rewritten = compiler.compile(q).unwrap();
        let before = Plan::build(unrewritten(q), Strategy::Auto, None).unwrap();
        assert_eq!(verdicts(rewritten.report()), verdicts(before.report()), "{q}");
    }
}

#[test]
fn descendant_steps_merge_in_the_catalog_shapes() {
    // Every catalog shape starts with `//`; none keeps the
    // `descendant-or-self::node()` step after the rewrite.
    for q in CATALOG_SHAPES {
        let e = Compiler::new().parse(q).unwrap().to_string();
        assert!(!e.contains("descendant-or-self::node()"), "{q} → {e}");
    }
}
