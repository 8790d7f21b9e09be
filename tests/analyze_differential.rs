//! Differential enforcement of the static analyzer's verdicts
//! (`xpath_core::analyze`): every claim the analyzer makes must be backed
//! by the evaluators it talks about.
//!
//! * **Empty ⇒ ∅**: a query marked provably-empty evaluates to the empty
//!   node set on random documents under every general strategy, from
//!   every context tried.
//! * **`Lazy` means it**: a query with the lazy verdict runs on the
//!   cursor's lazy pipeline and agrees with the tree-based oracle; a
//!   `Materialize` verdict never builds the pipeline.
//! * **Corpus coverage**: every query in the BENCH and w3c corpora gets a
//!   `QueryReport`, and the checked-in corpus files stay in sync with the
//!   tests they mirror.

use gkp_xpath::core::analyze::{QueryReport, Severity};
use gkp_xpath::core::plan::{execute_adhoc, Plan};
use gkp_xpath::core::{Context, EvalBudget, Strategy, Value};
use gkp_xpath::syntax::parse_normalized;
use gkp_xpath::xml::generate::{doc_balanced, doc_bookstore, doc_random, RandomDocConfig};
use gkp_xpath::{Compiler, Document};

/// The general (non-fragment) strategies: they accept every query, so the
/// analyzer's context-free verdicts can be checked against all of them.
const GENERAL: &[Strategy] = &[
    Strategy::Naive,
    Strategy::DataPool,
    Strategy::BottomUp,
    Strategy::TopDown,
    Strategy::MinContext,
    Strategy::OptMinContext,
];

fn contexts(doc: &Document) -> Vec<Context> {
    let mut out = vec![Context::of(doc.root())];
    if let Some(el) = doc.document_element() {
        out.push(Context::of(el));
        // A deeper, arbitrary context: emptiness verdicts are
        // context-free, so any node must do.
        if let Some(deep) = doc.children(el).last() {
            out.push(Context::of(deep));
        }
    }
    out
}

/// The analyzer's report for `e`, as the auto-dispatched plan computes it.
fn analyze(e: &gkp_xpath::syntax::Expr) -> QueryReport {
    Plan::build(e.clone(), Strategy::Auto, None).unwrap().report().clone()
}

fn node_set(v: Value) -> gkp_xpath::xml::NodeSet {
    match v {
        Value::NodeSet(s) => s,
        other => panic!("expected a node set, got {other:?}"),
    }
}

#[test]
fn provably_empty_queries_select_nothing_everywhere() {
    let corpus = [
        "/parent::*",
        "/ancestor::a",
        "/following::a",
        "/@id",
        "/self::a",
        "//b/self::c",
        "//b/self::text()",
        "//@id/child::*",
        "//@id/self::node()",
        "//@id/@x",
        "//text()/child::*",
        "//comment()/@x",
        "//a/parent::text()",
        "//a[false()]",
        "//a[0]",
        "//a[b and false()]",
        "//a[not(true())]",
        "//a[count(b) = //text()/child::*]",
    ];
    let docs: Vec<Document> = (0..6u64)
        .map(|seed| doc_random(seed, &RandomDocConfig { elements: 40, ..Default::default() }))
        .chain([doc_bookstore(), doc_balanced(3, 4, &["a", "b", "c", "d"])])
        .collect();
    for q in corpus {
        let e = parse_normalized(q).unwrap();
        let report = analyze(&e);
        assert!(report.is_empty_query(), "{q} must be provably empty: {report:?}");
        for doc in &docs {
            for ctx in contexts(doc) {
                for &s in GENERAL {
                    let got = node_set(execute_adhoc(&e, s, None, doc, ctx).unwrap());
                    assert!(
                        got.is_empty(),
                        "{q} under {s:?} from {:?} selected {} nodes — analyzer verdict is wrong",
                        ctx.node,
                        got.len()
                    );
                }
            }
        }
    }
}

#[test]
fn analyzer_never_marks_nonempty_results_empty() {
    // The converse guard on satisfiable shapes: whenever any strategy
    // finds nodes, the analyzer must NOT have claimed emptiness. (Vacuous
    // for truly empty results — soundness only cuts one way.)
    let corpus = [
        "//a",
        "//@id/..",
        "//text()/self::node()",
        "//text()/following::*",
        "//a/self::*",
        "//a[not(b)]",
        "//chapter[title = 'Two']",
    ];
    let docs: Vec<Document> = (0..6u64)
        .map(|seed| doc_random(seed, &RandomDocConfig { elements: 40, ..Default::default() }))
        .collect();
    for q in corpus {
        let e = parse_normalized(q).unwrap();
        let report = analyze(&e);
        for doc in &docs {
            let got = node_set(
                execute_adhoc(&e, Strategy::TopDown, None, doc, Context::of(doc.root())).unwrap(),
            );
            if !got.is_empty() {
                assert!(!report.is_empty_query(), "{q} found nodes yet was marked empty");
            }
        }
    }
}

#[test]
fn lazy_verdict_matches_the_cursor() {
    // Forward spines (with and without predicates, absolute and
    // relative) are lazy; reverse spines, positional and scalar queries
    // and const-folded plans materialize. Either way the cursor follows
    // the verdict and agrees with the tree-based oracle.
    let corpus = [
        ("/self::node()", true),
        ("/descendant-or-self::node()", true),
        ("/child::*[self::a]", true),
        ("/descendant::*[self::b[child::c]]", true),
        ("/descendant::a[not(self::a[child::b])]", true),
        ("/descendant::text()", true),
        ("/child::a/descendant-or-self::node()/child::b", true),
        ("//a/b", true),
        ("//a[b]", true),
        ("a/b", true),
        ("//a[b = 'x']/following::c", true),
        ("//b[1]", false),
        ("//c/parent::a", false),
        ("//d/ancestor::b[c]", false),
        ("//text()/child::*", false),
    ];
    let compiler = Compiler::new();
    for (q, lazy) in corpus {
        let compiled = compiler.compile(q).unwrap();
        assert_eq!(compiled.lazy_eligible(), lazy, "{q}: {:?}", compiled.report().laziness);
        let e = parse_normalized(q).unwrap();
        let mut lazy_runs = 0;
        for seed in 0..8u64 {
            let doc = doc_random(seed, &RandomDocConfig { elements: 35, ..Default::default() });
            // A take hint streams every lazy-eligible query.
            let pipeline = lazy;
            for ctx in contexts(&doc) {
                let want = node_set(execute_adhoc(&e, Strategy::TopDown, None, &doc, ctx).unwrap());
                let mut cursor =
                    compiled.select_lazy_with(&doc, ctx, EvalBudget::unlimited(), Some(1));
                assert_eq!(cursor.is_lazy(), pipeline, "{q}: cursor ignored the verdict");
                lazy_runs += usize::from(pipeline);
                let got = cursor.collect_set().unwrap();
                assert_eq!(got.to_vec(), want.to_vec(), "{q} seed {seed}: cursor diverges");
            }
        }
        assert!(!lazy || lazy_runs > 0, "{q}: the pipeline never ran");
    }
}

fn corpus_queries(content: &str) -> Vec<&str> {
    content.lines().map(str::trim).filter(|l| !l.is_empty() && !l.starts_with('#')).collect()
}

#[test]
fn every_corpus_query_gets_a_clean_report() {
    let compiler = Compiler::new();
    for (name, content) in [
        ("queries/bench_axes.txt", include_str!("../queries/bench_axes.txt")),
        ("queries/value_tests.txt", include_str!("../queries/value_tests.txt")),
        ("queries/w3c_examples.txt", include_str!("../queries/w3c_examples.txt")),
    ] {
        let queries = corpus_queries(content);
        assert!(!queries.is_empty(), "{name} is empty");
        for q in queries {
            let compiled =
                compiler.compile(q).unwrap_or_else(|e| panic!("{name}: {q} fails to compile: {e}"));
            let report = compiled.report();
            // The corpora are maintained queries: anything error-severity
            // (unknown function, etc.) is a corpus bug, and the lint CI
            // step would fail on it too.
            assert_ne!(
                report.max_severity(),
                Some(Severity::Error),
                "{name}: {q} has error-severity diagnostics: {:?}",
                report.diagnostics
            );
        }
    }
}

#[test]
fn corpus_files_stay_in_sync_with_the_tests_they_mirror() {
    // Every query exercised by tests/w3c_examples.rs through check(...)
    // must appear in the w3c corpus file the lint CI step consumes.
    let source = include_str!("w3c_examples.rs");
    let corpus = corpus_queries(include_str!("../queries/w3c_examples.txt"));
    let mut missing = Vec::new();
    for line in source.lines() {
        if let Some(rest) = line.trim().strip_prefix("check(\"") {
            if let Some(end) = rest.find('"') {
                let q = &rest[..end];
                if !corpus.contains(&q) {
                    missing.push(q);
                }
            }
        }
    }
    assert!(missing.is_empty(), "queries missing from queries/w3c_examples.txt: {missing:?}");

    // The bench corpus mirrors BENCH_QUERIES (bench_axes.rs and
    // backend_differential.rs carry the same list).
    let bench = corpus_queries(include_str!("../queries/bench_axes.txt"));
    let source = include_str!("backend_differential.rs");
    for q in &bench {
        assert!(
            source.contains(&format!("\"{q}\"")),
            "{q} in queries/bench_axes.txt but not in tests/backend_differential.rs"
        );
    }
    assert_eq!(bench.len(), 7, "the BENCH corpus has seven shapes");
}

#[test]
fn bench_corpus_contains_a_short_circuiting_query() {
    // Acceptance: at least one BENCH query must short-circuit through the
    // constant-empty plan node, and --explain must show it (the CLI side
    // is covered in tests/cli.rs).
    let compiler = Compiler::new();
    let bench = corpus_queries(include_str!("../queries/bench_axes.txt"));
    let folded: Vec<_> = bench
        .iter()
        .filter(|q| compiler.compile(q).unwrap().report().const_result.is_some())
        .copied()
        .collect();
    assert!(!folded.is_empty(), "no BENCH query const-folds");
    let x = gkp_xpath::core::explain::explain(compiler.compile(folded[0]).unwrap().plan(), 1000);
    assert!(x.report.contains("const:"), "{}", x.report);
}
