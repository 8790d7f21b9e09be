//! Cursor differential suite: the lazy/budgeted fourth tier
//! (`exists`/`first`, `take(k)` prefixes, and full drains through
//! `select_lazy`) must be **bit-identical** — same content and same
//! document order — to the materialized `select` on the BENCH_axes query
//! shapes and on random documents, from root and non-root contexts, for
//! both the lazy block-synchronous pipeline and the materializing
//! fallback. Cancellation must surface promptly as
//! [`EvalError::Cancelled`] on every evaluation strategy, leave the
//! cursor re-pollable (never poisoned), and leak no recycling-shelf
//! buffers.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gkp_xpath::core::Context;
use gkp_xpath::xml::generate::{doc_balanced, doc_bookstore, doc_random, RandomDocConfig};
use gkp_xpath::{Compiler, Document, EvalBudget, EvalError, NodeCursor, NodeSet, Strategy, Value};

/// The seven query shapes benchmarked in BENCH_axes.json (mirrored by
/// `tests/backend_differential.rs`): streamable spines, witness-predicate
/// shapes the lazy pipeline must route through `pred_holds`, and
/// reverse-axis shapes that exercise the materializing fallback.
const BENCH_QUERIES: &[&str] = &[
    "//a//c",
    "//a//b//c//d",
    "//b[following::c]",
    "//c[preceding::a]/descendant::d",
    "//*[not(ancestor::b)]",
    "//a[descendant::d]/following::b",
    "//text()/child::*",
];

/// Drive every cursor entry point against the materialized reference.
fn assert_cursor_matches(doc: &Document, queries: &[&str], label: &str) {
    let compiler = Compiler::new();
    let contexts = [doc.root(), doc.document_element().unwrap_or(doc.root())];
    for q in queries {
        let c = compiler.compile(q).unwrap_or_else(|e| panic!("{q}: {e}"));
        for ctx_node in contexts {
            let ctx = Context::of(ctx_node);
            let want = c.select_at(doc, ctx).unwrap_or_else(|e| panic!("{q}: {e}"));
            let want_ids: Vec<_> = want.iter().collect();
            assert!(
                want_ids.windows(2).all(|w| w[0] < w[1]),
                "{label}: reference out of document order for {q}"
            );

            // exists / first early-exits.
            assert_eq!(
                c.exists_at(doc, ctx).unwrap(),
                !want.is_empty(),
                "{label}: exists() diverges on {q} from {ctx_node:?}"
            );
            assert_eq!(
                c.first_at(doc, ctx).unwrap(),
                want.first(),
                "{label}: first() diverges on {q} from {ctx_node:?}"
            );

            // take(k) prefixes, pulled in deliberately awkward block sizes.
            for k in [1usize, 2, 7] {
                let mut cur = c.select_lazy_with(doc, ctx, EvalBudget::unlimited(), Some(k));
                let mut out = NodeSet::new();
                loop {
                    let room = k - out.len();
                    if room == 0 || cur.next_block(&mut out, room).unwrap() == 0 {
                        break;
                    }
                }
                let got: Vec<_> = out.iter().collect();
                assert_eq!(
                    got[..],
                    want_ids[..want_ids.len().min(k)],
                    "{label}: take({k}) diverges on {q} from {ctx_node:?}"
                );
            }

            // Full drain through collect_set.
            let mut cur = c.select_lazy_at(doc, ctx);
            assert_eq!(
                cur.collect_set().unwrap(),
                want,
                "{label}: full drain diverges on {q} from {ctx_node:?}"
            );

            // Item-at-a-time drain: strict document order, no duplicates.
            let mut cur = c.select_lazy_at(doc, ctx);
            let mut singles = Vec::new();
            while let Some(x) = cur.next().unwrap() {
                singles.push(x);
            }
            assert_eq!(
                singles, want_ids,
                "{label}: next() drain diverges on {q} from {ctx_node:?}"
            );
        }
    }
}

#[test]
fn cursor_matches_evaluate_on_bench_query_shapes() {
    let doc = doc_balanced(4, 5, &["a", "b", "c", "d"]);
    assert_cursor_matches(&doc, BENCH_QUERIES, "balanced");
    assert_cursor_matches(&doc_bookstore(), BENCH_QUERIES, "bookstore");
}

#[test]
fn cursor_matches_evaluate_on_random_documents() {
    let queries = [
        "//a/descendant::c",
        "//b/following::*",
        "//d/ancestor::*",
        "//*[not(following-sibling::b)]",
        "//a[child::b or descendant::d]/child::*",
        "//*[not(ancestor::b)]/child::c",
    ];
    for seed in 0..12u64 {
        let cfg = RandomDocConfig { elements: 70, ..RandomDocConfig::default() };
        let doc = doc_random(seed, &cfg);
        assert_cursor_matches(&doc, &queries, &format!("random seed {seed}"));
    }
}

/// Value tests (`π op c`): the lazy pipeline checks `[@qty > 5]` by one
/// attribute hop plus a string-value test per candidate; `exists`,
/// `first`, prefixes and drains must match full evaluation, including on
/// non-numeric and whitespace-padded values.
#[test]
fn cursor_matches_evaluate_on_value_tests() {
    let mut xml = String::from("<catalog>");
    for i in 0..300u32 {
        let qty = if i % 17 == 0 { "n/a".to_string() } else { ((i * 37) % 1000).to_string() };
        let (price, d) = ((i * 13) % 500, i % 7);
        xml.push_str(&format!(
            r#"<item qty="{qty}" price=" {price} "><title>t{i}</title><d>{d}</d></item>"#
        ));
    }
    xml.push_str("</catalog>");
    let doc = Document::parse_str(&xml).unwrap();
    let queries = [
        "//item[@qty > 5]",
        "//item[990 < @qty]",
        "//item[@qty > 999]",
        "//item[@price <= 3]/title",
        "//item[d = 6][@qty != 'n/a']",
        "//item[not(@qty >= 0)]",
        "//item[title = 't299']",
        "//item[@qty > -1 and d < 1]/@qty",
    ];
    let compiler = Compiler::new();
    for q in queries {
        let c = compiler.compile(q).unwrap();
        assert_eq!(c.strategy(), Strategy::XPatterns, "{q}");
        assert!(c.lazy_eligible(), "{q}: a value-tested predicate keeps the spine lazy");
    }
    assert_cursor_matches(&doc, &queries, "value tests");
}

/// An attribute-only catalog: every item's only node below it is an
/// attribute, so the catalog's string value is empty but reading it
/// means scanning the whole catalog.
fn attribute_only_catalog(items: usize) -> Document {
    let mut xml = String::from("<catalog>");
    for i in 0..items {
        xml.push_str(&format!(r#"<item q="{}"/>"#, i % 9));
    }
    xml.push_str("</catalog>");
    Document::parse_str(&xml).unwrap()
}

/// A value test on a `parent`/`ancestor` hop reads the same element's
/// string value from every candidate. The lazy pipeline must agree with
/// full evaluation there, and must not rebuild that string per
/// candidate: 4× the items may cost about 4× the time, never the 16× of
/// a per-candidate rescan of the catalog.
#[test]
fn value_tests_on_shared_ancestors_stay_linear() {
    let queries =
        ["//item[parent::* != 'x']", "//item[ancestor::* = '']", "//item[parent::catalog > 1]"];
    assert_cursor_matches(&attribute_only_catalog(300), &queries, "attribute-only catalog");
    let mut deep = String::new();
    for i in 0..60 {
        deep.push_str(&format!(r#"<a q="{i}">"#));
    }
    deep.push_str(&"</a>".repeat(60));
    assert_cursor_matches(&Document::parse_str(&deep).unwrap(), &queries[..2], "deep");

    let q = Compiler::new().compile(queries[0]).unwrap();
    // Best of three cold drains, each on a fresh document so no run
    // starts with the string value already cached.
    let drain = |items: usize| {
        let mut best = Duration::MAX;
        for _ in 0..3 {
            let doc = attribute_only_catalog(items);
            let mut cur =
                q.select_lazy_with(&doc, Context::of(doc.root()), EvalBudget::unlimited(), Some(1));
            assert!(cur.is_lazy());
            let t = Instant::now();
            assert_eq!(cur.collect_set().unwrap().len(), items);
            best = best.min(t.elapsed());
        }
        best.as_secs_f64()
    };
    let (small, large) = (drain(2_000), drain(8_000));
    assert!(large < small * 10.0 + 0.005, "quadratic in the items: {small} -> {large}");
}

#[test]
fn lazy_full_drain_matches_on_large_document() {
    // 87381 nodes: past the lazy-take crossover, so even hint-less full
    // drains route through the block-synchronous pipeline — the drain
    // must still be bit-identical to the materialized evaluation.
    let doc = doc_balanced(4, 8, &["a", "b", "c", "d"]);
    let compiler = Compiler::new();
    for q in ["//a//c", "//b[following::c]"] {
        let c = compiler.compile(q).unwrap();
        let want = c.select(&doc).unwrap();
        let mut cur = c.select_lazy(&doc);
        assert!(cur.is_lazy(), "{q}: expected the lazy pipeline at |D| = {}", doc.len());
        assert_eq!(cur.collect_set().unwrap(), want, "{q}: lazy drain diverges");
    }
}

#[test]
fn cancellation_surfaces_promptly_across_strategies() {
    let doc = doc_balanced(4, 5, &["a", "b", "c", "d"]);
    let q = "//a//b//c//d";
    for strat in [
        Strategy::Naive,
        Strategy::DataPool,
        Strategy::BottomUp,
        Strategy::TopDown,
        Strategy::MinContext,
        Strategy::OptMinContext,
        Strategy::CoreXPath,
    ] {
        let c = Compiler::new().default_strategy(strat).compile(q).unwrap();
        assert_eq!(c.strategy(), strat, "{q} did not resolve to the forced strategy");
        let cancel = Arc::new(AtomicBool::new(true));
        let budget = EvalBudget::unlimited().with_cancel(cancel.clone());
        let err = c.evaluate_with(&doc, Context::of(doc.root()), &budget).unwrap_err();
        assert!(
            matches!(err, EvalError::Cancelled),
            "{strat:?}: pre-set cancel flag surfaced as {err:?}"
        );
        // Clearing the flag un-poisons everything: the same compiled
        // query and the same budget now evaluate to the full answer.
        cancel.store(false, Ordering::SeqCst);
        let v = c.evaluate_with(&doc, Context::of(doc.root()), &budget).unwrap();
        assert!(
            matches!(v, Value::NodeSet(ref s) if !s.is_empty()),
            "{strat:?}: post-cancel evaluation returned {v:?}"
        );
    }
}

#[test]
fn expired_deadline_surfaces_as_deadline_exceeded() {
    let doc = doc_balanced(4, 5, &["a", "b", "c", "d"]);
    let c = Compiler::new().compile("//a//c").unwrap();
    let budget = EvalBudget::timeout(Duration::ZERO);
    std::thread::sleep(Duration::from_millis(2));
    let err = c.evaluate_with(&doc, Context::of(doc.root()), &budget).unwrap_err();
    assert!(matches!(err, EvalError::DeadlineExceeded), "got {err:?}");
}

#[test]
fn cancelled_cursor_is_repollable_and_leaks_no_shelf_buffers() {
    use gkp_xpath::xml::pool;

    // threads(1) keeps every pass on this thread: the shelf counters
    // below are thread-local, and scoped workers would bring their own.
    let doc = doc_balanced(4, 6, &["a", "b", "c", "d"]);
    let compiler = Compiler::new().threads(1);
    let c = compiler.compile("//a//c").unwrap();
    let want = c.select(&doc).unwrap();

    // A pre-set flag cancels the very first pull; the cursor is NOT
    // poisoned — clearing the flag lets the same cursor drain fully.
    // take_hint = Some(1) forces the lazy pipeline even on this
    // below-crossover document, so the cancellation path under test is
    // the block-synchronous window loop itself.
    let cancel = Arc::new(AtomicBool::new(true));
    let budget = EvalBudget::unlimited().with_cancel(cancel.clone());
    let mut cur = c.select_lazy_with(&doc, Context::of(doc.root()), budget, Some(1));
    assert!(cur.is_lazy(), "take-hinted cursor should route through the lazy pipeline");
    let mut out = NodeSet::new();
    let err = cur.next_block(&mut out, 8).unwrap_err();
    assert!(matches!(err, EvalError::Cancelled), "got {err:?}");
    assert!(out.is_empty(), "a cancelled pull must not emit partial output");
    cancel.store(false, Ordering::SeqCst);
    assert_eq!(cur.collect_set().unwrap(), want, "cursor poisoned by cancellation");

    // Shelf-leak guard: repeated deterministic cancelled evaluations
    // (flag set before the first poll) reach an allocation steady state
    // — every buffer taken before the cancellation fired flows back to
    // the thread-local shelves, so shelf misses stop growing. A leak on
    // the error path would empty the shelves and make misses climb
    // forever.
    let cancel = Arc::new(AtomicBool::new(true));
    let budget = EvalBudget::unlimited().with_cancel(cancel.clone());
    let ctx = Context::of(doc.root());
    let cancelled_round = || {
        let mut cur = c.select_lazy_with(&doc, ctx, budget.clone(), Some(1));
        let mut out = NodeSet::new();
        assert!(cur.next_block(&mut out, usize::MAX).is_err());
        assert!(c.evaluate_with(&doc, ctx, &budget).is_err());
    };
    let mut rounds = 0;
    loop {
        let before = pool::stats().misses;
        cancelled_round();
        rounds += 1;
        if pool::stats().misses == before {
            break;
        }
        assert!(rounds < 50, "cancelled evaluation never reached shelf steady state");
    }
    let before = pool::stats().misses;
    for _ in 0..10 {
        cancelled_round();
    }
    assert_eq!(
        pool::stats().misses - before,
        0,
        "cancelled evaluations leak recycling-shelf buffers"
    );
}
