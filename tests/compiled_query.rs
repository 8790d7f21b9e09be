//! Integration tests for the two-phase query API: `Compiler`,
//! `CompiledQuery` (document- and thread-independence), and `QueryCache`
//! (hit/miss/eviction, concurrent sharing).

use std::sync::Arc;
use std::thread;

use gkp_xpath::core::Context;
use gkp_xpath::xml::generate::{doc_bookstore, doc_figure8};
use gkp_xpath::{CompiledQuery, Compiler, Document, Engine, QueryCache, Strategy};

/// `CompiledQuery` and `QueryCache` must be shareable across threads —
/// checked at compile time.
#[test]
fn compiled_query_is_send_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CompiledQuery>();
    assert_send_sync::<QueryCache>();
    assert_send_sync::<Compiler>();
}

/// One compiled query, four threads, two different documents: every
/// evaluation agrees with a per-document `Strategy::TopDown` reference.
#[test]
fn one_compilation_many_threads_many_documents() {
    let queries = [
        "//b/c",                    // auto → CoreXPath
        "count(//*[@id])",          // scalar
        "//*[position() = last()]", // positional, OptMinContext
    ];
    for q in queries {
        let compiled = Arc::new(CompiledQuery::compile(q).unwrap());
        let docs = Arc::new(vec![doc_figure8(), doc_bookstore()]);

        // Per-document reference values via the explicit TopDown strategy.
        let references: Vec<String> = docs
            .iter()
            .map(|d| Engine::new(d).evaluate_with(q, Strategy::TopDown).unwrap().to_string())
            .collect();

        let mut handles = Vec::new();
        for t in 0..4 {
            let compiled = Arc::clone(&compiled);
            let docs = Arc::clone(&docs);
            handles.push(thread::spawn(move || {
                // Each thread hits both documents repeatedly.
                (0..25)
                    .map(|i| {
                        let d = &docs[(t + i) % docs.len()];
                        compiled.evaluate_root(d).unwrap().to_string()
                    })
                    .collect::<Vec<_>>()
            }));
        }
        for (t, h) in handles.into_iter().enumerate() {
            for (i, got) in h.join().expect("thread panicked").into_iter().enumerate() {
                let want = &references[(t + i) % references.len()];
                assert_eq!(&got, want, "{q}: thread {t}, iteration {i}");
            }
        }
    }
}

/// The same compiled plan produces per-document results in document order
/// through `evaluate_many`.
#[test]
fn evaluate_many_is_per_document() {
    let d1 = doc_bookstore();
    let d2 = doc_figure8();
    let q = CompiledQuery::compile("count(//*)").unwrap();
    let batch = q.evaluate_many(&[&d1, &d2, &d1]).unwrap();
    assert_eq!(batch[0], batch[2]);
    assert_ne!(batch[0], batch[1]);
}

/// Explicit fragment strategies reject outside queries when the plan is
/// built — before any document exists.
#[test]
fn unsupported_fragment_surfaces_at_compile_time() {
    use gkp_xpath::core::EvalError;
    for s in [Strategy::CoreXPath, Strategy::XPatterns] {
        let err = Compiler::new()
            .default_strategy(s)
            .compile("count(//book)")
            .expect_err("count() is outside every linear fragment");
        assert!(matches!(err, EvalError::UnsupportedFragment(_)), "{s:?}: {err}");
    }
    // Compile-time success implies artifacts are ready: evaluation of a
    // fragment query involves no further compilation.
    let cq =
        Compiler::new().default_strategy(Strategy::CoreXPath).compile("//book[author]").unwrap();
    assert!(cq.plan().algebra().is_some());
    assert_eq!(cq.select(&doc_bookstore()).unwrap().len(), 4);
}

/// Hit/miss/eviction accounting of the shared cache.
#[test]
fn query_cache_hit_miss_eviction() {
    // Single shard ⇒ exact global LRU order.
    let cache = QueryCache::with_shards(2, 1);
    let c = Compiler::new();

    assert!(cache.is_empty());
    cache.get_or_compile(&c, "//a").unwrap();
    cache.get_or_compile(&c, "//b").unwrap();
    assert_eq!(cache.stats().misses, 2);
    assert_eq!(cache.stats().hits, 0);
    assert_eq!(cache.len(), 2);

    // Hits refresh recency.
    cache.get_or_compile(&c, "//a").unwrap();
    assert_eq!(cache.stats().hits, 1);

    // Capacity 2: inserting a third evicts the LRU entry (//b).
    cache.get_or_compile(&c, "//c").unwrap();
    assert_eq!(cache.stats().evictions, 1);
    assert_eq!(cache.len(), 2);
    cache.get_or_compile(&c, "//a").unwrap();
    assert_eq!(cache.stats().hits, 2, "//a survived the eviction");
    cache.get_or_compile(&c, "//b").unwrap();
    assert_eq!(cache.stats().misses, 4, "//b was evicted and recompiled");

    // Different compiler options are distinct cache keys.
    let opt = Compiler::new().optimize(true);
    cache.get_or_compile(&opt, "//a").unwrap();
    assert_eq!(cache.stats().misses, 5);

    cache.clear();
    assert!(cache.is_empty());
}

/// A cache shared by concurrent workers compiles each query exactly once
/// (no eviction pressure, pre-warmed to avoid racing first sight).
#[test]
fn query_cache_shared_across_threads() {
    let cache = Arc::new(QueryCache::new(64));
    let compiler = Compiler::new();
    let queries = ["//b", "//b/c", "count(//d)", "//*[@id]"];
    for q in queries {
        cache.get_or_compile(&compiler, q).unwrap();
    }

    thread::scope(|s| {
        for _ in 0..4 {
            let cache = Arc::clone(&cache);
            let compiler = compiler.clone();
            s.spawn(move || {
                let d = doc_figure8();
                for _ in 0..10 {
                    for q in queries {
                        let compiled = cache.get_or_compile(&compiler, q).unwrap();
                        compiled.evaluate_root(&d).unwrap();
                    }
                }
            });
        }
    });

    let stats = cache.stats();
    assert_eq!(stats.misses, queries.len() as u64, "each query compiled exactly once");
    assert_eq!(stats.hits, 4 * 10 * queries.len() as u64);
    assert_eq!(stats.entries, queries.len());
}

/// The compiled-query path and the legacy Engine facade agree.
#[test]
fn facade_and_compiled_query_agree() {
    let doc = doc_bookstore();
    let engine = Engine::new(&doc);
    for q in [
        "//book[author]",
        "//book[title = 'XPath Processing']",
        "count(//book[@year > 1990])",
        "string(//magazine/title)",
    ] {
        let via_engine = engine.evaluate(q).unwrap();
        let via_compiled = CompiledQuery::compile(q).unwrap().evaluate_root(&doc).unwrap();
        assert!(via_engine.semantically_equal(&via_compiled), "{q}");
    }
}

/// Compiler options round-trip: budget bounds naive, bindings inline,
/// evaluation from an explicit context works.
#[test]
fn compiler_options_and_contexts() {
    use gkp_xpath::core::EvalError;
    use gkp_xpath::syntax::Bindings;

    let doc = doc_bookstore();

    // naive_budget bounds the exponential baseline.
    let q = Compiler::new()
        .default_strategy(Strategy::Naive)
        .naive_budget(5)
        .compile("//book/ancestor::*/descendant::*")
        .unwrap();
    assert!(matches!(q.evaluate_root(&doc), Err(EvalError::BudgetExhausted)));

    // Bindings are inlined during the static phase.
    let b = Bindings::new().string("t", "DB Monthly");
    let q = Compiler::new().bindings(&b).compile("//magazine[title = $t]").unwrap();
    assert_eq!(q.select(&doc).unwrap().len(), 1);

    // Explicit contexts: count authors of a specific book.
    let q = CompiledQuery::compile("count(author)").unwrap();
    let b1 = doc.element_by_id("b1").unwrap();
    assert_eq!(q.evaluate(&doc, Context::of(b1)).unwrap().to_string(), "3");
}

/// A compiled query built from one document's text works on a document
/// parsed later — there is no hidden document state.
#[test]
fn compiled_query_outlives_documents() {
    let q = CompiledQuery::compile("count(//b)").unwrap();
    for n in [1usize, 3, 7] {
        let xml = format!("<a>{}</a>", "<b/>".repeat(n));
        let d = Document::parse_str(&xml).unwrap();
        assert_eq!(q.evaluate_root(&d).unwrap().to_string(), n.to_string());
        drop(d);
    }
}
