//! Batch differential suite: `QuerySet::evaluate_all` must be
//! bit-identical to N independent `CompiledQuery::evaluate` calls — same
//! values, same node sets, same per-query errors — for random query
//! batches (duplicates included) on the six BENCH query shapes, across
//! every evaluation mode (cost-picked, lock-step-shared, per-query
//! sharded, serial) and thread budget. CI runs this suite at
//! `GKP_THREADS=1` and `GKP_THREADS=4`; explicit 1- and 4-thread builds
//! below cover both budgets regardless of the environment.

use std::sync::Arc;

use gkp_xpath::axes::{BatchMode, CostModel};
use gkp_xpath::xml::generate::{doc_balanced, doc_bookstore, doc_random, RandomDocConfig};
use gkp_xpath::xml::rng::Rng;
use gkp_xpath::{Compiler, Document, QuerySetBuilder, Value};

/// The six query shapes benchmarked in BENCH_axes.json.
const BENCH_QUERIES: &[&str] = &[
    "//a//c",
    "//a//b//c//d",
    "//b[following::c]",
    "//c[preceding::a]/descendant::d",
    "//*[not(ancestor::b)]",
    "//a[descendant::d]/following::b",
];

/// Extra pool entries: shared prefixes of the BENCH shapes (guaranteed
/// memo hits), XPatterns features, and non-fragment queries that must run
/// their normal engines inside any batch.
const EXTRA_QUERIES: &[&str] = &[
    "//a//b",
    "//a//b//c",
    "//b[following::c]/child::*",
    "count(//c)",
    "//b[position() = last()]",
    "//*[c = '100']",
];

/// A memo-friendly model (probes near-free) and a memo-hostile one
/// (probes absurd): pinned modes must agree under both.
fn models() -> [CostModel; 2] {
    [
        CostModel { memo_probe_ns: 1e-9, fingerprint_word_ns: 1e-9, ..CostModel::CALIBRATED },
        CostModel { memo_probe_ns: 1e12, ..CostModel::CALIBRATED },
    ]
}

fn assert_batches_match(doc: &Document, batch: &[&str], label: &str) {
    let compiler = Compiler::new();
    let independent: Vec<Result<Value, _>> =
        batch.iter().map(|q| compiler.compile(q).unwrap().evaluate_root(doc)).collect();
    let modes = [
        None,
        Some(BatchMode::LockStepShared),
        Some(BatchMode::PerQuerySharded),
        Some(BatchMode::Serial),
    ];
    for mode in modes {
        for threads in [1u32, 4] {
            for model in models() {
                let mut builder = QuerySetBuilder::new()
                    .queries(batch.iter().copied())
                    .threads(threads)
                    .cost_model(model);
                if let Some(m) = mode {
                    builder = builder.mode(m);
                }
                let set = builder.build().unwrap();
                let out = set.evaluate_all(doc);
                assert_eq!(out.len(), batch.len(), "{label}");
                for (i, (got, want)) in out.results().iter().zip(&independent).enumerate() {
                    match (got, want) {
                        (Ok(g), Ok(w)) => assert_eq!(
                            g, w,
                            "{label}: {:?} diverges on {:?} ({threads} threads)",
                            mode, batch[i]
                        ),
                        (g, w) => panic!(
                            "{label}: result kinds diverge on {:?}: {g:?} vs {w:?}",
                            batch[i]
                        ),
                    }
                }
            }
        }
    }
}

#[test]
fn batches_agree_on_bench_query_shapes() {
    let docs = [doc_balanced(4, 5, &["a", "b", "c", "d"]), doc_bookstore()];
    for doc in &docs {
        // The whole corpus as one batch, and with every query duplicated.
        assert_batches_match(doc, BENCH_QUERIES, "bench corpus");
        let doubled: Vec<&str> =
            BENCH_QUERIES.iter().chain(BENCH_QUERIES.iter()).copied().collect();
        assert_batches_match(doc, &doubled, "bench corpus doubled");
    }
}

#[test]
fn random_batches_agree_on_random_documents() {
    let pool: Vec<&str> = BENCH_QUERIES.iter().chain(EXTRA_QUERIES.iter()).copied().collect();
    for seed in 0..6u64 {
        let doc = doc_random(seed, &RandomDocConfig { elements: 60, ..RandomDocConfig::default() });
        let mut rng = Rng::seed_from_u64(seed * 31 + 7);
        // Random batch sizes with replacement, so duplicates occur.
        let size = rng.random_range(2usize..=12);
        let batch: Vec<&str> =
            (0..size).map(|_| pool[rng.random_range(0usize..pool.len())]).collect();
        assert_batches_match(&doc, &batch, &format!("random seed {seed} batch {batch:?}"));
    }
}

#[test]
fn lock_step_really_shares_on_duplicate_heavy_batches() {
    // A batch where every query repeats must serve at least one
    // application per duplicated fragment query from the memo.
    let doc = doc_balanced(4, 5, &["a", "b", "c", "d"]);
    let batch: Vec<&str> = BENCH_QUERIES.iter().chain(BENCH_QUERIES.iter()).copied().collect();
    let set = QuerySetBuilder::new()
        .queries(batch)
        .mode(BatchMode::LockStepShared)
        .threads(1)
        .build()
        .unwrap();
    let sharing = set.sharing();
    assert!(
        sharing.shared_units * 2 >= sharing.total_units,
        "duplicated corpus must share at least half its units: {sharing:?}"
    );
    let out = set.evaluate_all(&doc);
    assert!(
        out.stats().memo_hits >= out.stats().memo_misses,
        "a fully duplicated batch re-runs at most half its applications: {:?}",
        out.stats()
    );
    assert_eq!(set.planner_stats().memo_hits, out.stats().memo_hits);
}

#[test]
fn shared_handles_and_texts_mix_in_one_batch() {
    let doc = doc_bookstore();
    let compiler = Compiler::new();
    let cache = gkp_xpath::QueryCache::new(64);
    let handles = cache.get_or_compile_many(&compiler, &["//book[author]", "//book"]).unwrap();
    let mut builder = QuerySetBuilder::with_compiler(compiler.clone()).query("count(//book)");
    for h in &handles {
        builder = builder.compiled(Arc::clone(h));
    }
    let set = builder.build().unwrap();
    let out = set.evaluate_all(&doc);
    for (i, q) in ["count(//book)", "//book[author]", "//book"].iter().enumerate() {
        let want = compiler.compile(q).unwrap().evaluate_root(&doc).unwrap();
        assert_eq!(out.results()[i].as_ref().unwrap(), &want, "{q}");
    }
    // Batch evaluation leaves the cached handles' own planner tallies
    // untouched (shared passes are unattributable): decisions live on the
    // QuerySet.
    assert_eq!(out.len(), 3);
}

#[test]
fn non_root_contexts_agree_too() {
    let doc = doc_bookstore();
    let ctx_node = doc.document_element().unwrap_or(doc.root());
    let ctx = gkp_xpath::core::Context::of(ctx_node);
    let batch = ["descendant::book[author]", "child::*", "descendant::book[author]"];
    let compiler = Compiler::new();
    for mode in [BatchMode::LockStepShared, BatchMode::PerQuerySharded, BatchMode::Serial] {
        let set = QuerySetBuilder::new()
            .queries(batch)
            .mode(mode)
            .threads(4)
            .cost_model(models()[0])
            .build()
            .unwrap();
        let out = set.evaluate_all_at(&doc, ctx);
        for (q, got) in batch.iter().zip(out.results()) {
            let want = compiler.compile(q).unwrap().evaluate(&doc, ctx).unwrap();
            assert_eq!(got.as_ref().unwrap(), &want, "{q} under {mode:?}");
        }
    }
}

#[test]
fn count_wrapped_shared_prefix_batches_share_lock_step() {
    // Aggregates over shared-prefix paths: every path lifts onto the
    // algebra, so the whole batch runs lock-step and shares passes.
    let doc = doc_balanced(4, 5, &["a", "b", "c", "d"]);
    let batch = [
        "count(//a//b)",
        "count(//a//b//c)",
        "count(//a//b//c//d)",
        "boolean(//a//b[following::c])",
        "count(//a//b) + count(//a//b//c) > 10",
        "count(//a//b//c | //d)",
    ];
    assert_batches_match(&doc, &batch, "count-wrapped shared prefix");
    let set = QuerySetBuilder::new()
        .queries(batch)
        .mode(BatchMode::LockStepShared)
        .threads(1)
        .build()
        .unwrap();
    let sharing = set.sharing();
    assert_eq!(sharing.fragment_queries, batch.len(), "{sharing:?}");
    assert!(sharing.shared_units > 0, "{sharing:?}");
    let out = set.evaluate_all(&doc);
    assert_eq!(out.stats().fragment_queries, batch.len());
    assert!(out.stats().memo_hits > 0, "{:?}", out.stats());
}

#[test]
fn value_test_batches_share_lock_step() {
    // Shared-prefix aggregates whose predicates carry value tests: every
    // path lifts onto the XPatterns algebra, and the memo serves the
    // repeated `//b` prefix and predicate sets across the batch.
    let batch = [
        "count(//b[d > 100])",
        "count(//b[100 < d])",
        "count(//b[d <= 50]/d) + count(//b[50 >= d])",
        "boolean(//b[d != 7][c >= 20])",
        "//b[not(d < 'abc')]",
        "count(//b[d > 100]/c)",
    ];
    for seed in 0..4u64 {
        let doc = doc_random(seed, &RandomDocConfig { elements: 80, ..RandomDocConfig::default() });
        assert_batches_match(&doc, &batch, &format!("value tests, random seed {seed}"));
    }
    let set = QuerySetBuilder::new()
        .queries(batch)
        .mode(BatchMode::LockStepShared)
        .threads(1)
        .build()
        .unwrap();
    assert_eq!(set.sharing().fragment_queries, batch.len(), "{:?}", set.sharing());
    let doc = doc_random(0, &RandomDocConfig { elements: 80, ..RandomDocConfig::default() });
    let out = set.evaluate_all(&doc);
    assert!(out.stats().memo_hits > 0, "{:?}", out.stats());
}
