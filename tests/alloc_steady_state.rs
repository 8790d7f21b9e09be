//! Allocation-discipline regression test: after a warm-up round, repeated
//! `CompiledQuery::evaluate` and `QuerySet::evaluate_all` calls perform
//! **zero** heap allocations — every transient buffer comes from the
//! thread-local recycling shelves (`xpath_xml::pool`) threaded through
//! the `NodeSet` algebra, the bulk axis kernels, and the batch's reused
//! axis memo and result vectors.
//!
//! The counting `#[global_allocator]` is the one place outside
//! `xpath_xml::simd` where the workspace's `unsafe_code = deny` lint is
//! overridden: `GlobalAlloc` is an `unsafe` trait by definition, and this
//! implementation only counts and forwards to `System`.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use gkp_xpath::core::Strategy;
use gkp_xpath::xml::generate::{doc_balanced, doc_bookstore};
use gkp_xpath::{BatchMode, CompiledQuery, Compiler, Document, QuerySet, QuerySetBuilder};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

fn evaluate_everything(docs: &[Document], queries: &[CompiledQuery], sets: &[QuerySet]) -> usize {
    let mut total = 0;
    for doc in docs {
        for q in queries {
            let v = q.evaluate_root(doc).unwrap_or_else(|e| panic!("{}: {e}", q.text()));
            total += usize::from(!matches!(v, gkp_xpath::Value::NodeSet(ref s) if s.is_empty()));
        }
        for set in sets {
            let out = set.evaluate_all(doc);
            assert_eq!(out.len(), set.len());
            for r in out.results() {
                assert!(r.is_ok());
            }
        }
    }
    total
}

// The allocation counter is process-global, so this file holds a single
// test: the measurement window must be free of harness noise from
// concurrently running tests in the same binary.
#[test]
fn steady_state_evaluation_is_allocation_free() {
    let docs = [doc_bookstore(), doc_balanced(4, 5, &["section", "book", "author", "title"])];

    // Fragment-engine queries only: the general engines (bottom-up CVT,
    // MinContext, …) materialize data-dependent per-node tables; the
    // zero-allocation guarantee targets the compile-once / evaluate-many
    // fragment paths. `threads(1)` keeps every pass on this thread —
    // scoped workers would bring their own (cold) shelves.
    let compiler = Compiler::new().threads(1);
    let queries: Vec<CompiledQuery> = [
        "//book[author]",
        "//book[author]/title",
        "/descendant::section/child::book[child::author or not(following::*)]",
        "//section/book[title = 'XPath Processing']",
        "//*[not(ancestor::book)]/author",
        "//book/ancestor::section",
        // A path lifted out of an aggregate: the fold adds no allocation.
        "count(//book[author])",
    ]
    .iter()
    .map(|q| {
        let c = compiler.compile(q).unwrap();
        assert!(
            matches!(c.strategy(), Strategy::CoreXPath | Strategy::XPatterns),
            "{q} must resolve to a fragment engine, got {:?}",
            c.strategy()
        );
        c
    })
    .collect();

    // One memoized batch (repeated units: the set's reused memo) and one
    // memo-free batch (independent evaluations through the pooled result
    // vector); the inputs pick the path.
    let memoized = [
        "//book[author]",
        "//book[author]/title",
        "//section/book",
        "//book[author]",
        "count(//section/book)",
    ];
    let memo_free = ["//book[author]/title", "//section/book", "count(//author)"];
    let sets = [(&memoized[..], BatchMode::LockStepShared), (&memo_free[..], BatchMode::Serial)]
        .map(|(batch, mode)| {
            let set = QuerySetBuilder::with_compiler(compiler.clone())
                .queries(batch.iter().copied())
                .threads(1)
                .build()
                .unwrap();
            for doc in &docs {
                assert_eq!(set.evaluate_all(doc).stats().mode, mode, "{batch:?}");
            }
            set
        });

    // Warm-up until quiescent: a shelf hands out its largest buffer, so a
    // buffer may still grow (one realloc) the first time a larger pass
    // gets it. Capacities only ever grow, so the process converges, and
    // because a take depends only on the shelved capacities (never on the
    // order buffers came back), the first allocation-free round repeats.
    let mut warm_rounds = 0;
    loop {
        let before = allocations();
        evaluate_everything(&docs, &queries, &sets);
        warm_rounds += 1;
        if allocations() == before {
            break;
        }
        assert!(warm_rounds < 50, "warm-up failed to reach a steady state in {warm_rounds} rounds");
    }

    let before = allocations();
    let mut total = 0;
    for _ in 0..10 {
        total += evaluate_everything(&docs, &queries, &sets);
    }
    let delta = allocations() - before;
    assert!(total > 0, "evaluations must produce non-empty results");
    assert_eq!(
        delta, 0,
        "steady-state evaluation allocated {delta} times across 10 rounds \
         (expected zero: every transient buffer should come from the shelves)"
    );
}
