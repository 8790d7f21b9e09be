//! The amortization win of the two-phase query API.
//!
//! `adhoc` re-runs the full static phase per evaluation — parse,
//! normalize, classify, select the algorithm, compile fragment artifacts —
//! as compiling per call without a cache does.
//! `prepared` pays the static phase once (`Compiler::compile`) and then
//! only runs the runtime phase; `cached` goes through a shared
//! `QueryCache`, adding one sharded-LRU lookup per evaluation. On
//! repeated queries, `prepared`/`cached` should beat `adhoc` clearly,
//! most dramatically on small documents where static cost dominates.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use xpath_core::{Compiler, QueryCache};
use xpath_xml::generate::{doc_balanced, doc_bookstore};
use xpath_xml::Document;

const QUERIES: &[(&str, &str)] = &[
    ("corexpath", "//book[author]"),
    ("xpatterns", "//book[title = 'XPath Processing']"),
    ("optmincontext", "//book[position() = last()]"),
    ("scalar", "count(//book[@year > 1990])"),
];

fn bench_doc(c: &mut Criterion, group: &str, doc: &Document) {
    let mut g = c.benchmark_group(group);
    g.sample_size(20)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(400));

    for (name, q) in QUERIES {
        g.bench_with_input(BenchmarkId::new("adhoc", name), q, |b, q| {
            b.iter(|| Compiler::new().compile(q).unwrap().evaluate_root(doc).unwrap());
        });
        g.bench_with_input(BenchmarkId::new("prepared", name), q, |b, q| {
            let compiled = Compiler::new().compile(q).unwrap();
            b.iter(|| compiled.evaluate_root(doc).unwrap());
        });
        g.bench_with_input(BenchmarkId::new("cached", name), q, |b, q| {
            let cache = QueryCache::new(64);
            let compiler = Compiler::new();
            b.iter(|| cache.get_or_compile(&compiler, q).unwrap().evaluate_root(doc).unwrap());
        });
    }
    g.finish();
}

fn bench(c: &mut Criterion) {
    // Small document: static phase dominates, amortization is dramatic.
    bench_doc(c, "prepared_vs_adhoc/bookstore", &doc_bookstore());
    // ~1.4k elements: runtime phase grows, compile cost stays constant.
    let wide = doc_balanced(4, 5, &["book", "author", "title", "section"]);
    bench_doc(c, "prepared_vs_adhoc/balanced4x5", &wide);
}

criterion_group!(benches, bench);
criterion_main!(benches);
