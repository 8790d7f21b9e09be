//! Theorems 10.5 and 10.8: linear-time evaluation of Core XPath and
//! XPatterns — scaling in both document size and query size.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use xpath_bench::workloads::core_query;
use xpath_core::{plan, Compiler, Context, Strategy};
use xpath_xml::generate::{doc_flat, doc_idref_chain};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("linear_fragments");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(400));

    // Core XPath: document-size sweep at fixed query.
    let q = core_query(6);
    for size in [1000usize, 4000, 16000, 64000] {
        let doc = doc_flat(size);
        let ctx = Context::of(doc.root());
        let e = Compiler::new().parse(&q).unwrap();
        g.bench_with_input(BenchmarkId::new("core/data-sweep", size), &size, |b, _| {
            b.iter(|| plan::execute_adhoc(&e, Strategy::CoreXPath, None, &doc, ctx).unwrap());
        });
    }

    // Core XPath: query-size sweep at fixed document.
    let doc = doc_flat(4000);
    let ctx = Context::of(doc.root());
    for k in [2usize, 8, 32] {
        let e = Compiler::new().parse(&core_query(k)).unwrap();
        g.bench_with_input(BenchmarkId::new("core/query-sweep", k), &k, |b, _| {
            b.iter(|| plan::execute_adhoc(&e, Strategy::CoreXPath, None, &doc, ctx).unwrap());
        });
    }

    // XPatterns with the id axis (Theorem 10.7: linear via the ref
    // relation).
    for size in [1000usize, 4000, 16000] {
        let doc = doc_idref_chain(size);
        let ctx = Context::of(doc.root());
        let e = Compiler::new().parse("id(//item[not(preceding-sibling::*)])/self::*").unwrap();
        g.bench_with_input(BenchmarkId::new("xpatterns/id-axis", size), &size, |b, _| {
            b.iter(|| plan::execute_adhoc(&e, Strategy::XPatterns, None, &doc, ctx).unwrap());
        });
        let e = Compiler::new().parse("//item[self::* = 'i1 i2 ']").unwrap();
        g.bench_with_input(BenchmarkId::new("xpatterns/eq-s", size), &size, |b, _| {
            b.iter(|| plan::execute_adhoc(&e, Strategy::XPatterns, None, &doc, ctx).unwrap());
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
