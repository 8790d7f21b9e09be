//! Theorem 11.3: the Extended Wadler fragment runs in linear space and
//! quadratic time under OptMinContext (bottom-up backward propagation),
//! compared against plain MinContext on the same queries.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use xpath_bench::workloads::wadler_query;
use xpath_core::{plan, Compiler, Context, Strategy};
use xpath_xml::generate::doc_flat;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("wadler_fragment");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(500));

    // Data sweep at fixed nesting.
    let q = wadler_query(3);
    for size in [200usize, 800, 3200] {
        let doc = doc_flat(size);
        let ctx = Context::of(doc.root());
        let e = Compiler::new().parse(&q).unwrap();
        for (name, s) in
            [("opt-min-context", Strategy::OptMinContext), ("min-context", Strategy::MinContext)]
        {
            g.bench_with_input(BenchmarkId::new(format!("{name}/data"), size), &size, |b, _| {
                b.iter(|| plan::execute_adhoc(&e, s, None, &doc, ctx).unwrap());
            });
        }
    }

    // Nesting sweep at fixed document.
    let doc = doc_flat(400);
    let ctx = Context::of(doc.root());
    for k in [1usize, 3, 6] {
        let e = Compiler::new().parse(&wadler_query(k)).unwrap();
        g.bench_with_input(BenchmarkId::new("opt-min-context/nesting", k), &k, |b, _| {
            b.iter(|| plan::execute_adhoc(&e, Strategy::OptMinContext, None, &doc, ctx).unwrap());
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
