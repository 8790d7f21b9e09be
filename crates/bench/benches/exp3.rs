//! Experiment 3 (Figure 3, left): IE6-model exponential query complexity
//! with nested `count(parent::a/b) > 1` predicates on `DOC(i)`.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use xpath_bench::workloads::exp3_query;
use xpath_core::{plan, Compiler, Context, Strategy};
use xpath_xml::generate::doc_flat;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("exp3_nested_count");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(400));

    for (size, naive_cap) in [(3usize, 8usize), (10, 4), (200, 2)] {
        let doc = doc_flat(size);
        let ctx = Context::of(doc.root());
        for depth in [1usize, naive_cap] {
            let e = Compiler::new().parse(&exp3_query(depth)).unwrap();
            g.bench_with_input(
                BenchmarkId::new(format!("naive/doc{size}"), depth),
                &depth,
                |b, _| {
                    b.iter(|| plan::execute_adhoc(&e, Strategy::Naive, None, &doc, ctx).unwrap());
                },
            );
        }
        for depth in [1usize, 8] {
            let e = Compiler::new().parse(&exp3_query(depth)).unwrap();
            for (name, s) in
                [("top-down", Strategy::TopDown), ("opt-min-context", Strategy::OptMinContext)]
            {
                g.bench_with_input(
                    BenchmarkId::new(format!("{name}/doc{size}"), depth),
                    &depth,
                    |b, _| b.iter(|| plan::execute_adhoc(&e, s, None, &doc, ctx).unwrap()),
                );
            }
        }
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
