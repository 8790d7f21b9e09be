//! Experiment 2 (Figure 2, right): Saxon-model exponential query
//! complexity with nested `[parent::a/child::* = 'c']` predicates on
//! `DOC'(i)`, versus the polynomial engines.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use xpath_bench::workloads::exp2_query;
use xpath_core::{plan, Compiler, Context, Strategy};
use xpath_xml::generate::doc_flat_text;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("exp2_nested_relop");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(400));

    for (size, depth_cap) in [(3usize, 9usize), (10, 5), (200, 2)] {
        let doc = doc_flat_text(size);
        let ctx = Context::of(doc.root());
        for depth in [1usize, depth_cap] {
            let e = Compiler::new().parse(&exp2_query(depth)).unwrap();
            g.bench_with_input(
                BenchmarkId::new(format!("naive/doc{size}"), depth),
                &depth,
                |b, _| {
                    b.iter(|| plan::execute_adhoc(&e, Strategy::Naive, None, &doc, ctx).unwrap());
                },
            );
        }
        for depth in [1usize, 8, 16] {
            let e = Compiler::new().parse(&exp2_query(depth)).unwrap();
            g.bench_with_input(
                BenchmarkId::new(format!("top-down/doc{size}"), depth),
                &depth,
                |b, _| {
                    b.iter(|| plan::execute_adhoc(&e, Strategy::TopDown, None, &doc, ctx).unwrap());
                },
            );
        }
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
