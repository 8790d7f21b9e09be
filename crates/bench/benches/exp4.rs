//! Experiment 4 (Figure 3, right): data complexity of the fixed query
//! `'//a' + q(20) + '//b'`. Per-context-set evaluation (top-down) is
//! quadratic in document size — the IE6 shape — while the Core XPath
//! algebra route is linear.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use xpath_bench::workloads::exp4_query;
use xpath_core::{plan, Compiler, Context, Strategy};
use xpath_xml::generate::doc_ab_groups;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("exp4_data_complexity");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(500));

    let q = exp4_query(8);
    for leaves in [200usize, 400, 800] {
        let doc = doc_ab_groups(20, leaves / 20);
        let ctx = Context::of(doc.root());
        let e = Compiler::new().parse(&q).unwrap();
        g.bench_with_input(BenchmarkId::new("top-down(quadratic)", leaves), &leaves, |b, _| {
            b.iter(|| plan::execute_adhoc(&e, Strategy::TopDown, None, &doc, ctx).unwrap());
        });
        g.bench_with_input(BenchmarkId::new("core-xpath(linear)", leaves), &leaves, |b, _| {
            b.iter(|| plan::execute_adhoc(&e, Strategy::CoreXPath, None, &doc, ctx).unwrap());
        });
    }
    // Larger sizes for the linear route only.
    for leaves in [8000usize, 32000] {
        let doc = doc_ab_groups(20, leaves / 20);
        let ctx = Context::of(doc.root());
        let e = Compiler::new().parse(&q).unwrap();
        g.bench_with_input(BenchmarkId::new("core-xpath(linear)", leaves), &leaves, |b, _| {
            b.iter(|| plan::execute_adhoc(&e, Strategy::CoreXPath, None, &doc, ctx).unwrap());
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
