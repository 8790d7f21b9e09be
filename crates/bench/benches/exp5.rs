//! Experiment 5 (Figure 4): exponential behavior of the naive engine with
//! forward axes only — `following` chains on flat documents (4a) and
//! `descendant` chains on deep paths (4b).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use xpath_bench::workloads::{exp5a_query, exp5b_query};
use xpath_core::{plan, Compiler, Context, Strategy};
use xpath_xml::generate::{doc_deep_path, doc_flat};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("exp5_forward_axes");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(400));

    // (4a) following-chains.
    for size in [20usize, 30] {
        let doc = doc_flat(size);
        let ctx = Context::of(doc.root());
        for k in [3usize, 6] {
            let e = Compiler::new().parse(&exp5a_query(k)).unwrap();
            g.bench_with_input(
                BenchmarkId::new(format!("following/naive/doc{size}"), k),
                &k,
                |b, _| {
                    b.iter(|| plan::execute_adhoc(&e, Strategy::Naive, None, &doc, ctx).unwrap());
                },
            );
        }
        let e = Compiler::new().parse(&exp5a_query(12)).unwrap();
        g.bench_with_input(
            BenchmarkId::new(format!("following/top-down/doc{size}"), 12),
            &12,
            |b, _| b.iter(|| plan::execute_adhoc(&e, Strategy::TopDown, None, &doc, ctx).unwrap()),
        );
    }

    // (4b) descendant-chains on non-branching paths.
    for depth in [20usize, 30] {
        let doc = doc_deep_path(depth);
        let ctx = Context::of(doc.root());
        for k in [3usize, 5] {
            let e = Compiler::new().parse(&exp5b_query(k)).unwrap();
            g.bench_with_input(
                BenchmarkId::new(format!("descendant/naive/depth{depth}"), k),
                &k,
                |b, _| {
                    b.iter(|| plan::execute_adhoc(&e, Strategy::Naive, None, &doc, ctx).unwrap());
                },
            );
        }
        let e = Compiler::new().parse(&exp5b_query(12)).unwrap();
        g.bench_with_input(
            BenchmarkId::new(format!("descendant/top-down/depth{depth}"), 12),
            &12,
            |b, _| b.iter(|| plan::execute_adhoc(&e, Strategy::TopDown, None, &doc, ctx).unwrap()),
        );
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
