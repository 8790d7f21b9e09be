//! Table V / Figure 12: exponential speed-up of the naive strategy via the
//! §9 data pool, on the Experiment-3 query family.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use xpath_bench::workloads::exp3_query;
use xpath_core::{plan, Compiler, Context, Strategy};
use xpath_xml::generate::doc_flat;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("table5_data_pool");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(400));

    for size in [10usize, 200] {
        let doc = doc_flat(size);
        let ctx = Context::of(doc.root());
        // "Xalan classic": naive, shallow depths only (it explodes).
        let naive_cap = if size == 10 { 4 } else { 2 };
        for depth in [1usize, naive_cap] {
            let e = Compiler::new().parse(&exp3_query(depth)).unwrap();
            g.bench_with_input(
                BenchmarkId::new(format!("xalan-classic/doc{size}"), depth),
                &depth,
                |b, _| {
                    b.iter(|| plan::execute_adhoc(&e, Strategy::Naive, None, &doc, ctx).unwrap());
                },
            );
        }
        // "Xalan + data pool": all eight depths of the paper's table.
        for depth in [1usize, 4, 8] {
            let e = Compiler::new().parse(&exp3_query(depth)).unwrap();
            g.bench_with_input(
                BenchmarkId::new(format!("xalan-data-pool/doc{size}"), depth),
                &depth,
                |b, _| {
                    b.iter(|| {
                        plan::execute_adhoc(&e, Strategy::DataPool, None, &doc, ctx).unwrap()
                    });
                },
            );
        }
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
