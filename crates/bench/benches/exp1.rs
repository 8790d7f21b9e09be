//! Experiment 1 (Figure 2, left): query complexity on `DOC(2)` with the
//! antagonist family `//a/b(/parent::a/b)^k`. The naive engine doubles per
//! step; the paper's algorithms are flat.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use xpath_bench::workloads::exp1_query;
use xpath_core::{plan, Compiler, Context, Strategy};
use xpath_xml::generate::doc_flat;

fn bench(c: &mut Criterion) {
    let doc = doc_flat(2);
    let ctx = Context::of(doc.root());

    let mut g = c.benchmark_group("exp1_query_complexity");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(400));

    // Naive only up to depth 14 (exponential).
    for k in [4usize, 8, 12, 14] {
        let e = Compiler::new().parse(&exp1_query(k)).unwrap();
        g.bench_with_input(BenchmarkId::new("naive", k), &k, |b, _| {
            b.iter(|| plan::execute_adhoc(&e, Strategy::Naive, None, &doc, ctx).unwrap());
        });
    }
    // The paper's engines across the full range.
    for k in [4usize, 8, 16, 24] {
        let e = Compiler::new().parse(&exp1_query(k)).unwrap();
        for (name, s) in [
            ("top-down", Strategy::TopDown),
            ("data-pool", Strategy::DataPool),
            ("opt-min-context", Strategy::OptMinContext),
        ] {
            g.bench_with_input(BenchmarkId::new(name, k), &k, |b, _| {
                b.iter(|| plan::execute_adhoc(&e, s, None, &doc, ctx).unwrap());
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
