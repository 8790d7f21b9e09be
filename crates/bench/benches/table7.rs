//! Table VII: the paper's "XMLTaskforce XPath" engine (our top-down §7
//! implementation) across document sizes and query sizes on the
//! Experiment-2 family — linear in |Q|, quadratic in |D| for this family.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use xpath_bench::workloads::exp2_query;
use xpath_core::{plan, Compiler, Context, Strategy};
use xpath_xml::generate::doc_flat_text;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("table7_topdown_grid");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(500));

    for size in [10usize, 200, 1000] {
        let doc = doc_flat_text(size);
        let ctx = Context::of(doc.root());
        for depth in [1usize, 10, 30, 50] {
            let e = Compiler::new().parse(&exp2_query(depth)).unwrap();
            g.bench_with_input(BenchmarkId::new(format!("doc{size}"), depth), &depth, |b, _| {
                b.iter(|| plan::execute_adhoc(&e, Strategy::TopDown, None, &doc, ctx).unwrap());
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
