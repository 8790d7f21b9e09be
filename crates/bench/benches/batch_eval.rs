//! Batched multi-query evaluation vs N independent evaluations.
//!
//! `independent` evaluates every compiled query on its own — N full
//! spines, each re-running the axis passes the others already ran.
//! `batched` evaluates the same texts as one `QuerySet::evaluate_all`:
//! identical `(axis, node-test, input-fingerprint)` applications dedupe
//! through the per-evaluation memo, so the shared-prefix workload should
//! win clearly; the disjoint workload repeats little and should stay
//! within noise of independent evaluation. `bench_axes` emits the same
//! comparison to `BENCH_axes.json` with a CI guard.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use xpath_bench::workloads::{batch_disjoint, batch_shared_prefix};
use xpath_core::{Compiler, QuerySetBuilder};
use xpath_xml::generate::doc_balanced;

fn bench(c: &mut Criterion) {
    let doc = doc_balanced(4, 7, &["a", "b", "c", "d"]);
    let mut g = c.benchmark_group("batch_eval");
    g.sample_size(15)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    // One shared workload definition (`xpath_bench::workloads`) serves
    // this bench and the `bench_axes --check` CI batch guard, so the
    // guard always protects the workload reported here.
    for (name, texts) in [("shared_prefix", batch_shared_prefix()), ("disjoint", batch_disjoint())]
    {
        let compiler = Compiler::new().threads(1);
        let compiled: Vec<_> = texts.iter().map(|q| compiler.compile(q).unwrap()).collect();
        let set = QuerySetBuilder::with_compiler(compiler)
            .queries(texts.iter().cloned())
            .build()
            .unwrap();
        g.bench_with_input(BenchmarkId::new("independent", name), &(), |b, ()| {
            b.iter(|| {
                for q in &compiled {
                    std::hint::black_box(q.evaluate_root(&doc).unwrap());
                }
            });
        });
        g.bench_with_input(BenchmarkId::new("batched", name), &(), |b, ()| {
            b.iter(|| std::hint::black_box(set.evaluate_all(&doc)));
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
