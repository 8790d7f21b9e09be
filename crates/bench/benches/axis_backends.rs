//! Ablation of the interchangeable axis-evaluation techniques (§3):
//! Algorithm 3.2 (regular expressions over the primitive relations) and
//! the direct set algorithms — the oracles — against the set-at-a-time
//! bulk kernel over the structure-of-arrays index, plus the `T(t)` scans
//! of a predicate-heavy query.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use xpath_syntax::Axis;
use xpath_xml::generate::{doc_random, RandomDocConfig};
use xpath_xml::{NodeId, NodeKind};

fn bench_backends(c: &mut Criterion) {
    let mut g = c.benchmark_group("axis_backends");
    g.sample_size(20)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(500));

    for &size in &[500usize, 5_000] {
        let cfg = RandomDocConfig { elements: size, ..RandomDocConfig::default() };
        let doc = doc_random(7, &cfg);
        let evens: Vec<NodeId> = doc
            .all_nodes()
            .filter(|&n| n.0 % 16 == 0 && doc.kind(n) == NodeKind::Element)
            .collect();
        let evens_set = xpath_xml::NodeSet::from_sorted(evens.clone());

        for axis in [Axis::Descendant, Axis::Following, Axis::Ancestor] {
            g.bench_with_input(
                BenchmarkId::new(format!("alg32/{}", axis.name()), size),
                &size,
                |b, _| b.iter(|| xpath_axes::eval_axis_alg32(&doc, axis, &evens)),
            );
            g.bench_with_input(
                BenchmarkId::new(format!("direct/{}", axis.name()), size),
                &size,
                |b, _| b.iter(|| xpath_axes::eval_axis(&doc, axis, &evens)),
            );
            g.bench_with_input(
                BenchmarkId::new(format!("bulk/{}", axis.name()), size),
                &size,
                |b, _| b.iter(|| xpath_axes::bulk::axis_set(&doc, axis, &evens_set)),
            );
        }
    }
    g.finish();
}

fn bench_t_sets(c: &mut Criterion) {
    use xpath_core::corexpath::{compile, CoreXPathEvaluator};
    use xpath_core::EvalBudget;
    let mut g = c.benchmark_group("t_sets");
    g.sample_size(20)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(500));

    for &size in &[1_000usize, 20_000] {
        let cfg = RandomDocConfig { elements: size, ..RandomDocConfig::default() };
        let doc = doc_random(5, &cfg);
        // Predicate-heavy query: S← scans T(t) at every step.
        let e = xpath_syntax::parse_normalized("//a[b[c] and not(d[a])]").unwrap();
        let q = compile(&e).unwrap();
        let ev = CoreXPathEvaluator::new(&doc);
        let unlimited = EvalBudget::unlimited();
        g.bench_with_input(BenchmarkId::new("scan", size), &size, |b, _| {
            b.iter(|| ev.evaluate(&q, &[doc.root()], &unlimited).unwrap());
        });
    }
    g.finish();
}

criterion_group!(benches, bench_backends, bench_t_sets);
criterion_main!(benches);
