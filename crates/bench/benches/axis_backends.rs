//! Ablation of the four interchangeable axis-evaluation backends (§3):
//! Algorithm 3.2 (regular expressions over the primitive relations), the
//! direct set algorithms, the pre/post-plane windows (Grust et al. 2004)
//! and the set-at-a-time bulk engine over the structure-of-arrays index,
//! plus the Stack-Tree structural join (Al-Khalifa et al. 2002) against
//! the equivalent two-pass axis+filter formulation for the `descendant`
//! step.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use xpath_axes::prepost::{join_descendants, PrePostPlane};
use xpath_syntax::Axis;
use xpath_xml::generate::{doc_random, RandomDocConfig};
use xpath_xml::{Document, NodeId, NodeKind};

fn elements_named(doc: &Document, name: &str) -> Vec<NodeId> {
    let Some(id) = doc.lookup_name(name) else { return Vec::new() };
    doc.all_nodes()
        .filter(|&n| doc.kind(n) == NodeKind::Element && doc.name_id(n) == Some(id))
        .collect()
}

fn bench_backends(c: &mut Criterion) {
    let mut g = c.benchmark_group("axis_backends");
    g.sample_size(20)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(500));

    for &size in &[500usize, 5_000] {
        let cfg = RandomDocConfig { elements: size, ..RandomDocConfig::default() };
        let doc = doc_random(7, &cfg);
        let plane = PrePostPlane::new(&doc);
        doc.axis_index(); // built outside the timed region, like the plane
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
                BenchmarkId::new(format!("plane/{}", axis.name()), size),
                &size,
                |b, _| b.iter(|| plane.eval_axis(&doc, axis, &evens)),
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

fn bench_structural_join(c: &mut Criterion) {
    let mut g = c.benchmark_group("structural_join");
    g.sample_size(20)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(500));

    for &size in &[500usize, 5_000] {
        let cfg = RandomDocConfig { elements: size, ..RandomDocConfig::default() };
        let doc = doc_random(11, &cfg);
        // `//a//c` as ancestor/descendant candidate lists (the random
        // generator draws element names from {a, b, c, d}).
        let alist = elements_named(&doc, "a");
        let dlist = elements_named(&doc, "c");
        if alist.is_empty() || dlist.is_empty() {
            continue;
        }

        g.bench_with_input(BenchmarkId::new("stack-tree", size), &size, |b, _| {
            b.iter(|| join_descendants(&doc, &alist, &dlist));
        });
        g.bench_with_input(BenchmarkId::new("axis-then-filter", size), &size, |b, _| {
            b.iter(|| {
                let desc = xpath_axes::eval_axis(&doc, Axis::Descendant, &alist);
                // Intersect with the candidate descendants (both sorted).
                let mut out = Vec::new();
                let (mut i, mut j) = (0, 0);
                while i < desc.len() && j < dlist.len() {
                    match desc[i].cmp(&dlist[j]) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => {
                            out.push(desc[i]);
                            i += 1;
                            j += 1;
                        }
                    }
                }
                out
            });
        });
    }
    g.finish();
}

fn bench_t_sets(c: &mut Criterion) {
    use xpath_core::corexpath::{compile, CoreXPathEvaluator};
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
        g.bench_with_input(BenchmarkId::new("scan", size), &size, |b, _| {
            b.iter(|| ev.evaluate(&q, &[doc.root()]));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_backends, bench_structural_join, bench_t_sets);
criterion_main!(benches);
