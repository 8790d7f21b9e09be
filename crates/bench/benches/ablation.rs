//! Ablation across the algorithm ladder of the paper: naive → data pool →
//! bottom-up CVT → top-down → MinContext → OptMinContext → Core XPath, on
//! a mixed query suite over the Figure-8 document family. This quantifies
//! what each section of the paper buys.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use xpath_core::{plan, Compiler, Context, Strategy};
use xpath_xml::generate::doc_flat_text;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("algorithm_ladder");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(400));

    let doc = doc_flat_text(100);
    let ctx = Context::of(doc.root());

    let suite: &[(&str, &str)] = &[
        ("core-path", "//b[not(following-sibling::b)]"),
        ("positional", "//b[position() = last()]"),
        ("relop", "//*[parent::a/child::* = 'c']"),
        ("count", "//a/b[count(parent::a/b) > 1]"),
    ];

    let ladder: &[(&str, Strategy)] = &[
        ("1-naive", Strategy::Naive),
        ("2-data-pool", Strategy::DataPool),
        ("3-bottom-up", Strategy::BottomUp),
        ("4-top-down", Strategy::TopDown),
        ("5-min-context", Strategy::MinContext),
        ("6-opt-min-context", Strategy::OptMinContext),
        ("7-auto", Strategy::Auto),
    ];

    for (qname, q) in suite {
        let e = Compiler::new().parse(q).unwrap();
        for (sname, s) in ladder {
            // Skip strategies that cannot handle the query economically or
            // at all (naive on the count family explodes at larger sizes —
            // it is covered by exp3; bottom-up positional tables on 100
            // nodes are fine).
            if *sname == "1-naive" && *qname == "count" {
                continue;
            }
            g.bench_with_input(BenchmarkId::new(*sname, qname), qname, |b, _| {
                b.iter(|| plan::execute_adhoc(&e, *s, None, &doc, ctx).unwrap());
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
