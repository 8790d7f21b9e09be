//! The one axis kernel against the paper's oracles: the Core XPath
//! evaluator (every axis pass on `xpath_axes::bulk`) must return the
//! same node-sets — same content **and** same document order — as the
//! TopDown evaluator run through `plan::execute_adhoc`, on the seven BENCH_axes query
//! shapes and on random documents, from root and non-root contexts
//! alike. The sparse `id` axis is held to the Theorem 10.7 scan it
//! replaced the same way.

use gkp_xpath::axes::id::{id_set_ref, id_set_ref_scan};
use gkp_xpath::core::corexpath::{compile, CoreXPathEvaluator};
use gkp_xpath::core::plan;
use gkp_xpath::syntax::parse_normalized;
use gkp_xpath::xml::generate::{doc_balanced, doc_bookstore, doc_random, RandomDocConfig};
use gkp_xpath::xml::rng::Rng;
use gkp_xpath::xml::{DocumentBuilder, NodeId};
use gkp_xpath::{Document, EvalBudget, Strategy, Value};

/// The seven query shapes benchmarked in BENCH_axes.json (the last is
/// provably empty — the analyzer's constant-empty short-circuit rides the
/// same corpus).
const BENCH_QUERIES: &[&str] = &[
    "//a//c",
    "//a//b//c//d",
    "//b[following::c]",
    "//c[preceding::a]/descendant::d",
    "//*[not(ancestor::b)]",
    "//a[descendant::d]/following::b",
    "//text()/child::*",
];

fn assert_backends_agree(doc: &Document, queries: &[&str], label: &str) {
    let kernel = CoreXPathEvaluator::new(doc);
    let contexts = [doc.root(), doc.document_element().unwrap_or(doc.root())];
    for q in queries {
        let e = parse_normalized(q).unwrap_or_else(|err| panic!("{q}: {err}"));
        let c = compile(&e).unwrap_or_else(|err| panic!("{q}: {err}"));
        for ctx in contexts {
            let Value::NodeSet(want) = plan::execute_adhoc(
                &e,
                Strategy::TopDown,
                None,
                doc,
                gkp_xpath::core::Context::of(ctx),
            )
            .unwrap_or_else(|err| panic!("{label}: TopDown fails on {q}: {err}")) else {
                panic!("{label}: TopDown returns a non-node-set for {q}");
            };
            let want_ids: Vec<_> = want.iter().collect();
            assert!(
                want_ids.windows(2).all(|w| w[0] < w[1]),
                "{label}: TopDown out of document order for {q}"
            );
            assert_eq!(
                kernel.evaluate(&c, &[ctx], &EvalBudget::unlimited()).unwrap().to_vec(),
                want_ids,
                "{label}: the kernel diverges from TopDown on {q} from {ctx:?}"
            );
        }
    }
}

#[test]
fn backends_agree_on_bench_query_shapes() {
    // The same document family the benchmark runs on, scaled down enough
    // to keep the per-node reference fast.
    let doc = doc_balanced(4, 5, &["a", "b", "c", "d"]);
    assert_backends_agree(&doc, BENCH_QUERIES, "balanced");
    assert_backends_agree(&doc_bookstore(), BENCH_QUERIES, "bookstore");
}

#[test]
fn backends_agree_on_random_documents() {
    let queries = [
        "//a/descendant::c",
        "//b/following::*",
        "//c/preceding::*",
        "//d/ancestor::*",
        "//*[not(following-sibling::b)]",
        "//a[child::b or descendant::d]/preceding-sibling::*",
        "//*[not(ancestor::b)]/child::c",
    ];
    for seed in 0..12u64 {
        let cfg = RandomDocConfig { elements: 70, ..RandomDocConfig::default() };
        let doc = doc_random(seed, &cfg);
        assert_backends_agree(&doc, &queries, &format!("random seed {seed}"));
    }
}

#[test]
fn kernel_decisions_cover_both_routes() {
    // On the benchmark document family, a descendant-heavy query from the
    // root must exercise the dense materialization, and a narrow query the
    // sparse one — guarding against a kernel wedged on one route.
    let doc = doc_balanced(4, 6, &["a", "b", "c", "d"]);
    let ev = CoreXPathEvaluator::new(&doc);
    for q in BENCH_QUERIES {
        let c = compile(&parse_normalized(q).unwrap()).unwrap();
        ev.evaluate(&c, &[doc.root()], &EvalBudget::unlimited()).unwrap();
    }
    let counts = ev.kernel_counts();
    assert!(counts.bulk_dense > 0, "no dense kernel picks across the bench corpus: {counts:?}");
    assert!(counts.bulk_sparse > 0, "no sparse kernel picks across the bench corpus: {counts:?}");
}

/// A random tree whose elements carry ids `r0, r1, …` and whose leaf texts
/// are IDREFS lists: a few tokens each, some dangling, some repeated.
fn doc_random_idrefs(seed: u64, elements: usize) -> Document {
    let mut rng = Rng::seed_from_u64(seed);
    let mut b = DocumentBuilder::new();
    let (mut open, mut made) = (0usize, 0usize);
    b.open_element("r");
    while made < elements {
        if open > 0 && rng.random_bool(0.35) {
            b.close_element();
            open -= 1;
            continue;
        }
        b.open_element(["a", "b", "c"][rng.random_range(0..3usize)]);
        if rng.random_bool(0.6) {
            b.attribute("id", &format!("r{made}"));
        }
        made += 1;
        if rng.random_bool(0.5) {
            let tokens: Vec<String> = (0..rng.random_range(1..4usize))
                .map(|_| format!("r{}", rng.random_range(0..elements + 8)))
                .collect();
            b.text(&format!("{} ", tokens.join(" ")));
        }
        open += 1;
    }
    for _ in 0..=open {
        b.close_element();
    }
    b.finish()
}

/// The sparse `id` axis (range lookups on the `ref` relation's sorted
/// source column) against the Theorem 10.7 two-scan form it replaced, on
/// random IDREFS documents and inputs of every density, nested subtrees
/// and non-element nodes included.
#[test]
fn sparse_id_axis_matches_the_theorem_10_7_scan() {
    for seed in 0..16u64 {
        let doc = doc_random_idrefs(seed, 40 + 20 * seed as usize);
        assert!(!doc.refs().is_empty(), "seed {seed}: generator made no references");
        let mut rng = Rng::seed_from_u64(seed ^ 0x1d);
        for density in [0.0, 0.02, 0.1, 0.5, 1.0] {
            let set: Vec<NodeId> = doc.all_nodes().filter(|_| rng.random_bool(density)).collect();
            assert_eq!(
                id_set_ref(&doc, &set),
                id_set_ref_scan(&doc, &set),
                "seed {seed}, density {density}"
            );
        }
        assert_eq!(id_set_ref(&doc, &[doc.root()]), id_set_ref_scan(&doc, &[doc.root()]));
    }
}
