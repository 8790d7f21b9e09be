//! Axis-backend differential suite: the Bulk, Direct, Alg32 (per-node
//! reference) and Adaptive backends must return identical node-sets —
//! same content **and** same document order — on the six BENCH_axes
//! query shapes and on random documents, from root and non-root
//! contexts alike. §3's interchangeability claim, enforced at the
//! evaluator level for the cost-based planner. The sparse `id` axis is
//! held to the Theorem 10.7 scan it replaced the same way.

use gkp_xpath::axes::id::{id_set_ref, id_set_ref_scan};
use gkp_xpath::axes::CostModel;
use gkp_xpath::core::corexpath::{compile, AxisBackend, CoreXPathEvaluator};
use gkp_xpath::syntax::parse_normalized;
use gkp_xpath::xml::generate::{doc_balanced, doc_bookstore, doc_random, RandomDocConfig};
use gkp_xpath::xml::rng::Rng;
use gkp_xpath::xml::{DocumentBuilder, NodeId, NodeSet};
use gkp_xpath::Document;

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

const BACKENDS: &[(&str, AxisBackend)] = &[
    ("direct", AxisBackend::Direct),
    ("alg32", AxisBackend::Alg32),
    ("bulk", AxisBackend::Bulk),
    ("adaptive", AxisBackend::Adaptive),
];

fn assert_backends_agree(doc: &Document, queries: &[&str], label: &str) {
    let reference = CoreXPathEvaluator::with_backend(doc, AxisBackend::Direct);
    // Adaptive additionally runs under models forced to each extreme so
    // both the sparse and the dense kernel routes are differentially
    // covered regardless of the calibrated crossovers.
    let forced_sparse = CoreXPathEvaluator::new(doc)
        .with_cost_model(CostModel { dense_word_ns: 1e9, ..CostModel::CALIBRATED });
    let forced_dense = CoreXPathEvaluator::new(doc).with_cost_model(CostModel {
        dense_word_ns: 1e-9,
        chain_ns: 1e9,
        ..CostModel::CALIBRATED
    });
    let contexts = [doc.root(), doc.document_element().unwrap_or(doc.root())];
    for q in queries {
        let e = parse_normalized(q).unwrap_or_else(|err| panic!("{q}: {err}"));
        let c = compile(&e).unwrap_or_else(|err| panic!("{q}: {err}"));
        for ctx in contexts {
            let want: NodeSet = reference.evaluate(&c, &[ctx]);
            let want_ids: Vec<_> = want.iter().collect();
            assert!(
                want_ids.windows(2).all(|w| w[0] < w[1]),
                "{label}: reference out of document order for {q}"
            );
            for (name, backend) in BACKENDS {
                let ev = CoreXPathEvaluator::with_backend(doc, *backend);
                let got = ev.evaluate(&c, &[ctx]);
                assert_eq!(
                    got.to_vec(),
                    want_ids,
                    "{label}: backend {name} diverges on {q} from {ctx:?}"
                );
            }
            for (name, ev) in [("forced-sparse", &forced_sparse), ("forced-dense", &forced_dense)] {
                assert_eq!(
                    ev.evaluate(&c, &[ctx]).to_vec(),
                    want_ids,
                    "{label}: adaptive({name}) diverges on {q} from {ctx:?}"
                );
            }
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
fn adaptive_kernel_decisions_cover_both_routes() {
    // On the benchmark document family, a descendant-heavy query from the
    // root must exercise the dense kernel, and a narrow query the sparse
    // side — guarding against a planner wedged on one route.
    let doc = doc_balanced(4, 6, &["a", "b", "c", "d"]);
    let ev = CoreXPathEvaluator::new(&doc);
    for q in BENCH_QUERIES {
        let c = compile(&parse_normalized(q).unwrap()).unwrap();
        ev.evaluate(&c, &[doc.root()]);
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
