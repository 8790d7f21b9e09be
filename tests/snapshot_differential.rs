//! Snapshot differential suite: a document that goes through
//! parse → `snap::write` → mmap `snap::load` must be *bit-identical* to
//! the original in every observable way — structure accessors, string
//! values, ID/IDREF dereferencing, whole-query evaluation under every
//! strategy (root and non-root contexts), the lazy cursor paths and
//! batched evaluation. The same holds for the owned-buffer fallback
//! (`OpenOptions { mmap: false }`), so the two backings can never
//! diverge from each other either.

use gkp_xpath::core::{plan, Context, NodeCursor, Strategy};
use gkp_xpath::xml::generate::{
    doc_balanced, doc_bookstore, doc_figure8, doc_idref_chain, doc_random, RandomDocConfig,
};
use gkp_xpath::xml::snap::{self, OpenOptions};
use gkp_xpath::xml::temp::TempPath;
use gkp_xpath::xml::ParseOptions;
use gkp_xpath::{Compiler, Document, QuerySetBuilder};

/// Every evaluation strategy, including the fragment-restricted ones
/// (which must *reject* identically on both documents).
const STRATEGIES: &[Strategy] = &[
    Strategy::Naive,
    Strategy::DataPool,
    Strategy::BottomUp,
    Strategy::TopDown,
    Strategy::MinContext,
    Strategy::OptMinContext,
    Strategy::CoreXPath,
    Strategy::XPatterns,
    Strategy::Auto,
];

/// The BENCH_axes query shapes plus value-typed, id()- and text()-heavy
/// queries, so the text arena, the id table and the ref relation are all
/// exercised through the mapped backing.
const QUERIES: &[&str] = &[
    "//a//c",
    "//a//b//c//d",
    "//b[following::c]",
    "//c[preceding::a]/descendant::d",
    "//*[not(ancestor::b)]",
    "//a[descendant::d]/following::b",
    "//text()/child::*",
    "//*",
    "//@*",
    "//text()",
    "count(//*)",
    "string(/*)",
    "id('i1')",
    "id('i1 i3')/following-sibling::*",
    "//book[author]/title",
    "//*[@id]",
];

fn shapes() -> Vec<(String, Document)> {
    let mut shapes = vec![
        ("figure8".to_string(), doc_figure8()),
        ("bookstore".to_string(), doc_bookstore()),
        ("balanced".to_string(), doc_balanced(3, 5, &["a", "b", "c", "d"])),
        ("idref_chain".to_string(), doc_idref_chain(12)),
    ];
    for seed in 0..3 {
        let cfg = RandomDocConfig { elements: 120, ..RandomDocConfig::default() };
        shapes.push((format!("random{seed}"), doc_random(seed, &cfg)));
    }
    // A namespace-synthesizing parse, so namespace nodes cross the
    // snapshot boundary too.
    let ns_doc = Document::parse_str_opts(
        r#"<root xmlns="urn:d" xmlns:p="urn:p"><p:a x="1"><b/></p:a><c xmlns:q="urn:q"/></root>"#,
        ParseOptions { namespaces: true, ..Default::default() },
    )
    .unwrap();
    shapes.push(("namespaces".to_string(), ns_doc));
    shapes
}

/// Write `doc` to a fresh snapshot, deep-verify it, and reload it under
/// `opts`.
fn roundtrip(doc: &Document, tag: &str, opts: &OpenOptions) -> Document {
    let path = TempPath::new(&format!("snapdiff_{tag}_{}.gksnap", opts.mmap));
    snap::write(doc, &path).unwrap_or_else(|e| panic!("{tag}: write failed: {e}"));
    snap::verify(&path).unwrap_or_else(|e| panic!("{tag}: deep verify failed: {e}"));
    snap::load_with(&path, opts).unwrap_or_else(|e| panic!("{tag}: load failed: {e}"))
}

/// Structural bit-identity: every accessor over every node.
fn assert_same_structure(tag: &str, a: &Document, b: &Document) {
    assert_eq!(a.len(), b.len(), "{tag}: node count");
    assert_eq!(a.id_policy(), b.id_policy(), "{tag}: id policy");
    for n in a.all_nodes() {
        assert_eq!(a.kind(n), b.kind(n), "{tag}: kind of {n:?}");
        assert_eq!(a.name(n), b.name(n), "{tag}: name of {n:?}");
        assert_eq!(a.value(n), b.value(n), "{tag}: value of {n:?}");
        assert_eq!(a.parent(n), b.parent(n), "{tag}: parent of {n:?}");
        assert_eq!(a.first_child(n), b.first_child(n), "{tag}: first_child of {n:?}");
        assert_eq!(a.next_sibling(n), b.next_sibling(n), "{tag}: next_sibling of {n:?}");
        assert_eq!(a.prev_sibling(n), b.prev_sibling(n), "{tag}: prev_sibling of {n:?}");
        assert_eq!(a.subtree_end(n), b.subtree_end(n), "{tag}: subtree_end of {n:?}");
        assert_eq!(a.string_value(n), b.string_value(n), "{tag}: strval of {n:?}");
    }
    assert_eq!(a.serialize(a.root()), b.serialize(b.root()), "{tag}: serialization");
    assert_eq!(
        a.refs().iter().collect::<Vec<_>>(),
        b.refs().iter().collect::<Vec<_>>(),
        "{tag}: ref relation"
    );
    for id in ["i0", "i1", "i5", "b1", "b2", "missing"] {
        assert_eq!(a.element_by_id(id), b.element_by_id(id), "{tag}: element_by_id({id})");
        assert_eq!(a.deref_ids(id), b.deref_ids(id), "{tag}: deref_ids({id})");
    }
}

/// Every strategy, every query, from the root context: identical values
/// (or identical rejection) on the parsed and the snapshot-loaded
/// document.
fn assert_same_queries(tag: &str, parsed: &Document, loaded: &Document, strategies: &[Strategy]) {
    for &q in QUERIES {
        for &s in strategies {
            let run = |doc| Compiler::new().default_strategy(s).compile(q)?.evaluate_root(doc);
            match (run(parsed), run(loaded)) {
                (Ok(want), Ok(got)) => {
                    assert_eq!(want, got, "{tag}: {q} under {s:?}");
                }
                (Err(_), Err(_)) => {}
                (want, got) => {
                    panic!("{tag}: {q} under {s:?}: parsed {want:?} vs snapshot {got:?}")
                }
            }
        }
    }
}

/// Non-root contexts: evaluate relative queries from a sample of element
/// nodes on both documents.
fn assert_same_nonroot(tag: &str, parsed: &Document, loaded: &Document) {
    let compiler = Compiler::new();
    let contexts: Vec<_> = parsed.all_nodes().filter(|&n| n.0 % 7 == 1).take(8).collect();
    for &ctx in &contexts {
        for q in ["descendant::*", "following::*[1]", "ancestor-or-self::*", "string(.)"] {
            let e = compiler.parse(q).unwrap();
            let want = plan::execute_adhoc(&e, Strategy::TopDown, None, parsed, Context::of(ctx));
            let got = plan::execute_adhoc(&e, Strategy::TopDown, None, loaded, Context::of(ctx));
            match (want, got) {
                (Ok(w), Ok(g)) => assert_eq!(w, g, "{tag}: {q} at {ctx:?}"),
                (w, g) => panic!("{tag}: {q} at {ctx:?}: {w:?} vs {g:?}"),
            }
        }
    }
}

/// The lazy cursor layer (exists / first / bounded select) and batched
/// evaluation agree across the snapshot boundary.
fn assert_same_lazy_and_batch(tag: &str, parsed: &Document, loaded: &Document) {
    let compiler = Compiler::new();
    for q in ["//a//c", "//*", "//b[following::c]", "//text()"] {
        let c = compiler.compile(q).unwrap();
        assert_eq!(c.exists(parsed).unwrap(), c.exists(loaded).unwrap(), "{tag}: exists {q}");
        assert_eq!(c.first(parsed).unwrap(), c.first(loaded).unwrap(), "{tag}: first {q}");
        let take = |d: &Document, k| {
            let mut cur = c.select_lazy(d);
            let mut out = Vec::new();
            for _ in 0..k {
                match cur.next().unwrap() {
                    Some(n) => out.push(n),
                    None => break,
                }
            }
            out
        };
        assert_eq!(take(parsed, 5), take(loaded, 5), "{tag}: lazy take-5 of {q}");
    }
    let build = QuerySetBuilder::new().queries(QUERIES.iter().map(|q| (*q).to_string())).build();
    if let Ok(set) = build {
        let want = set.evaluate_all(parsed);
        let got = set.evaluate_all(loaded);
        for (i, (w, g)) in want.results().iter().zip(got.results()).enumerate() {
            match (w, g) {
                (Ok(w), Ok(g)) => assert_eq!(w, g, "{tag}: batch query #{i}"),
                (Err(_), Err(_)) => {}
                (w, g) => panic!("{tag}: batch query #{i}: {w:?} vs {g:?}"),
            }
        }
    }
}

#[test]
fn mapped_documents_are_bit_identical_to_parsed() {
    for (tag, doc) in shapes() {
        let mapped = roundtrip(&doc, &tag, &OpenOptions::default());
        assert_same_structure(&tag, &doc, &mapped);
        assert_same_queries(&tag, &doc, &mapped, STRATEGIES);
    }
}

#[test]
fn owned_fallback_matches_mapped_backing() {
    for (tag, doc) in shapes() {
        let mapped = roundtrip(&doc, &tag, &OpenOptions::default());
        let owned = roundtrip(&doc, &tag, &OpenOptions { mmap: false, verify: false });
        assert!(!owned.is_mapped(), "{tag}: mmap:false must use the owned backing");
        assert_same_structure(&tag, &mapped, &owned);
    }
}

#[test]
fn nonroot_contexts_agree_across_snapshot_boundary() {
    for (tag, doc) in shapes() {
        let mapped = roundtrip(&doc, &tag, &OpenOptions::default());
        assert_same_nonroot(&tag, &doc, &mapped);
    }
}

#[test]
fn lazy_cursor_and_batch_paths_agree() {
    for (tag, doc) in shapes() {
        let mapped = roundtrip(&doc, &tag, &OpenOptions::default());
        assert_same_lazy_and_batch(&tag, &doc, &mapped);
    }
}

#[test]
fn big_bench_shape_roundtrips() {
    // The BENCH document family at a smaller depth: still thousands of
    // nodes, same shape as the perf target.
    let doc = doc_balanced(4, 6, &["a", "b", "c", "d"]);
    let mapped = roundtrip(&doc, "balanced46", &OpenOptions::default());
    assert_same_structure("balanced46", &doc, &mapped);
    // Fast strategies only: the full strategy matrix already runs on the
    // small shapes, and the quadratic-and-worse engines would dominate
    // the suite's runtime here without adding snapshot coverage.
    assert_same_queries(
        "balanced46",
        &doc,
        &mapped,
        &[Strategy::TopDown, Strategy::CoreXPath, Strategy::Auto],
    );
}
