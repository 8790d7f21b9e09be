//! End-to-end coverage of namespace nodes: the data model includes them
//! (§4) even though the parser does not synthesize them (DESIGN.md
//! substitution 2) — documents built with `DocumentBuilder` exercise the
//! `namespace` axis, its filtering behaviour, and agreement across engines.

use gkp_xpath::core::{plan, Context, EvalResult, Strategy};
use gkp_xpath::{CompiledQuery, Compiler, Document, DocumentBuilder, NodeId, NodeKind, NodeSet};

fn select(d: &Document, q: &str) -> EvalResult<NodeSet> {
    CompiledQuery::compile(q)?.select(d)
}

fn select_at(d: &Document, q: &str, node: NodeId) -> EvalResult<NodeSet> {
    CompiledQuery::compile(q)?.select_at(d, Context::of(node))
}

fn doc_with_namespaces() -> Document {
    let mut b = DocumentBuilder::new();
    b.open_element("root");
    b.namespace("xsl", "http://www.w3.org/1999/XSL/Transform");
    b.namespace("fo", "http://www.w3.org/1999/XSL/Format");
    b.attribute("version", "1.0");
    b.open_element("xsl:template");
    b.namespace("xsl", "http://www.w3.org/1999/XSL/Transform");
    b.attribute("match", "para");
    b.leaf("fo:block", "body");
    b.close_element();
    b.close_element();
    b.finish()
}

#[test]
fn namespace_axis_selects_namespace_nodes() {
    let d = doc_with_namespaces();
    let root_el = d.document_element().unwrap();
    let ns = select_at(&d, "namespace::*", root_el).unwrap();
    assert_eq!(ns.len(), 2);
    for n in &ns {
        assert_eq!(d.kind(n), NodeKind::Namespace);
    }
    // Name test on the namespace axis matches the prefix.
    let xsl = select_at(&d, "namespace::xsl", root_el).unwrap();
    assert_eq!(xsl.len(), 1);
    assert_eq!(d.value(xsl.get(0).unwrap()), Some("http://www.w3.org/1999/XSL/Transform"));
}

#[test]
fn other_axes_filter_namespace_nodes() {
    let d = doc_with_namespaces();
    // child/descendant/node() never yield namespace nodes (§4).
    for q in ["//node()", "/root/node()", "//*", "/descendant-or-self::node()"] {
        let hits = select(&d, q).unwrap();
        assert!(
            hits.iter().all(|n| d.kind(n) != NodeKind::Namespace),
            "{q} leaked a namespace node"
        );
        assert!(
            hits.iter().all(|n| d.kind(n) != NodeKind::Attribute),
            "{q} leaked an attribute node"
        );
    }
    // The attribute axis likewise excludes namespace nodes.
    let root_el = d.document_element().unwrap();
    let attrs = select_at(&d, "attribute::*", root_el).unwrap();
    assert_eq!(attrs.len(), 1);
    assert_eq!(d.name(attrs.get(0).unwrap()), Some("version"));
}

#[test]
fn all_engines_agree_with_namespace_nodes_present() {
    let d = doc_with_namespaces();
    for q in [
        "count(//*)",
        "//*[@match = 'para']",
        "string(//fo:block)",
        "count(/root/namespace::*)",
        "//*[namespace::xsl]",
        "namespace::*/parent::*",
    ] {
        let e = Compiler::new().parse(q).unwrap();
        plan::evaluate_all_agree(&e, &d, Context::of(d.root()), 1_000_000)
            .unwrap_or_else(|err| panic!("{q}: {err}"));
    }
}

#[test]
fn namespace_parent_is_owner_element() {
    let d = doc_with_namespaces();
    let root_el = d.document_element().unwrap();
    let ns = select_at(&d, "namespace::*", root_el).unwrap();
    let parent = select_at(&d, "parent::*", ns.get(0).unwrap()).unwrap();
    assert_eq!(parent.to_vec(), vec![root_el]);
}

#[test]
fn prefixed_names_and_ns_wildcards() {
    let d = doc_with_namespaces();
    // QName node tests match the full prefixed name.
    assert_eq!(select(&d, "//xsl:template").unwrap().len(), 1);
    assert_eq!(select(&d, "//fo:block").unwrap().len(), 1);
    // NCName:* matches any name with the prefix.
    assert_eq!(select(&d, "//xsl:*").unwrap().len(), 1);
    assert_eq!(select(&d, "//zz:*").unwrap().len(), 0);
}

#[test]
fn parser_synthesized_namespace_nodes() {
    // With ParseOptions::namespaces, the parser itself builds namespace
    // nodes from xmlns declarations (the paper's footnote-6 exercise).
    let d = Document::parse_str_opts(
        r#"<x:root xmlns:x="urn:x" xmlns="urn:default">
             <x:item xmlns:y="urn:y"><leaf/></x:item>
             <x:item/>
           </x:root>"#,
        gkp_xpath::xml::ParseOptions { namespaces: true, ..Default::default() },
    )
    .unwrap();
    // Root element: default + x + implicit xml.
    let root_el = d.document_element().unwrap();
    assert_eq!(select_at(&d, "namespace::*", root_el).unwrap().len(), 3);
    // First item adds y; the inherited declarations are still in scope.
    let items = select(&d, "//x:item").unwrap();
    assert_eq!(items.len(), 2);
    assert_eq!(select_at(&d, "namespace::*", items.get(0).unwrap()).unwrap().len(), 4);
    assert_eq!(select_at(&d, "namespace::y", items.get(0).unwrap()).unwrap().len(), 1);
    // The second item does not see y.
    assert_eq!(select_at(&d, "namespace::y", items.get(1).unwrap()).unwrap().len(), 0);
    // The leaf inherits all four from its ancestors.
    let leaf = select(&d, "//leaf").unwrap();
    assert_eq!(select_at(&d, "namespace::*", leaf.get(0).unwrap()).unwrap().len(), 4);
    // xmlns declarations are not attributes in this mode.
    assert_eq!(select(&d, "//@*").unwrap().len(), 0);
    // All engines agree on namespace-axis queries over the parsed document.
    for q in ["count(//namespace::*)", "//*[namespace::y]", "string(//namespace::x)"] {
        let e = Compiler::new().parse(q).unwrap();
        plan::evaluate_all_agree(&e, &d, Context::of(d.root()), 1_000_000)
            .unwrap_or_else(|err| panic!("{q}: {err}"));
    }
}

#[test]
fn optimizer_engine_agrees() {
    // Every compile rewrites; its results equal TopDown on the normalized
    // query before the rewrite.
    let d = doc_with_namespaces();
    let ctx = Context::of(d.root());
    for q in ["//fo:block", "//*[@match = 'para']/.", "count(//*) + 1 * 2"] {
        let plain = gkp_xpath::syntax::parse_normalized(q).unwrap();
        let a = plan::execute_adhoc(&plain, Strategy::TopDown, None, &d, ctx).unwrap();
        let b = CompiledQuery::compile(q).unwrap().evaluate_root(&d).unwrap();
        assert!(a.semantically_equal(&b), "{q}: {a:?} vs {b:?}");
    }
    // The rewrite is visible in the prepared form.
    let e = Compiler::new().parse("//fo:block").unwrap();
    assert_eq!(e.to_string(), "/descendant::fo:block");
}

#[test]
fn strategy_matrix_on_namespace_doc() {
    let d = doc_with_namespaces();
    let q = "count(//node()) + count(//@*)";
    let eval_with =
        |s| Compiler::new().default_strategy(s).compile(q).unwrap().evaluate_root(&d).unwrap();
    let reference = eval_with(Strategy::TopDown);
    for s in [
        Strategy::Naive,
        Strategy::DataPool,
        Strategy::BottomUp,
        Strategy::MinContext,
        Strategy::OptMinContext,
    ] {
        let v = eval_with(s);
        assert!(v.semantically_equal(&reference), "{s:?}");
    }
}
