//! End-to-end coverage of namespace nodes: the data model includes them
//! (§4) even though the parser does not synthesize them (DESIGN.md
//! substitution 2) — documents built with `DocumentBuilder` exercise the
//! `namespace` axis, its filtering behaviour, and agreement across engines.

use gkp_xpath::core::{Context, Strategy};
use gkp_xpath::{DocumentBuilder, Engine, NodeKind};

fn doc_with_namespaces() -> gkp_xpath::Document {
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
    let engine = Engine::new(&d);
    let root_el = d.document_element().unwrap();
    let ns = engine.select_at("namespace::*", root_el).unwrap();
    assert_eq!(ns.len(), 2);
    for n in &ns {
        assert_eq!(d.kind(n), NodeKind::Namespace);
    }
    // Name test on the namespace axis matches the prefix.
    let xsl = engine.select_at("namespace::xsl", root_el).unwrap();
    assert_eq!(xsl.len(), 1);
    assert_eq!(d.value(xsl.get(0).unwrap()), Some("http://www.w3.org/1999/XSL/Transform"));
}

#[test]
fn other_axes_filter_namespace_nodes() {
    let d = doc_with_namespaces();
    let engine = Engine::new(&d);
    // child/descendant/node() never yield namespace nodes (§4).
    for q in ["//node()", "/root/node()", "//*", "/descendant-or-self::node()"] {
        let hits = engine.select(q).unwrap();
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
    let attrs = engine.select_at("attribute::*", root_el).unwrap();
    assert_eq!(attrs.len(), 1);
    assert_eq!(d.name(attrs.get(0).unwrap()), Some("version"));
}

#[test]
fn all_engines_agree_with_namespace_nodes_present() {
    let d = doc_with_namespaces();
    let engine = Engine::new(&d);
    for q in [
        "count(//*)",
        "//*[@match = 'para']",
        "string(//fo:block)",
        "count(/root/namespace::*)",
        "//*[namespace::xsl]",
        "namespace::*/parent::*",
    ] {
        let e = engine.prepare(q).unwrap();
        engine
            .evaluate_all_agree(&e, Context::of(d.root()), 1_000_000)
            .unwrap_or_else(|err| panic!("{q}: {err}"));
    }
}

#[test]
fn namespace_parent_is_owner_element() {
    let d = doc_with_namespaces();
    let engine = Engine::new(&d);
    let root_el = d.document_element().unwrap();
    let ns = engine.select_at("namespace::*", root_el).unwrap();
    let parent = engine.select_at("parent::*", ns.get(0).unwrap()).unwrap();
    assert_eq!(parent.to_vec(), vec![root_el]);
}

#[test]
fn prefixed_names_and_ns_wildcards() {
    let d = doc_with_namespaces();
    let engine = Engine::new(&d);
    // QName node tests match the full prefixed name.
    assert_eq!(engine.select("//xsl:template").unwrap().len(), 1);
    assert_eq!(engine.select("//fo:block").unwrap().len(), 1);
    // NCName:* matches any name with the prefix.
    assert_eq!(engine.select("//xsl:*").unwrap().len(), 1);
    assert_eq!(engine.select("//zz:*").unwrap().len(), 0);
}

#[test]
fn parser_synthesized_namespace_nodes() {
    // With ParseOptions::namespaces, the parser itself builds namespace
    // nodes from xmlns declarations (the paper's footnote-6 exercise).
    let d = gkp_xpath::Document::parse_str_opts(
        r#"<x:root xmlns:x="urn:x" xmlns="urn:default">
             <x:item xmlns:y="urn:y"><leaf/></x:item>
             <x:item/>
           </x:root>"#,
        gkp_xpath::xml::ParseOptions { namespaces: true, ..Default::default() },
    )
    .unwrap();
    let engine = Engine::new(&d);
    // Root element: default + x + implicit xml.
    let root_el = d.document_element().unwrap();
    assert_eq!(engine.select_at("namespace::*", root_el).unwrap().len(), 3);
    // First item adds y; the inherited declarations are still in scope.
    let items = engine.select("//x:item").unwrap();
    assert_eq!(items.len(), 2);
    assert_eq!(engine.select_at("namespace::*", items.get(0).unwrap()).unwrap().len(), 4);
    assert_eq!(engine.select_at("namespace::y", items.get(0).unwrap()).unwrap().len(), 1);
    // The second item does not see y.
    assert_eq!(engine.select_at("namespace::y", items.get(1).unwrap()).unwrap().len(), 0);
    // The leaf inherits all four from its ancestors.
    let leaf = engine.select("//leaf").unwrap();
    assert_eq!(engine.select_at("namespace::*", leaf.get(0).unwrap()).unwrap().len(), 4);
    // xmlns declarations are not attributes in this mode.
    assert_eq!(engine.select("//@*").unwrap().len(), 0);
    // All engines agree on namespace-axis queries over the parsed document.
    for q in ["count(//namespace::*)", "//*[namespace::y]", "string(//namespace::x)"] {
        let e = engine.prepare(q).unwrap();
        engine
            .evaluate_all_agree(&e, Context::of(d.root()), 1_000_000)
            .unwrap_or_else(|err| panic!("{q}: {err}"));
    }
}

#[test]
fn optimizer_engine_agrees() {
    // Every engine rewrites; its results equal TopDown on the normalized
    // query before the rewrite.
    let d = doc_with_namespaces();
    let engine = Engine::new(&d);
    let ctx = Context::of(d.root());
    for q in ["//fo:block", "//*[@match = 'para']/.", "count(//*) + 1 * 2"] {
        let plain = gkp_xpath::syntax::parse_normalized(q).unwrap();
        let a = engine.evaluate_expr(&plain, Strategy::TopDown, ctx).unwrap();
        let b = engine.evaluate(q).unwrap();
        assert!(a.semantically_equal(&b), "{q}: {a:?} vs {b:?}");
    }
    // The rewrite is visible in the prepared form.
    let e = engine.prepare("//fo:block").unwrap();
    assert_eq!(e.to_string(), "/descendant::fo:block");
}

#[test]
fn strategy_matrix_on_namespace_doc() {
    let d = doc_with_namespaces();
    let engine = Engine::new(&d);
    let reference =
        engine.evaluate_with("count(//node()) + count(//@*)", Strategy::TopDown).unwrap();
    for s in [
        Strategy::Naive,
        Strategy::DataPool,
        Strategy::BottomUp,
        Strategy::MinContext,
        Strategy::OptMinContext,
    ] {
        let v = engine.evaluate_with("count(//node()) + count(//@*)", s).unwrap();
        assert!(v.semantically_equal(&reference), "{s:?}");
    }
}
