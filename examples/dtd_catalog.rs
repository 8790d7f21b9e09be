//! DTD-driven ID/IDREF querying: §4 of the paper grounds `deref_ids` in the
//! DTD's `ID`/`IDREF` attribute declarations, and §10.2 (XPatterns) turns
//! `id(…)` into a linear-time axis via the `ref` relation (Theorem 10.7).
//!
//! This example parses a catalog whose DOCTYPE internal subset declares
//! `code` (not the conventional `id`) as the ID attribute of parts, plus
//! attribute defaults and internal entities — and then follows references
//! with `id()` queries evaluated by the linear-time XPatterns algorithm.
//!
//! ```sh
//! cargo run --example dtd_catalog
//! ```

use gkp_xpath::core::Context;
use gkp_xpath::xml::IdPolicy;
use gkp_xpath::{CompiledQuery, Compiler, Document, NodeId, NodeSet, Strategy};

const CATALOG: &str = r#"<!DOCTYPE catalog [
  <!ELEMENT catalog (part+)>
  <!ELEMENT part (name, needs*)>
  <!ELEMENT name (#PCDATA)>
  <!ELEMENT needs (#PCDATA)>
  <!ATTLIST part
      code     ID    #REQUIRED
      status   (active | retired) "active">
  <!ENTITY vendor "ACME Tooling">
]>
<catalog>
  <part code="axle"><name>Axle (&vendor;)</name></part>
  <part code="wheel"><name>Wheel</name><needs>axle</needs></part>
  <part code="frame" status="retired"><name>Frame</name></part>
  <part code="cart"><name>Cart</name><needs>wheel frame</needs></part>
</catalog>"#;

fn main() {
    // Parse with *no* name-based ID fallback: every ID comes from the DTD.
    let doc = Document::parse_str_with(CATALOG, IdPolicy::none()).expect("well-formed");
    let dtd = doc.dtd().expect("DOCTYPE present");
    println!("DTD root: {}", dtd.root_name);
    println!("ID attributes declared: {:?}", dtd.id_attributes().collect::<Vec<_>>());

    // The entity declared in the internal subset resolved in content:
    let select_at = |q, node: NodeId| -> NodeSet {
        CompiledQuery::compile(q).unwrap().select_at(&doc, Context::of(node)).unwrap()
    };
    let axle = doc.element_by_id("axle").expect("code is an ID attribute");
    let axle_name = select_at("name", axle);
    println!("axle name: {}", doc.string_value(axle_name.first().unwrap()));
    assert!(doc.string_value(axle_name.first().unwrap()).contains("ACME"), "entity resolved");

    // The attribute default materialized on every part without status=…:
    let active =
        CompiledQuery::compile("//part[@status = 'active']").unwrap().select(&doc).unwrap();
    println!("active parts: {}", active.len());
    assert_eq!(active.len(), 3, "default status=\"active\" applies to 3 of 4 parts");

    // id() queries: follow the <needs> references. XPatterns evaluates
    // id(π) in linear time via the ref relation (Theorem 10.7).
    let q = "id(//part[@status = 'active']/needs)/name";
    let xpatterns = Compiler::new().default_strategy(Strategy::XPatterns).compile(q).unwrap();
    let deps = xpatterns.evaluate_root(&doc).unwrap();
    let deps = deps.as_node_set().unwrap().to_vec();
    println!("\nparts needed by active parts ({q}):");
    for n in &deps {
        println!("  - {}", doc.string_value(*n));
    }
    assert_eq!(deps.len(), 3, "axle, wheel and frame are referenced");

    // Fragment auto-dispatch: Auto classifies id() queries as XPatterns
    // and picks the linear-time algorithm by itself.
    let auto = CompiledQuery::compile(q).unwrap().select(&doc).unwrap();
    assert_eq!(auto.len(), deps.len());

    // A transitive dependency walk using the library API.
    println!("\ntransitive dependencies of cart:");
    let mut frontier = vec![doc.element_by_id("cart").unwrap()];
    let mut seen = frontier.clone();
    while let Some(part) = frontier.pop() {
        for dep in &select_at("id(needs)", part) {
            if !seen.contains(&dep) {
                let name = select_at("name", dep);
                println!("  - {}", doc.string_value(name.first().unwrap()));
                seen.push(dep);
                frontier.push(dep);
            }
        }
    }
    assert_eq!(seen.len(), 4, "cart transitively needs wheel, frame, axle");
}
