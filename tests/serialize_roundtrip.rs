//! Serializer round-trip properties: `parse(serialize(d))` is structurally
//! identical to `d`, and serialization is a fixed point thereafter.
//!
//! Each property runs on 96 inputs from a seeded splitmix64 stream
//! (`xpath_xml::rng`).

use gkp_xpath::xml::generate::{doc_random, RandomDocConfig};
use gkp_xpath::xml::rng::Rng;
use gkp_xpath::{Document, DocumentBuilder, NodeId, NodeKind};

/// Cases per property.
const CASES: usize = 96;

/// Structural equality: same shape, kinds, names, values, in document
/// order.
fn structurally_equal(a: &Document, b: &Document) -> bool {
    if a.len() != b.len() {
        return false;
    }
    a.all_nodes().all(|n| {
        let m = NodeId(n.0);
        a.kind(n) == b.kind(m)
            && a.name(n) == b.name(m)
            && a.value(n) == b.value(m)
            && a.parent(n) == b.parent(m)
            && a.next_sibling(n) == b.next_sibling(m)
    })
}

/// `lo..=hi` characters, each drawn by `draw`.
fn string_with(rng: &mut Rng, lo: usize, hi: usize, draw: fn(&mut Rng) -> char) -> String {
    let len = rng.random_range(lo..=hi);
    (0..len).map(|_| draw(rng)).collect()
}

/// A printable ASCII character (`[ -~]`).
fn printable(rng: &mut Rng) -> char {
    char::from(b' ' + rng.random_range(0u32..95) as u8)
}

/// A non-control Unicode scalar value (`\PC`), biased towards ASCII.
fn non_control(rng: &mut Rng) -> char {
    loop {
        let c = if rng.random_bool(0.3) {
            printable(rng)
        } else {
            char::from_u32(rng.random_range(0u32..0x11_0000)).unwrap_or('\u{fffd}')
        };
        if !c.is_control() {
            return c;
        }
    }
}

/// A one-element document `<a>` built by `fill`, serialized and parsed back.
fn roundtrip<R>(fill: impl FnOnce(&mut DocumentBuilder) -> R) -> (String, Document) {
    let mut b = DocumentBuilder::new();
    b.open_element("a");
    fill(&mut b);
    b.close_element();
    let d = b.finish();
    let text = d.serialize(d.root());
    let d2 = Document::parse_str(&text).unwrap_or_else(|e| panic!("{text:?}: {e}"));
    (text, d2)
}

/// Random documents survive serialize → parse unchanged.
#[test]
fn roundtrip_random_docs() {
    let mut rng = Rng::seed_from_u64(1);
    let cfg = RandomDocConfig { elements: 40, ..RandomDocConfig::default() };
    for _ in 0..CASES {
        let d = doc_random(rng.next_u64() % 10_000, &cfg);
        let text = d.serialize(d.root());
        let d2 = Document::parse_str(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
        assert!(structurally_equal(&d, &d2), "{text}");
        // Serialization is a fixed point after one round trip.
        assert_eq!(d2.serialize(d2.root()), text);
    }
}

/// Attribute values with arbitrary quotable content round-trip.
#[test]
fn attribute_escaping() {
    let mut rng = Rng::seed_from_u64(2);
    for _ in 0..CASES {
        let v = string_with(&mut rng, 0, 24, printable);
        let (text, d2) = roundtrip(|b| b.attribute("t", &v));
        let a = d2.document_element().unwrap();
        let got = d2.value(d2.attribute(a, "t").unwrap()).unwrap();
        assert_eq!(got, v.as_str(), "via {text}");
    }
}

/// Text content (including markup characters) round-trips.
#[test]
fn text_escaping() {
    let mut rng = Rng::seed_from_u64(3);
    for _ in 0..CASES {
        let v = string_with(&mut rng, 1, 32, printable);
        let (text, d2) = roundtrip(|b| b.text(&v));
        assert_eq!(d2.string_value(d2.root()), v.as_str(), "via {text}");
    }
}

/// Unicode text round-trips.
#[test]
fn unicode_text() {
    let mut rng = Rng::seed_from_u64(4);
    for _ in 0..CASES {
        let v = string_with(&mut rng, 1, 16, non_control);
        let (text, d2) = roundtrip(|b| b.text(&v));
        assert_eq!(d2.string_value(d2.root()), v.as_str(), "via {text:?}");
    }
}

#[test]
fn escaping_edge_cases() {
    for v in ["&", "<", ">", "\"", "'", "&amp;", "]]>", "a<b>&c\"d'e"] {
        let mut b = gkp_xpath::DocumentBuilder::new();
        b.open_element("x");
        b.attribute("t", v);
        b.text(v);
        b.close_element();
        let d = b.finish();
        let text = d.serialize(d.root());
        let d2 = Document::parse_str(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
        let x = d2.document_element().unwrap();
        assert_eq!(d2.value(d2.attribute(x, "t").unwrap()), Some(v), "attr via {text}");
        assert_eq!(d2.string_value(x), v, "text via {text}");
    }
}

#[test]
fn mixed_content_with_comments_and_pis() {
    let src = r#"<a>pre<!-- c --><b k="1">mid</b><?pi data?>post</a>"#;
    let d = Document::parse_str(src).unwrap();
    let text = d.serialize(d.root());
    let d2 = Document::parse_str(&text).unwrap();
    assert_eq!(d.len(), d2.len());
    assert_eq!(d2.string_value(d2.root()), "premidpost");
    let kinds: Vec<NodeKind> = d2.all_nodes().map(|n| d2.kind(n)).collect();
    let expect: Vec<NodeKind> = d.all_nodes().map(|n| d.kind(n)).collect();
    assert_eq!(kinds, expect);
}
