//! The XSLT-Patterns'98 unary predicates of Table VI and the `Σ`-indexed
//! type predicates of Theorem 10.8 — the machinery that makes **XPatterns**
//! evaluable in linear time.
//!
//! Each predicate is a precomputable node set ("after parsing the query,
//! one knows of a fixed number of predicates to populate, and this action
//! takes time O(|D|) for each"):
//!
//! ```text
//! first-of-any := {y ∈ dom | ¬∃x : nextsibling(x, y)}
//! last-of-any  := {x ∈ dom | ¬∃y : nextsibling(x, y)}
//! first-of-type() := ∪_{l∈Σ} (T(l) − nextsibling⁺(T(l)))
//! last-of-type()  := ∪_{l∈Σ} (T(l) − (nextsibling⁻¹)⁺(T(l)))
//! "@n", "@*", "text()", "comment()", "pi(n)", "pi()" — sets provided with
//! the document; "=s" — string search; "id(s)" — computable before
//! evaluation.
//! ```
//!
//! The compiled XPatterns evaluator lives in [`crate::corexpath`]. There
//! `=s` is one case of a value test `π op c` (see
//! [`corexpath::ValueTest`](crate::corexpath::ValueTest)), with `op` any
//! of `= != < <= > >=`. Each value test is a unary predicate on one node's
//! string value, just like `=s`, so Theorem 10.8's argument treats it the
//! same way. The evaluator does not populate it for the whole document:
//! it applies the test only to the candidates that reach it, reading
//! element string values through the document's per-node cache. This
//! module exposes the predicate sets directly, as Theorem 10.8's proof
//! uses them.

use std::collections::HashMap;

use xpath_xml::{Document, NameId, NodeId, NodeKind};

use crate::nodeset::NodeSet;

/// `first-of-any`: nodes with no previous sibling (Table VI).
pub fn first_of_any(doc: &Document) -> NodeSet {
    doc.all_nodes().filter(|&n| doc.prev_sibling(n).is_none()).collect()
}

/// `last-of-any`: nodes with no next sibling (Table VI).
pub fn last_of_any(doc: &Document) -> NodeSet {
    doc.all_nodes().filter(|&n| doc.next_sibling(n).is_none()).collect()
}

/// `first-of-type`: elements with no earlier sibling of the same name.
/// Computed per Theorem 10.8 in `O(|D| · |Σ|)` — realized here as a single
/// sweep per parent using a seen-set, which is `O(|D|)` total.
pub fn first_of_type(doc: &Document) -> NodeSet {
    let mut out = Vec::new();
    let mut seen: Vec<NameId> = Vec::new();
    for n in doc.all_nodes() {
        if doc.first_child(n).is_none() {
            continue;
        }
        seen.clear();
        for c in doc.children(n) {
            if doc.kind(c) != NodeKind::Element {
                continue;
            }
            let Some(name) = doc.name_id(c) else { continue };
            if !seen.contains(&name) {
                seen.push(name);
                out.push(c);
            }
        }
    }
    NodeSet::from_unsorted(out)
}

/// `last-of-type`: elements with no later sibling of the same name.
pub fn last_of_type(doc: &Document) -> NodeSet {
    let mut out = Vec::new();
    let mut last: HashMap<NameId, NodeId> = HashMap::new();
    for n in doc.all_nodes() {
        if doc.first_child(n).is_none() {
            continue;
        }
        last.clear();
        for c in doc.children(n) {
            if doc.kind(c) != NodeKind::Element {
                continue;
            }
            if let Some(name) = doc.name_id(c) {
                last.insert(name, c);
            }
        }
        out.extend(last.values().copied());
    }
    NodeSet::from_unsorted(out)
}

/// `"@n"`: elements carrying an attribute named `n` (Table VI).
pub fn has_attribute(doc: &Document, name: &str) -> NodeSet {
    let Some(id) = doc.lookup_name(name) else { return NodeSet::new() };
    doc.all_nodes()
        .filter(|&n| {
            doc.kind(n) == NodeKind::Element
                && doc.attributes(n).any(|a| doc.name_id(a) == Some(id))
        })
        .collect()
}

/// `"@*"`: elements carrying any attribute (Table VI).
pub fn has_any_attribute(doc: &Document) -> NodeSet {
    doc.all_nodes()
        .filter(|&n| doc.kind(n) == NodeKind::Element && doc.attributes(n).next().is_some())
        .collect()
}

/// `"text()"`: elements with a text child (the XSLT-Patterns qualifier
/// tests containment, unlike the XPath node test).
pub fn has_text(doc: &Document) -> NodeSet {
    doc.all_nodes().filter(|&n| doc.children(n).any(|c| doc.kind(c) == NodeKind::Text)).collect()
}

/// `"comment()"` qualifier: elements with a comment child.
pub fn has_comment(doc: &Document) -> NodeSet {
    doc.all_nodes().filter(|&n| doc.children(n).any(|c| doc.kind(c) == NodeKind::Comment)).collect()
}

/// `"pi(n)"` / `"pi()"` qualifier: elements with a processing-instruction
/// child (optionally with target `n`).
pub fn has_pi(doc: &Document, target: Option<&str>) -> NodeSet {
    doc.all_nodes()
        .filter(|&n| {
            doc.children(n).any(|c| {
                doc.kind(c) == NodeKind::ProcessingInstruction
                    && target.is_none_or(|t| doc.name(c) == Some(t))
            })
        })
        .collect()
}

/// `"=s"`: nodes whose string value equals `s` (Table VI: "computed using
/// string search in the document before the evaluation of our query").
pub fn string_value_equals(doc: &Document, s: &str) -> NodeSet {
    doc.all_nodes().filter(|&n| doc.string_value(n) == s).collect()
}

/// `"id(s)"`: the unary predicate `{x | x ∈ deref_ids(s)}`.
pub fn id_predicate(doc: &Document, s: &str) -> NodeSet {
    NodeSet::from_sorted(doc.deref_ids(s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpath_xml::generate::{doc_bookstore, doc_figure8};
    use xpath_xml::Document;

    #[test]
    fn first_and_last_of_any() {
        let d = Document::parse_str("<a><b/><c/><b/></a>").unwrap();
        let a = d.document_element().unwrap();
        let kids: Vec<NodeId> = d.children(a).collect();
        let f = first_of_any(&d);
        // root (no siblings), a (only child), first b.
        assert!(f.contains(d.root()));
        assert!(f.contains(a));
        assert!(f.contains(kids[0]));
        assert!(!f.contains(kids[1]));
        let l = last_of_any(&d);
        assert!(l.contains(kids[2]));
        assert!(!l.contains(kids[0]));
        assert!(l.contains(a));
    }

    #[test]
    fn first_of_type_per_label() {
        let d = Document::parse_str("<a><b/><c/><b/><c/></a>").unwrap();
        let a = d.document_element().unwrap();
        let kids: Vec<NodeId> = d.children(a).collect();
        let f = first_of_type(&d);
        assert!(f.contains(kids[0]), "first b");
        assert!(f.contains(kids[1]), "first c");
        assert!(!f.contains(kids[2]), "second b");
        assert!(!f.contains(kids[3]), "second c");
        let l = last_of_type(&d);
        assert!(!l.contains(kids[0]));
        assert!(!l.contains(kids[1]));
        assert!(l.contains(kids[2]), "last b");
        assert!(l.contains(kids[3]), "last c");
        // The document element is both first- and last-of-type.
        assert!(f.contains(a));
        assert!(l.contains(a));
    }

    #[test]
    fn first_of_type_equivalent_to_definition() {
        // Cross-check against the Theorem 10.8 formula via a naive
        // per-label scan on a larger document.
        let d = doc_bookstore();
        let fast = first_of_type(&d);
        let mut slow = Vec::new();
        for n in d.all_nodes() {
            if d.kind(n) != NodeKind::Element {
                continue;
            }
            let name = d.name_id(n);
            let mut has_earlier = false;
            let mut cur = d.prev_sibling(n);
            while let Some(p) = cur {
                if d.kind(p) == NodeKind::Element && d.name_id(p) == name {
                    has_earlier = true;
                    break;
                }
                cur = d.prev_sibling(p);
            }
            if !has_earlier {
                slow.push(n);
            }
        }
        assert_eq!(fast, slow);
    }

    #[test]
    fn attribute_predicates() {
        let d = doc_bookstore();
        let with_year = has_attribute(&d, "year");
        assert_eq!(with_year.len(), 4, "four books carry @year");
        let with_any = has_any_attribute(&d);
        assert!(with_any.len() > with_year.len());
        assert!(has_attribute(&d, "nope").is_empty());
    }

    #[test]
    fn containment_predicates() {
        let d = Document::parse_str("<a><b>t</b><c><!--x--></c><d><?p q?></d><e/></a>").unwrap();
        let a = d.document_element().unwrap();
        let kids: Vec<NodeId> = d.children(a).collect();
        assert_eq!(has_text(&d), vec![kids[0]]);
        assert_eq!(has_comment(&d), vec![kids[1]]);
        assert_eq!(has_pi(&d, None), vec![kids[2]]);
        assert_eq!(has_pi(&d, Some("p")), vec![kids[2]]);
        assert!(has_pi(&d, Some("z")).is_empty());
    }

    #[test]
    fn eq_and_id_predicates() {
        let d = doc_figure8();
        let hundreds = string_value_equals(&d, "100");
        // Elements x14, x24 and their text children.
        assert_eq!(hundreds.len(), 4);
        let ids = id_predicate(&d, "12 21");
        assert_eq!(ids.len(), 2);
    }

    #[test]
    fn predicates_expressible_in_core_xpath_agree() {
        // On attribute-free documents, first-of-any restricted to elements
        // coincides with //*[not(preceding-sibling::node())] (on documents
        // with attributes the Table VI predicate counts attribute siblings
        // of the abstract tree, which the XPath axis filters out).
        let d = Document::parse_str("<a><b/><c><d/>text<d/></c><b/></a>").unwrap();
        let q = crate::query::CompiledQuery::compile("//*[not(preceding-sibling::node())] | /.");
        let via_query = q.unwrap().select(&d).unwrap();
        let mut expected = first_of_any(&d);
        // The query returns only elements+root; restrict the predicate set.
        expected.retain(|n| matches!(d.kind(n), NodeKind::Element | NodeKind::Root));
        assert_eq!(via_query, expected);
    }
}
