//! The `id` axis of §10.2 and its linear-time encoding via the `ref`
//! relation (Theorem 10.7).
//!
//! Exact semantics: `id := {(x0, x) | x ∈ deref_ids(strval(x0))}`.
//!
//! Theorem 10.7 encodes this using the linear-size `ref` relation:
//!
//! ```text
//! id(S)    := {y | x ∈ descendant-or-self(S), (x, y) ∈ ref}
//! id⁻¹(S)  := ancestor-or-self({x | (x, y) ∈ ref, y ∈ S})
//! ```
//!
//! The encoding is exact for element/root source nodes whenever ID tokens
//! do not span text-node boundaries (i.e. no token of `strval(x)` is formed
//! by concatenating the tail of one text node with the head of the next),
//! and — because `ref` is built from text nodes, as in the theorem — it does
//! not see references held in attribute *values* (whose string value the
//! exact semantics does consult when the source node is the attribute
//! itself). All paper workloads and our generators satisfy both conditions
//! at element level; `id_set_exact` is the fallback with the literal
//! semantics.

use xpath_syntax::Axis;
use xpath_xml::{Document, NodeId};

use crate::fast::eval_axis;

/// Exact `id(S)`: `∪_{x∈S} deref_ids(strval(x))`, sorted.
pub fn id_set_exact(doc: &Document, set: &[NodeId]) -> Vec<NodeId> {
    eval_axis(doc, Axis::Id, set)
}

/// Theorem 10.7 `id(S)` via the `ref` relation, for `set` sorted in
/// document order.
///
/// `descendant-or-self(S)` is a union of preorder intervals
/// `[s, subtree_end(s))`, and `ref` is sorted by source, so the pairs with
/// a source inside one interval form one contiguous range of it
/// ([`Refs::targets_in`](xpath_xml::Refs::targets_in)); inputs nested in
/// an earlier interval are skipped. The `k` targets found are then sorted
/// and deduplicated: `O(|S| · log |ref| + k log k)` rather than
/// [`id_set_ref_scan`]'s two `O(|D|)` scans, so a selective `id(…)` costs
/// what it selects.
pub fn id_set_ref(doc: &Document, set: &[NodeId]) -> Vec<NodeId> {
    debug_assert!(set.windows(2).all(|w| w[0] < w[1]), "id(S) needs S in document order");
    let refs = doc.refs();
    let mut out = Vec::new();
    let mut covered = 0u32;
    for &s in set {
        if s.0 < covered {
            continue;
        }
        covered = doc.subtree_end(s);
        out.extend(refs.targets_in(s.0, covered));
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Theorem 10.7 `id(S)` in its literal form: mark `descendant-or-self(S)`,
/// then scan every `ref` pair, in `O(|D|)` time whatever `|S|`. Kept as the
/// differential oracle of [`id_set_ref`].
pub fn id_set_ref_scan(doc: &Document, set: &[NodeId]) -> Vec<NodeId> {
    // Nodes x ∈ descendant-or-self(S) — computed untyped on purpose: text
    // nodes carry the references and are never attribute/namespace nodes,
    // while S itself may contain any kind.
    let mut in_dos = vec![false; doc.len()];
    for &s in set {
        for i in s.0..doc.subtree_end(s) {
            in_dos[i as usize] = true;
        }
    }
    let mut mark = vec![false; doc.len()];
    for (x, y) in doc.refs().iter() {
        if in_dos[x.index()] {
            mark[y.index()] = true;
        }
    }
    (0..doc.len() as u32).map(NodeId).filter(|n| mark[n.index()]).collect()
}

/// Theorem 10.7 `id⁻¹(S)`: `ancestor-or-self({x | (x,y) ∈ ref, y ∈ S})`,
/// in `O(|D|)` time.
pub fn id_inverse_ref(doc: &Document, set: &[NodeId]) -> Vec<NodeId> {
    let mut in_s = vec![false; doc.len()];
    for &s in set {
        in_s[s.index()] = true;
    }
    let mut mark = vec![false; doc.len()];
    for (x, y) in doc.refs().iter() {
        if in_s[y.index()] {
            // ancestor-or-self of x, with early exit on marked.
            let mut cur = Some(x);
            while let Some(c) = cur {
                if mark[c.index()] {
                    break;
                }
                mark[c.index()] = true;
                cur = doc.parent(c);
            }
        }
    }
    (0..doc.len() as u32).map(NodeId).filter(|n| mark[n.index()]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpath_xml::generate::{doc_bookstore, doc_idref_chain};

    /// Nodes where the Theorem 10.7 encoding is specified to agree with the
    /// exact semantics: element and root sources (text-borne references).
    fn element_like(d: &xpath_xml::Document) -> Vec<xpath_xml::NodeId> {
        d.all_nodes()
            .filter(|&n| {
                matches!(d.kind(n), xpath_xml::NodeKind::Element | xpath_xml::NodeKind::Root)
            })
            .collect()
    }

    #[test]
    fn exact_and_ref_agree_on_chain() {
        let d = doc_idref_chain(8);
        for x in element_like(&d) {
            let exact = id_set_exact(&d, &[x]);
            let via_ref = id_set_ref(&d, &[x]);
            assert_eq!(exact, via_ref, "node {x:?}");
        }
    }

    #[test]
    fn exact_and_ref_agree_on_bookstore() {
        let d = doc_bookstore();
        for x in element_like(&d) {
            assert_eq!(id_set_exact(&d, &[x]), id_set_ref(&d, &[x]), "node {x:?}");
        }
    }

    #[test]
    fn ref_encoding_misses_attribute_sources_by_design() {
        // The exact semantics sees the id attribute's own value; the ref
        // relation (built from text nodes, per Theorem 10.7) does not.
        let d = doc_bookstore();
        let b1 = d.element_by_id("b1").unwrap();
        let id_attr = d.attribute(b1, "id").unwrap();
        assert_eq!(id_set_exact(&d, &[id_attr]), vec![b1]);
        assert!(id_set_ref(&d, &[id_attr]).is_empty());
    }

    #[test]
    fn inverse_is_consistent() {
        // y ∈ id(x) iff x ∈ id⁻¹(y) — for the ref-based encoding, where
        // id(x) uses descendant-or-self, so id⁻¹(y) contains ancestors of
        // the referencing text's parent.
        let d = doc_idref_chain(6);
        for x in d.all_nodes() {
            for y in id_set_ref(&d, &[x]) {
                let back = id_inverse_ref(&d, &[y]);
                assert!(back.contains(&x), "x={x:?} y={y:?}");
            }
        }
    }

    #[test]
    fn id_of_unreferenced_is_empty() {
        let d = doc_bookstore();
        // The magazine references nothing.
        let m = d.element_by_id("m1").unwrap();
        assert!(id_set_exact(&d, &[m]).is_empty());
        assert!(id_set_ref(&d, &[m]).is_empty());
    }

    #[test]
    fn id_from_related_element() {
        let d = doc_bookstore();
        let b2 = d.element_by_id("b2").unwrap();
        // b2's <related> lists "b1 b3".
        let targets = id_set_exact(&d, &[b2]);
        assert_eq!(targets, vec![d.element_by_id("b1").unwrap(), d.element_by_id("b3").unwrap()]);
    }
}
