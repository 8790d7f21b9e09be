//! Node tests (paper §4): the function `T` mapping node tests to the subset
//! of `dom` satisfying them, and per-node matching relative to an axis's
//! principal node type.
//!
//! A test is resolved once per pass against the document and the axis: a
//! name test becomes the document's interned [`NameId`] (or "never
//! matches" when the document does not intern the name), so `T(t)` is one
//! pass comparing `NameId`s and kind bytes, with no string compare per
//! node. Every evaluator and the lazy cursor share that one check.

use xpath_syntax::{Axis, KindTest, NodeTest, PrincipalKind};
use xpath_xml::{Document, NameId, NodeId, NodeKind};

/// A node test resolved against one document and one axis's principal
/// node type. Building one costs at most one name lookup; checking a node
/// costs a kind and a name-id compare.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ResolvedTest<'t> {
    /// No node matches: the test names a name the document never interned.
    Never,
    /// `node()`: every node.
    Any,
    /// Every node of one kind: `*` (the principal kind), `text()`,
    /// `comment()`, `processing-instruction()`.
    Kind(NodeKind),
    /// Nodes of one kind carrying one interned name: a name test (on the
    /// principal kind) or `processing-instruction('target')`.
    Name(NodeKind, NameId),
    /// `prefix:*`: principal-kind nodes whose name has this prefix.
    Prefix(NodeKind, &'t str),
}

/// Bind `$check` to the per-node check of resolved test `$r` and evaluate
/// `$body` once per variant, so a loop over nodes in `$body` dispatches on
/// the variant once, not once per node. The arms are the one definition
/// of what each resolved test matches.
macro_rules! with_check {
    ($r:expr, $doc:expr, |$check:ident| $body:expr) => {{
        let doc: &Document = $doc;
        let (kinds, names) = (doc.kind_bytes(), doc.name_ids());
        match $r {
            ResolvedTest::Never => {
                let $check = |_: NodeId| false;
                $body
            }
            ResolvedTest::Any => {
                let $check = |_: NodeId| true;
                $body
            }
            ResolvedTest::Kind(k) => {
                let $check = |n: NodeId| kinds[n.index()] == k as u8;
                $body
            }
            ResolvedTest::Name(k, id) => {
                let $check = |n: NodeId| names[n.index()] == id.0 && kinds[n.index()] == k as u8;
                $body
            }
            ResolvedTest::Prefix(k, prefix) => {
                let $check = |n: NodeId| {
                    kinds[n.index()] == k as u8
                        && doc
                            .name(n)
                            .and_then(|full| full.split_once(':'))
                            .is_some_and(|(p, _)| p == prefix)
                };
                $body
            }
        }
    }};
}

impl<'t> ResolvedTest<'t> {
    /// Resolve `test` on `axis` against `doc`'s name table.
    pub(crate) fn new(doc: &Document, axis: Axis, test: &'t NodeTest) -> ResolvedTest<'t> {
        let principal = match axis.principal_kind() {
            PrincipalKind::Element => NodeKind::Element,
            PrincipalKind::Attribute => NodeKind::Attribute,
            PrincipalKind::Namespace => NodeKind::Namespace,
        };
        let named = |kind, name: &str| match doc.lookup_name(name) {
            Some(id) => ResolvedTest::Name(kind, id),
            None => ResolvedTest::Never,
        };
        match test {
            NodeTest::Kind(KindTest::Node) => ResolvedTest::Any,
            NodeTest::Kind(KindTest::Text) => ResolvedTest::Kind(NodeKind::Text),
            NodeTest::Kind(KindTest::Comment) => ResolvedTest::Kind(NodeKind::Comment),
            NodeTest::Kind(KindTest::Pi(None)) => {
                ResolvedTest::Kind(NodeKind::ProcessingInstruction)
            }
            NodeTest::Kind(KindTest::Pi(Some(target))) => {
                named(NodeKind::ProcessingInstruction, target)
            }
            NodeTest::Wildcard => ResolvedTest::Kind(principal),
            NodeTest::Name(name) => named(principal, name),
            NodeTest::NsWildcard(prefix) => ResolvedTest::Prefix(principal, prefix),
        }
    }

    /// Does node `n` satisfy the test?
    #[inline]
    pub(crate) fn matches(self, doc: &Document, n: NodeId) -> bool {
        with_check!(self, doc, |check| check(n))
    }

    /// Intersect `window` (one bit per id from `lo`, a multiple of 64)
    /// with `T(t)`: the column compare of [`matching_set`] over the
    /// window's slice, one 64-id block per nonzero word, so words
    /// without a candidate cost nothing.
    pub(crate) fn retain_window(self, doc: &Document, lo: u32, window: &mut [u64]) {
        let (kinds, names) = (doc.kind_bytes(), doc.name_ids());
        for (w, word) in window.iter_mut().enumerate().filter(|(_, word)| **word != 0) {
            let base = lo as usize + w * 64;
            let end = (base + 64).min(kinds.len());
            *word &= match self {
                ResolvedTest::Never => 0,
                ResolvedTest::Any => u64::MAX,
                ResolvedTest::Kind(k) => eq_mask(&kinds[base..end], k as u8),
                ResolvedTest::Name(k, id) => {
                    eq_mask(&names[base..end], id.0) & eq_mask(&kinds[base..end], k as u8)
                }
                r @ ResolvedTest::Prefix(..) => (0..end - base)
                    .filter(|&j| r.matches(doc, NodeId((base + j) as u32)))
                    .fold(0, |m, j| m | 1 << j),
            };
        }
    }
}

/// The set `T(t)` (§4) relative to an axis: all nodes of the document
/// satisfying the test. Sorted in document order. One `O(|D|)` pass that
/// searches the name-id column for a name test and the kind column for a
/// kind test, never calling a per-node accessor. The returned vector is
/// drawn from the thread-local recycling pool ([`xpath_xml::pool`]), so
/// repeated scans reuse one buffer.
pub fn matching_set(doc: &Document, axis: Axis, test: &NodeTest) -> Vec<NodeId> {
    let mut out = xpath_xml::pool::take_ids();
    let (kinds, names) = (doc.kind_bytes(), doc.name_ids());
    match ResolvedTest::new(doc, axis, test) {
        ResolvedTest::Never => {}
        ResolvedTest::Any => out.extend(doc.all_nodes()),
        ResolvedTest::Kind(k) => each_equal(kinds, k as u8, |i| out.push(NodeId(i as u32))),
        ResolvedTest::Name(k, id) => each_equal(names, id.0, |i| {
            if kinds[i] == k as u8 {
                out.push(NodeId(i as u32));
            }
        }),
        r @ ResolvedTest::Prefix(..) => out.extend(doc.all_nodes().filter(|&n| r.matches(doc, n))),
    }
    out
}

/// Call `f` with every index of `column` holding `v`, in ascending order:
/// one [`eq_mask`] per 64-entry block.
fn each_equal<T: Copy + PartialEq>(column: &[T], v: T, mut f: impl FnMut(usize)) {
    for (b, block) in column.chunks(64).enumerate() {
        let mut m = eq_mask(block, v);
        while m != 0 {
            f(b * 64 + m.trailing_zeros() as usize);
            m &= m - 1;
        }
    }
}

/// Bit `j` set iff `block[j] == v`, for a block of at most 64 entries.
/// The compares fill a byte per entry, so they vectorize and no branch
/// depends on the data; a multiply then gathers eight bytes' low bits
/// into one byte of the mask.
fn eq_mask<T: Copy + PartialEq>(block: &[T], v: T) -> u64 {
    let mut hits = [0u8; 64];
    for (hit, &x) in hits.iter_mut().zip(block) {
        *hit = u8::from(x == v);
    }
    hits.chunks_exact(8).enumerate().fold(0, |m, (i, eight)| {
        let bytes = u64::from_le_bytes(eight.try_into().expect("chunks of eight"));
        m | bytes.wrapping_mul(0x0102_0408_1020_4080) >> 56 << (8 * i)
    })
}

/// Filter a node list in place by a node test.
pub fn filter(doc: &Document, axis: Axis, test: &NodeTest, nodes: &mut Vec<NodeId>) {
    match ResolvedTest::new(doc, axis, test) {
        ResolvedTest::Any => {}
        ResolvedTest::Never => nodes.clear(),
        r => with_check!(r, doc, |check| nodes.retain(|&n| check(n))),
    }
}

/// Filter a [`NodeSet`](crate::nodeset::NodeSet) in place by a node test.
/// `node()` keeps everything, and a name the document never interned
/// clears the set outright.
pub fn filter_set(
    doc: &Document,
    axis: Axis,
    test: &NodeTest,
    nodes: &mut crate::nodeset::NodeSet,
) {
    match ResolvedTest::new(doc, axis, test) {
        ResolvedTest::Any => {}
        ResolvedTest::Never => *nodes = crate::nodeset::NodeSet::new(),
        r => with_check!(r, doc, |check| nodes.retain(check)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nodeset::NodeSet;
    use xpath_xml::generate::doc_figure8;
    use xpath_xml::Document;

    fn matches(doc: &Document, axis: Axis, test: &NodeTest, n: NodeId) -> bool {
        ResolvedTest::new(doc, axis, test).matches(doc, n)
    }

    #[test]
    fn example_4_1_typed_sets() {
        // T(element()) over DOC(4), expressed via node tests.
        let d = Document::parse_str("<a><b/><b/><b/><b/></a>").unwrap();
        let t_node = matching_set(&d, Axis::Child, &NodeTest::Kind(KindTest::Node));
        assert_eq!(t_node.len(), d.len()); // T(node()) = dom
        let t_elem = matching_set(&d, Axis::Child, &NodeTest::Wildcard);
        assert_eq!(t_elem.len(), 5); // a + 4 b's
        let t_a = matching_set(&d, Axis::Child, &NodeTest::Name("a".into()));
        assert_eq!(t_a.len(), 1);
        let t_b = matching_set(&d, Axis::Child, &NodeTest::Name("b".into()));
        assert_eq!(t_b.len(), 4);
    }

    #[test]
    fn principal_type_depends_on_axis() {
        let d = doc_figure8();
        let b11 = d.element_by_id("11").unwrap();
        let id_attr = d.attribute(b11, "id").unwrap();
        // "id" as a name test matches the attribute on the attribute axis...
        assert!(matches(&d, Axis::Attribute, &NodeTest::Name("id".into()), id_attr));
        // ...but not on the child axis (principal type element).
        assert!(!matches(&d, Axis::Child, &NodeTest::Name("id".into()), id_attr));
        // Wildcard likewise.
        assert!(matches(&d, Axis::Attribute, &NodeTest::Wildcard, id_attr));
        assert!(!matches(&d, Axis::Child, &NodeTest::Wildcard, id_attr));
        // node() matches anything regardless of axis.
        assert!(matches(&d, Axis::Child, &NodeTest::Kind(KindTest::Node), id_attr));
    }

    #[test]
    fn kind_tests() {
        let d = Document::parse_str("<a>t<!--c--><?p data?></a>").unwrap();
        let a = d.document_element().unwrap();
        let kids: Vec<NodeId> = d.children(a).collect();
        assert!(matches(&d, Axis::Child, &NodeTest::Kind(KindTest::Text), kids[0]));
        assert!(matches(&d, Axis::Child, &NodeTest::Kind(KindTest::Comment), kids[1]));
        assert!(matches(&d, Axis::Child, &NodeTest::Kind(KindTest::Pi(None)), kids[2]));
        assert!(matches(&d, Axis::Child, &NodeTest::Kind(KindTest::Pi(Some("p".into()))), kids[2]));
        assert!(!matches(
            &d,
            Axis::Child,
            &NodeTest::Kind(KindTest::Pi(Some("q".into()))),
            kids[2]
        ));
        assert!(!matches(&d, Axis::Child, &NodeTest::Kind(KindTest::Text), kids[1]));
    }

    #[test]
    fn ns_wildcard() {
        let d = Document::parse_str("<a><pre:x/><pre:y/><other:z/><plain/></a>").unwrap();
        let hits = matching_set(&d, Axis::Child, &NodeTest::NsWildcard("pre".into()));
        assert_eq!(hits.len(), 2);
        let misses = matching_set(&d, Axis::Child, &NodeTest::NsWildcard("nope".into()));
        assert!(misses.is_empty());
    }

    #[test]
    fn unknown_name_matches_nothing() {
        let d = doc_figure8();
        assert!(matching_set(&d, Axis::Child, &NodeTest::Name("zzz".into())).is_empty());
    }

    #[test]
    fn every_pass_agrees_with_the_per_node_check() {
        // The column scan of `T(t)` and the hoisted filters give exactly
        // the nodes the per-node check accepts, across the 64-node blocks
        // of the scan and its remainder.
        let mut xml = String::from("<r xmlns:p='u' id='0'>");
        for i in 0..150 {
            xml.push_str(&format!("<p:x a='{i}'>t<!--c--><?pi d?><?q?><y id='{i}'/></p:x>"));
        }
        xml.push_str("</r>");
        let d = Document::parse_str(&xml).unwrap();
        let tests = [
            NodeTest::Kind(KindTest::Node),
            NodeTest::Kind(KindTest::Text),
            NodeTest::Kind(KindTest::Comment),
            NodeTest::Kind(KindTest::Pi(None)),
            NodeTest::Kind(KindTest::Pi(Some("pi".into()))),
            NodeTest::Kind(KindTest::Pi(Some("nope".into()))),
            NodeTest::Wildcard,
            NodeTest::Name("y".into()),
            NodeTest::Name("p:x".into()),
            NodeTest::Name("id".into()),
            NodeTest::Name("zzz".into()),
            NodeTest::NsWildcard("p".into()),
        ];
        for axis in [Axis::Child, Axis::Attribute] {
            for test in &tests {
                let want: Vec<NodeId> =
                    d.all_nodes().filter(|&n| matches(&d, axis, test, n)).collect();
                assert_eq!(matching_set(&d, axis, test), want, "{axis:?} {test:?}");
                let mut v: Vec<NodeId> = d.all_nodes().collect();
                filter(&d, axis, test, &mut v);
                assert_eq!(v, want, "{axis:?} {test:?}");
                let mut set = NodeSet::full(d.len() as u32);
                filter_set(&d, axis, test, &mut set);
                assert_eq!(set.to_vec(), want, "{axis:?} {test:?}");
                for lo in [0u32, 64] {
                    let mut window = vec![0u64; d.len().div_ceil(64)];
                    NodeSet::full(d.len() as u32).read_window(lo, &mut window);
                    ResolvedTest::new(&d, axis, test).retain_window(&d, lo, &mut window);
                    let tail: Vec<NodeId> = want.iter().copied().filter(|n| n.0 >= lo).collect();
                    let got = NodeSet::from_window(lo, &window);
                    assert_eq!(got, tail, "{axis:?} {test:?} window at {lo}");
                }
            }
        }
    }
}
