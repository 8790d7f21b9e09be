//! Programmatic document construction.
//!
//! The builder is the single place where tree structure is created; it
//! guarantees the invariants the rest of the system relies on:
//!
//! 1. nodes are emitted in document order, so `NodeId` order is `<doc`;
//! 2. attribute and namespace children precede content children;
//! 3. `subtree_end` ranges are correct preorder intervals, each nested in
//!    its parent's, so `firstchild` and `nextsibling` need no column of
//!    their own (the document derives them from the intervals);
//! 4. adjacent text children are merged (the data model has no adjacent
//!    text siblings);
//! 5. node values are appended to one contiguous text arena, so the
//!    finished [`Document`] is flat and relocatable (snapshot-ready, see
//!    [`crate::snap`]) with no per-node heap strings.

use std::collections::HashMap;

use crate::bytes::Arr;
use crate::document::{special_mask, DocData, Document, IdPolicy, NameId, NONE};
use crate::node::{NodeId, NodeKind};

/// Incremental builder for [`Document`]s.
///
/// ```
/// use xpath_xml::DocumentBuilder;
/// let mut b = DocumentBuilder::new();
/// b.open_element("a");
/// b.attribute("id", "10");
/// b.text("hello");
/// b.close_element();
/// let doc = b.finish();
/// assert_eq!(doc.len(), 4); // root, <a>, @id, text
/// ```
pub struct DocumentBuilder {
    kind: Vec<u8>,
    name: Vec<u32>,
    value_off: Vec<u32>,
    value_len: Vec<u32>,
    parent: Vec<u32>,
    prev_sibling: Vec<u32>,
    subtree_end: Vec<u32>,
    /// The shared text arena values are appended to.
    text: Vec<u8>,
    names: Vec<Box<str>>,
    /// Build-time intern map; dropped at [`finish`](Self::finish) — the
    /// document resolves names through its sorted offset table instead.
    name_ids: HashMap<Box<str>, NameId>,
    /// Stack of open elements (root is index 0, never popped).
    stack: Vec<NodeId>,
    /// Last emitted child of each open node, for `prev_sibling` linking.
    last_child: Vec<Option<NodeId>>,
    /// Whether the current open element already has content children (at
    /// which point attributes may no longer be added, mirroring XML syntax).
    has_content: Vec<bool>,
    id_policy: IdPolicy,
}

impl Default for DocumentBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl DocumentBuilder {
    /// Start a new document with the default [`IdPolicy`].
    pub fn new() -> DocumentBuilder {
        Self::with_id_policy(IdPolicy::default())
    }

    /// Start a new document with a custom [`IdPolicy`].
    pub fn with_id_policy(id_policy: IdPolicy) -> DocumentBuilder {
        DocumentBuilder {
            kind: vec![NodeKind::Root as u8],
            name: vec![NONE],
            value_off: vec![NONE],
            value_len: vec![0],
            parent: vec![NONE],
            prev_sibling: vec![NONE],
            subtree_end: vec![1],
            text: Vec::new(),
            names: Vec::new(),
            name_ids: HashMap::new(),
            stack: vec![NodeId::ROOT],
            last_child: vec![None],
            has_content: vec![false],
            id_policy,
        }
    }

    /// Mutable access to the ID policy, so a parser can fold DTD-declared
    /// `ID` attributes in before the (lazily built) ID table sees them.
    pub fn id_policy_mut(&mut self) -> &mut IdPolicy {
        &mut self.id_policy
    }

    /// Reserve arena capacity (useful for generators that know the size).
    pub fn reserve(&mut self, additional: usize) {
        self.kind.reserve(additional);
        self.name.reserve(additional);
        self.value_off.reserve(additional);
        self.value_len.reserve(additional);
        self.parent.reserve(additional);
        self.prev_sibling.reserve(additional);
        self.subtree_end.reserve(additional);
    }

    fn len(&self) -> usize {
        self.kind.len()
    }

    fn intern(&mut self, name: &str) -> NameId {
        if let Some(&id) = self.name_ids.get(name) {
            return id;
        }
        let id = NameId(self.names.len() as u32);
        self.names.push(name.into());
        self.name_ids.insert(name.into(), id);
        id
    }

    fn push_node(&mut self, kind: NodeKind, name: Option<NameId>, value: Option<&str>) -> NodeId {
        let id = NodeId(self.len() as u32);
        let parent = *self.stack.last().expect("stack never empty");
        self.kind.push(kind as u8);
        self.name.push(name.map_or(NONE, |n| n.0));
        match value {
            Some(v) => {
                self.value_off.push(self.text.len() as u32);
                self.value_len.push(v.len() as u32);
                self.text.extend_from_slice(v.as_bytes());
            }
            None => {
                self.value_off.push(NONE);
                self.value_len.push(0);
            }
        }
        self.parent.push(parent.0);
        self.prev_sibling.push(self.last_child[self.stack.len() - 1].map_or(NONE, |p| p.0));
        self.subtree_end.push(id.0 + 1);
        *self.last_child.last_mut().expect("non-empty") = Some(id);
        id
    }

    /// Open an element node; subsequent nodes become its children until
    /// [`close_element`](Self::close_element).
    pub fn open_element(&mut self, name: &str) -> NodeId {
        let name = self.intern(name);
        let id = self.push_node(NodeKind::Element, Some(name), None);
        self.stack.push(id);
        self.last_child.push(None);
        self.has_content.push(false);
        id
    }

    /// Close the most recently opened element.
    ///
    /// # Panics
    /// Panics if no element is open.
    pub fn close_element(&mut self) {
        assert!(self.stack.len() > 1, "close_element with no open element");
        let id = self.stack.pop().expect("non-empty");
        self.last_child.pop();
        self.has_content.pop();
        self.subtree_end[id.index()] = self.len() as u32;
    }

    /// Add an attribute to the currently open element. Must precede any
    /// content children of that element.
    ///
    /// # Panics
    /// Panics if no element is open or content was already added.
    pub fn attribute(&mut self, name: &str, value: &str) -> NodeId {
        assert!(self.stack.len() > 1, "attribute outside an element");
        assert!(
            !*self.has_content.last().expect("non-empty"),
            "attributes must precede content children"
        );
        let name = self.intern(name);
        self.push_node(NodeKind::Attribute, Some(name), Some(value))
    }

    /// Add a namespace node to the currently open element (prefix → URI).
    /// Like attributes, namespace nodes must precede content children.
    pub fn namespace(&mut self, prefix: &str, uri: &str) -> NodeId {
        assert!(self.stack.len() > 1, "namespace node outside an element");
        assert!(
            !*self.has_content.last().expect("non-empty"),
            "namespace nodes must precede content children"
        );
        let name = self.intern(prefix);
        self.push_node(NodeKind::Namespace, Some(name), Some(uri))
    }

    fn mark_content(&mut self) {
        *self.has_content.last_mut().expect("non-empty") = true;
    }

    /// Add a text node. Adjacent text children are merged into one node.
    pub fn text(&mut self, content: &str) -> NodeId {
        if content.is_empty() {
            // Empty text nodes do not exist in the data model; return the
            // enclosing node id as a harmless placeholder.
            return *self.stack.last().expect("non-empty");
        }
        self.mark_content();
        let slot = self.stack.len() - 1;
        if let Some(prev) = self.last_child[slot] {
            if self.kind[prev.index()] == NodeKind::Text as u8 {
                // `prev` being the last emitted child means nothing was
                // pushed since it, so its value span is the arena tail —
                // merging is appending to the arena and growing the span.
                debug_assert_eq!(
                    self.value_off[prev.index()] as usize + self.value_len[prev.index()] as usize,
                    self.text.len(),
                    "text merge target must own the arena tail"
                );
                self.text.extend_from_slice(content.as_bytes());
                self.value_len[prev.index()] += content.len() as u32;
                return prev;
            }
        }
        self.push_node(NodeKind::Text, None, Some(content))
    }

    /// Add a comment node.
    pub fn comment(&mut self, content: &str) -> NodeId {
        self.mark_content();
        self.push_node(NodeKind::Comment, None, Some(content))
    }

    /// Add a processing-instruction node.
    pub fn processing_instruction(&mut self, target: &str, data: &str) -> NodeId {
        self.mark_content();
        let name = self.intern(target);
        self.push_node(NodeKind::ProcessingInstruction, Some(name), Some(data))
    }

    /// Convenience: an element with a single text child.
    pub fn leaf(&mut self, name: &str, text: &str) -> NodeId {
        let id = self.open_element(name);
        if !text.is_empty() {
            self.text(text);
        }
        self.close_element();
        id
    }

    /// Convenience: an empty element.
    pub fn empty(&mut self, name: &str) -> NodeId {
        let id = self.open_element(name);
        self.close_element();
        id
    }

    /// Finish the document: flatten the name table into its contiguous
    /// arena + offset form and hand the arenas to [`Document`].
    ///
    /// # Panics
    /// Panics if elements remain open.
    pub fn finish(mut self) -> Document {
        assert!(self.stack.len() == 1, "finish with {} unclosed element(s)", self.stack.len() - 1);
        self.subtree_end[0] = self.len() as u32;

        let mut name_bytes = Vec::new();
        let mut name_off = Vec::with_capacity(self.names.len() + 1);
        name_off.push(0u32);
        for n in &self.names {
            name_bytes.extend_from_slice(n.as_bytes());
            name_off.push(name_bytes.len() as u32);
        }
        let mut name_sorted: Vec<u32> = (0..self.names.len() as u32).collect();
        name_sorted.sort_unstable_by(|&a, &b| {
            self.names[a as usize].as_bytes().cmp(self.names[b as usize].as_bytes())
        });

        let special = special_mask(&self.kind);
        let data = DocData {
            kind: Arr::from_vec(self.kind),
            name: Arr::from_vec(self.name),
            value_off: Arr::from_vec(self.value_off),
            value_len: Arr::from_vec(self.value_len),
            parent: Arr::from_vec(self.parent),
            prev_sibling: Arr::from_vec(self.prev_sibling),
            subtree_end: Arr::from_vec(self.subtree_end),
            special: Arr::from_vec(special),
            text: Arr::from_vec(self.text),
            name_bytes: Arr::from_vec(name_bytes),
            name_off: Arr::from_vec(name_off),
            name_sorted: Arr::from_vec(name_sorted),
        };
        Document::from_parts(data, self.id_policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_build() {
        let mut b = DocumentBuilder::new();
        b.open_element("a");
        b.empty("b");
        b.empty("b");
        b.close_element();
        let d = b.finish();
        // DOC(2) of the paper: root, a, b, b.
        assert_eq!(d.len(), 4);
        let a = d.document_element().unwrap();
        assert_eq!(d.name(a), Some("a"));
        assert_eq!(d.children(a).count(), 2);
        assert_eq!(d.subtree_end(a), 4);
        assert_eq!(d.subtree_end(NodeId::ROOT), 4);
    }

    #[test]
    fn adjacent_text_merged() {
        let mut b = DocumentBuilder::new();
        b.open_element("a");
        b.text("foo");
        b.text("bar");
        b.close_element();
        let d = b.finish();
        let a = d.document_element().unwrap();
        let kids: Vec<_> = d.children(a).collect();
        assert_eq!(kids.len(), 1);
        assert_eq!(d.value(kids[0]), Some("foobar"));
    }

    #[test]
    fn text_merge_after_nested_content_keeps_values_intact() {
        // A value-carrying node between two text() calls must prevent the
        // merge (the arena tail moved on).
        let mut b = DocumentBuilder::new();
        b.open_element("a");
        b.text("one");
        b.open_element("e");
        b.text("inner");
        b.close_element();
        b.text("two");
        b.text("three");
        b.close_element();
        let d = b.finish();
        let a = d.document_element().unwrap();
        let kids: Vec<_> = d.children(a).collect();
        assert_eq!(kids.len(), 3);
        assert_eq!(d.value(kids[0]), Some("one"));
        assert_eq!(d.value(kids[2]), Some("twothree"));
        let e = kids[1];
        assert_eq!(d.value(d.first_child(e).unwrap()), Some("inner"));
    }

    #[test]
    fn attributes_precede_content() {
        let mut b = DocumentBuilder::new();
        b.open_element("a");
        b.attribute("x", "1");
        b.attribute("y", "2");
        b.text("t");
        b.close_element();
        let d = b.finish();
        let a = d.document_element().unwrap();
        let kids: Vec<_> = d.children(a).collect();
        assert_eq!(kids.len(), 3);
        assert_eq!(d.kind(kids[0]), NodeKind::Attribute);
        assert_eq!(d.kind(kids[1]), NodeKind::Attribute);
        assert_eq!(d.kind(kids[2]), NodeKind::Text);
        assert_eq!(d.attribute(a, "y"), Some(kids[1]));
    }

    #[test]
    #[should_panic(expected = "attributes must precede content")]
    fn attribute_after_content_panics() {
        let mut b = DocumentBuilder::new();
        b.open_element("a");
        b.text("t");
        b.attribute("x", "1");
    }

    #[test]
    #[should_panic(expected = "unclosed")]
    fn unbalanced_finish_panics() {
        let mut b = DocumentBuilder::new();
        b.open_element("a");
        let _ = b.finish();
    }

    #[test]
    fn subtree_ranges_nested() {
        let mut b = DocumentBuilder::new();
        b.open_element("a"); // 1
        b.open_element("b"); // 2
        b.empty("c"); // 3
        b.close_element();
        b.empty("d"); // 4
        b.close_element();
        let d = b.finish();
        assert_eq!(d.subtree_end(NodeId(1)), 5);
        assert_eq!(d.subtree_end(NodeId(2)), 4);
        assert_eq!(d.subtree_end(NodeId(3)), 4);
        assert_eq!(d.subtree_end(NodeId(4)), 5);
        assert!(d.is_ancestor(NodeId(2), NodeId(3)));
        assert!(!d.is_ancestor(NodeId(2), NodeId(4)));
        assert!(!d.is_ancestor(NodeId(3), NodeId(2)));
    }

    #[test]
    fn namespace_nodes() {
        let mut b = DocumentBuilder::new();
        b.open_element("a");
        b.namespace("pre", "http://example.org/ns");
        b.empty("b");
        b.close_element();
        let d = b.finish();
        let a = d.document_element().unwrap();
        let kids: Vec<_> = d.children(a).collect();
        assert_eq!(d.kind(kids[0]), NodeKind::Namespace);
        assert_eq!(d.name(kids[0]), Some("pre"));
        assert_eq!(d.value(kids[0]), Some("http://example.org/ns"));
    }
}
