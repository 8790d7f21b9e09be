//! The document arena: tree storage, primitive relations, string values,
//! and ID/IDREF support (paper §3, §4, §10.2).
//!
//! # Storage layout
//!
//! The arena is fully **flat and relocatable**: one [`Arr`] per field
//! (structure of arrays), no pointers, no hash maps. Names live in one
//! contiguous byte arena addressed by an offset table, node values are
//! `(offset, length)` spans into a shared text arena, and the ID/IDREF
//! tables are sorted arrays resolved by binary search. Both backings —
//! `Owned` (parser/builder output) and `Mapped` (an mmap'd snapshot, see
//! [`crate::snap`]) — share this single accessor code path; the only
//! difference is where the bytes live.
//!
//! The tree itself is the primitive relations of Table I over preorder
//! ids (`NodeId.0`). Three are stored, one `u32` per node; the two the
//! paper builds its axes from are derived from them, because ids are
//! preorder ranks and attribute and namespace nodes sit in the same
//! sibling run as content children:
//!
//! | relation | meaning | [`NONE`] at | storage |
//! |---|---|---|---|
//! | `parent` | parent id | the root | stored |
//! | `prev_sibling` | `nextsibling⁻¹` | first siblings | stored |
//! | `subtree_end` | exclusive end of the preorder interval | — | stored |
//! | `first_child` | `firstchild` | leaves | derived: `n+1` if `n+1 < subtree_end(n)` |
//! | `next_sibling` | `nextsibling` | last siblings | derived: `subtree_end(n)` if `n` is not the root and `subtree_end(n) < subtree_end(parent(n))` |
//!
//! So the children of `n` are the interval hop `n+1`, `subtree_end(n+1)`,
//! … while below `subtree_end(n)` ([`Children`]), which reads one column
//! where a stored first-child/next-sibling walk read two.
//! `prev_sibling` stays stored: deriving it walks up to O(depth) steps.
//!
//! Beside the links sits the `special` bitset (one bit per id) marking
//! the attribute and namespace nodes that §4 filters out of every
//! non-dedicated axis, so the typed strip of a range-shaped axis result
//! is a word-parallel and-not. The set-at-a-time axis kernels of `xpath-axes` read these
//! arrays directly ([`Document::parent_ids`] … [`Document::special_words`]);
//! everything is built once by the [`DocumentBuilder`](crate::DocumentBuilder)
//! or mapped from a snapshot.
//!
//! The `ids`/`refs` tables and the per-node string-value cache are built
//! lazily on first use, so documents that never see an `id()`/`idref`
//! query never pay for them; snapshot loads arrive with the tables
//! prebuilt.

use std::sync::{Arc, OnceLock};

use crate::bytes::Arr;
use crate::node::{NodeId, NodeKind};

/// "No node" sentinel in the link arrays ([`Document::parent_ids`] and
/// friends) and in the name and value-offset columns.
pub const NONE: u32 = u32::MAX;

/// Interned node-name identifier. Comparing two `NameId`s is equivalent to
/// comparing the underlying names, in O(1).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NameId(pub u32);

/// The flat arenas of a document: one array per node field plus the text
/// and name arenas. Every array is an [`Arr`], so the whole structure is
/// O(1)-cloneable and backing-agnostic.
///
/// Invariants (guaranteed by the builder, checked by
/// [`crate::snap`]'s deep verifier for mapped data):
///
/// * all node arrays have the same length `n`; ids are preorder ranks;
/// * link entries are `< n` or [`NONE`]; `subtree_end` entries are `≤ n`;
/// * the intervals nest: every non-root `i` has `p = parent[i]` with
///   `p < i < subtree_end[p]` and `subtree_end[i] ≤ subtree_end[p]`, and
///   `p` is the innermost interval holding `i` — what the derived
///   `first_child`/`next_sibling` rely on;
/// * `prev_sibling[i]` is the previous node of `i`'s sibling run (the
///   interval hop from `parent[i] + 1`), or [`NONE`] for the first; so
///   `subtree_end[i]` is `i`'s right neighbour iff its `prev_sibling` is
///   `i`, the test the bulk `following-sibling` chains use;
/// * `special` is [`special_mask`] of `kind`;
/// * `value_off == NONE` means "no value"; otherwise
///   `value_off + value_len` is in bounds of `text` on char boundaries;
/// * `name_off` has `k + 1` monotone entries bounding `name_bytes`;
///   `name_sorted` permutes `0..k` into name-byte order.
#[derive(Clone)]
pub(crate) struct DocData {
    pub(crate) kind: Arr<u8>,
    pub(crate) name: Arr<u32>,
    pub(crate) value_off: Arr<u32>,
    pub(crate) value_len: Arr<u32>,
    pub(crate) parent: Arr<u32>,
    pub(crate) prev_sibling: Arr<u32>,
    pub(crate) subtree_end: Arr<u32>,
    /// Attribute/namespace bitset, one bit per id ([`special_mask`]).
    pub(crate) special: Arr<u64>,
    /// UTF-8 character arena holding every node value.
    pub(crate) text: Arr<u8>,
    /// Concatenated name strings (UTF-8).
    pub(crate) name_bytes: Arr<u8>,
    /// `k + 1` offsets into `name_bytes`; name `i` is
    /// `name_bytes[name_off[i]..name_off[i + 1]]`.
    pub(crate) name_off: Arr<u32>,
    /// The `NameId`s `0..k` sorted by name bytes (binary-search lookup).
    pub(crate) name_sorted: Arr<u32>,
}

/// The attribute/namespace bitset of a kind column: bit `i` is set iff
/// node `i` is an attribute or namespace node.
pub(crate) fn special_mask(kinds: &[u8]) -> Vec<u64> {
    let mut words = vec![0u64; kinds.len().div_ceil(64)];
    for (i, &k) in kinds.iter().enumerate() {
        if NodeKind::from_u8(k).is_some_and(NodeKind::is_special_child) {
            words[i / 64] |= 1 << (i % 64);
        }
    }
    words
}

/// Sorted ID table: `key_node[i]` is the attribute node whose value is
/// the ID string (the key bytes live in the text arena — no copies) and
/// `owner[i]` the element carrying it. Sorted by key bytes, deduplicated
/// first-wins in document order.
#[derive(Clone)]
pub(crate) struct IdTable {
    pub(crate) key_node: Arr<u32>,
    pub(crate) owner: Arr<u32>,
}

/// The binary `ref` relation of Theorem 10.7 as two parallel arrays
/// sorted by `(from, to)`, deduplicated.
#[derive(Clone)]
pub(crate) struct RefTable {
    pub(crate) from: Arr<u32>,
    pub(crate) to: Arr<u32>,
}

/// Which attributes carry element IDs.
///
/// The name-based `id_attributes` list is the fallback when no DTD is
/// present (DESIGN.md substitution 3); `scoped_id_attributes` pairs come
/// from `<!ATTLIST elem attr ID …>` declarations in a parsed DTD internal
/// subset (§4 of the paper grounds ID-ness in the DTD).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IdPolicy {
    /// Attribute names treated as ID attributes on *any* element.
    /// Default: `["id"]`.
    pub id_attributes: Vec<String>,
    /// `(element, attribute)` pairs treated as ID attributes only on the
    /// named element, as declared by a DTD. Default: empty.
    pub scoped_id_attributes: Vec<(String, String)>,
}

impl Default for IdPolicy {
    fn default() -> Self {
        IdPolicy { id_attributes: vec!["id".to_string()], scoped_id_attributes: Vec::new() }
    }
}

impl IdPolicy {
    /// A policy with no ID attributes at all (useful as the base when a DTD
    /// is expected to declare them).
    pub fn none() -> IdPolicy {
        IdPolicy { id_attributes: Vec::new(), scoped_id_attributes: Vec::new() }
    }

    /// Does an attribute named `attr` on an element named `elem` carry an ID?
    pub fn is_id(&self, elem: &str, attr: &str) -> bool {
        self.id_attributes.iter().any(|a| a == attr)
            || self.scoped_id_attributes.iter().any(|(e, a)| e == elem && a == attr)
    }
}

/// An immutable XML document tree in the XPath data model.
///
/// Nodes are stored in flat arenas in document order, so [`NodeId`]
/// comparison is the `<doc` relation of §4. Construct documents with
/// [`DocumentBuilder`](crate::DocumentBuilder),
/// [`Document::parse_str`](crate::Document::parse_str), or load an
/// mmap-backed one from a snapshot (see [`crate::snap`]).
pub struct Document {
    pub(crate) data: DocData,
    id_policy: IdPolicy,
    /// The parsed DTD internal subset, if the document declared one.
    /// Not carried by snapshots: its ID effects are already folded into
    /// `id_policy` and the prebuilt id/ref tables.
    dtd: Option<crate::dtd::Dtd>,
    /// Whether the arenas view an mmap'd snapshot region.
    mapped: bool,
    /// Lazily computed string values (paper `strval`, §4). The outer
    /// cell defers the O(n) table allocation to first use.
    strvals: OnceLock<Box<[OnceLock<Box<str>>]>>,
    /// Lazily built ID table (`id()` support). Prefilled on snapshot load.
    ids: OnceLock<IdTable>,
    /// Lazily built `ref` relation. Prefilled on snapshot load.
    refs: OnceLock<RefTable>,
}

impl std::fmt::Debug for Document {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let backing = if self.mapped { "mapped" } else { "owned" };
        write!(f, "Document({} nodes, {backing})", self.len())
    }
}

impl Document {
    pub(crate) fn from_parts(data: DocData, id_policy: IdPolicy) -> Document {
        Document {
            data,
            id_policy,
            dtd: None,
            mapped: false,
            strvals: OnceLock::new(),
            ids: OnceLock::new(),
            refs: OnceLock::new(),
        }
    }

    /// Assemble a document from snapshot sections: arenas plus the
    /// prebuilt id/ref tables (serialized eagerly at snapshot-write time
    /// so nothing is recomputed on load).
    pub(crate) fn from_storage(
        data: DocData,
        id_policy: IdPolicy,
        ids: IdTable,
        refs: RefTable,
        mapped: bool,
    ) -> Document {
        let doc = Document {
            data,
            id_policy,
            dtd: None,
            mapped,
            strvals: OnceLock::new(),
            ids: OnceLock::new(),
            refs: OnceLock::new(),
        };
        let _ = doc.ids.set(ids);
        let _ = doc.refs.set(refs);
        doc
    }

    /// Attach a parsed DTD (used by the parser after construction; the ID
    /// policy derived from the DTD is already folded in at this point).
    pub(crate) fn set_dtd(&mut self, dtd: crate::dtd::Dtd) {
        self.dtd = Some(dtd);
    }

    /// The DTD internal subset declared by the document, if any. Always
    /// `None` for snapshot-loaded documents (the DTD's ID effects are
    /// carried by the serialized policy and tables instead).
    pub fn dtd(&self) -> Option<&crate::dtd::Dtd> {
        self.dtd.as_ref()
    }

    /// Whether this document's arenas view an mmap'd snapshot (vs. being
    /// heap-owned by this process).
    pub fn is_mapped(&self) -> bool {
        self.mapped
    }

    /// Total bytes of the in-memory arenas, including whichever lazy
    /// id/ref tables have been built. The
    /// yardstick for the "snapshot ≤ 2× in-memory size" bench guard.
    pub fn resident_bytes(&self) -> usize {
        let d = &self.data;
        let mut total = d.kind.byte_len()
            + d.name.byte_len()
            + d.value_off.byte_len()
            + d.value_len.byte_len()
            + d.parent.byte_len()
            + d.prev_sibling.byte_len()
            + d.subtree_end.byte_len()
            + d.special.byte_len()
            + d.text.byte_len()
            + d.name_bytes.byte_len()
            + d.name_off.byte_len()
            + d.name_sorted.byte_len();
        if let Some(t) = self.ids.get() {
            total += t.key_node.byte_len() + t.owner.byte_len();
        }
        if let Some(t) = self.refs.get() {
            total += t.from.byte_len() + t.to.byte_len();
        }
        total
    }

    /// Number of nodes in the document (`|dom|`).
    #[inline]
    pub fn len(&self) -> usize {
        self.data.kind.len()
    }

    /// A document always contains at least the root node.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// All node ids in document order.
    pub fn all_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.len() as u32).map(NodeId)
    }

    /// The root node (type `Root`).
    #[inline]
    pub fn root(&self) -> NodeId {
        NodeId::ROOT
    }

    /// The document element (the unique element child of the root), if any.
    pub fn document_element(&self) -> Option<NodeId> {
        self.children(NodeId::ROOT).find(|&c| self.kind(c) == NodeKind::Element)
    }

    /// A stored backward link (`parent`, `prev_sibling`): every valid one
    /// points to an earlier id, so [`NONE`] and a damaged link in a
    /// quick-opened snapshot both read as `None`, and every chain of
    /// calls ends.
    #[inline]
    fn link(arr: &Arr<u32>, n: NodeId) -> Option<NodeId> {
        let v = arr.as_slice()[n.index()];
        (v < n.0).then_some(NodeId(v))
    }

    /// The node's kind.
    #[inline]
    pub fn kind(&self, n: NodeId) -> NodeKind {
        // An out-of-range byte can only come from corrupt unverified
        // snapshot data; map it to the inert nameless/valueless kind
        // rather than panicking (deep verification rejects it properly).
        NodeKind::from_u8(self.data.kind.as_slice()[n.index()]).unwrap_or(NodeKind::Comment)
    }

    /// Every node's kind byte (`NodeKind as u8`), in document order: the
    /// column a node-test scan compares instead of calling [`Self::kind`]
    /// per node.
    #[inline]
    pub fn kind_bytes(&self) -> &[u8] {
        self.data.kind.as_slice()
    }

    /// Every node's raw interned name id (`NameId.0`, `u32::MAX` for a
    /// nameless node), in document order: the column a node-test scan
    /// compares instead of calling [`Self::name_id`] per node.
    #[inline]
    pub fn name_ids(&self) -> &[u32] {
        self.data.name.as_slice()
    }

    /// Every node's parent id ([`NONE`] for the root), in document
    /// order: the `parent` link array the axis kernels walk.
    #[inline]
    pub fn parent_ids(&self) -> &[u32] {
        self.data.parent.as_slice()
    }

    /// Every node's previous sibling id ([`NONE`] for a first sibling),
    /// in document order (`nextsibling⁻¹` as an array).
    #[inline]
    pub fn prev_sibling_ids(&self) -> &[u32] {
        self.data.prev_sibling.as_slice()
    }

    /// Every node's [`Self::subtree_end`], in document order: the column
    /// `firstchild` and `nextsibling` are derived from ([`Children`]).
    #[inline]
    pub fn subtree_ends(&self) -> &[u32] {
        self.data.subtree_end.as_slice()
    }

    /// The attribute/namespace bitset, one bit per id (`len().div_ceil(64)`
    /// words): the mask the axis kernels subtract for §4 type filtering.
    #[inline]
    pub fn special_words(&self) -> &[u64] {
        self.data.special.as_slice()
    }

    /// The node's interned name, if it has one.
    #[inline]
    pub fn name_id(&self, n: NodeId) -> Option<NameId> {
        let v = self.data.name.as_slice()[n.index()];
        (v != NONE).then_some(NameId(v))
    }

    /// The name bytes of interned name `id` (empty on out-of-range ids,
    /// which only corrupt unverified snapshots can produce).
    #[inline]
    fn name_bytes_of(&self, id: u32) -> &[u8] {
        let offs = self.data.name_off.as_slice();
        let (Some(&lo), Some(&hi)) = (offs.get(id as usize), offs.get(id as usize + 1)) else {
            return &[];
        };
        self.data.name_bytes.as_slice().get(lo as usize..hi as usize).unwrap_or(&[])
    }

    /// The node's name as a string, if it has one.
    pub fn name(&self, n: NodeId) -> Option<&str> {
        let id = self.name_id(n)?;
        std::str::from_utf8(self.name_bytes_of(id.0)).ok()
    }

    /// Look up an interned name without creating it. Queries intern their
    /// node-test names through this; a miss means no node matches.
    /// Binary search over the sorted name table.
    pub fn lookup_name(&self, name: &str) -> Option<NameId> {
        let sorted = self.data.name_sorted.as_slice();
        let target = name.as_bytes();
        let i = sorted.binary_search_by(|&id| self.name_bytes_of(id).cmp(target)).ok()?;
        Some(NameId(sorted[i]))
    }

    /// The value span of `n` in the text arena, as raw bytes.
    #[inline]
    fn value_bytes(&self, n: NodeId) -> Option<&[u8]> {
        let off = self.data.value_off.as_slice()[n.index()];
        if off == NONE {
            return None;
        }
        let len = self.data.value_len.as_slice()[n.index()];
        let lo = off as usize;
        let hi = lo.checked_add(len as usize)?;
        self.data.text.as_slice().get(lo..hi)
    }

    /// The raw character content of text/comment/attribute/namespace/PI nodes.
    pub fn value(&self, n: NodeId) -> Option<&str> {
        std::str::from_utf8(self.value_bytes(n)?).ok()
    }

    // ----- primitive relations (Table I) and their inverses -----

    /// `firstchild` primitive: the first child in document order, or `None`.
    /// Includes attribute/namespace children of the abstract tree (§4).
    /// Derived: `n+1` if it lies inside `n`'s interval.
    #[inline]
    pub fn first_child(&self, n: NodeId) -> Option<NodeId> {
        self.children(n).next()
    }

    /// `nextsibling` primitive: the right neighbour, or `None`. Derived:
    /// `subtree_end(n)` if it lies inside the parent's interval. Always
    /// greater than `n`, so a chain of calls ends even on damaged data.
    #[inline]
    pub fn next_sibling(&self, n: NodeId) -> Option<NodeId> {
        let se = self.subtree_ends();
        let e = se[n.index()];
        (e > n.0 && e < self.parent_end(n)).then_some(NodeId(e))
    }

    /// The exclusive end of `n`'s sibling run: its parent's subtree end,
    /// clamped to `len()`; 0 for the root (and for a parent link that
    /// points outside the document, which only damaged data holds).
    #[inline]
    fn parent_end(&self, n: NodeId) -> u32 {
        let se = self.subtree_ends();
        let p = self.parent_ids()[n.index()];
        se.get(p as usize).map_or(0, |&e| e.min(se.len() as u32))
    }

    /// `nextsibling⁻¹`: the left neighbour, or `None` (also for a link
    /// that does not point back, which only damaged data holds).
    #[inline]
    pub fn prev_sibling(&self, n: NodeId) -> Option<NodeId> {
        Self::link(&self.data.prev_sibling, n)
    }

    /// The parent node (`(nextsibling⁻¹)*.firstchild⁻¹`), or `None` for root
    /// (and for a link that does not point back, which only damaged data
    /// holds).
    #[inline]
    pub fn parent(&self, n: NodeId) -> Option<NodeId> {
        Self::link(&self.data.parent, n)
    }

    /// `firstchild⁻¹`: `Some(parent)` iff `n` is the first child of its parent.
    #[inline]
    pub fn first_child_inverse(&self, n: NodeId) -> Option<NodeId> {
        if self.data.prev_sibling.as_slice()[n.index()] == NONE {
            self.parent(n)
        } else {
            None
        }
    }

    /// Exclusive end of the subtree of `n` in id space: every descendant `d`
    /// of `n` satisfies `n < d` and `d.0 < subtree_end(n)`. Clamped to
    /// [`Self::len`], so a range up to it stays in bounds even on a
    /// damaged quick-opened snapshot.
    #[inline]
    pub fn subtree_end(&self, n: NodeId) -> u32 {
        self.data.subtree_end.as_slice()[n.index()].min(self.len() as u32)
    }

    /// O(1) ancestor test via preorder ranges: is `a` a strict ancestor of `d`?
    #[inline]
    pub fn is_ancestor(&self, a: NodeId, d: NodeId) -> bool {
        a < d && d.0 < self.subtree_end(a)
    }

    /// Iterate the children of `n` (abstract tree: includes attributes and
    /// namespace nodes, which precede content children).
    #[inline]
    pub fn children(&self, n: NodeId) -> Children<'_> {
        let se = self.subtree_ends();
        Children::hop(se, n.0 + 1, se[n.index()])
    }

    /// Iterate the siblings after `n` in document order (abstract tree:
    /// an attribute's run continues through the content children).
    #[inline]
    pub fn following_siblings(&self, n: NodeId) -> Children<'_> {
        let se = self.subtree_ends();
        Children::hop(se, se[n.index()], self.parent_end(n))
    }

    /// Iterate only the attribute children of `n`.
    pub fn attributes(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.children(n).filter(|&c| self.kind(c) == NodeKind::Attribute)
    }

    /// Iterate only the content (non-attribute, non-namespace) children.
    pub fn content_children(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.children(n).filter(|&c| !self.kind(c).is_special_child())
    }

    /// Find an attribute of element `n` by name.
    pub fn attribute(&self, n: NodeId, name: &str) -> Option<NodeId> {
        let name_id = self.lookup_name(name)?;
        self.attributes(n).find(|&a| self.name_id(a) == Some(name_id))
    }

    /// Depth of `n` (root has depth 0).
    pub fn depth(&self, n: NodeId) -> usize {
        let mut d = 0;
        let mut cur = n;
        while let Some(p) = self.parent(cur) {
            d += 1;
            cur = p;
        }
        d
    }

    // ----- string values (paper `strval`, §4) -----

    /// The string value of a node. For element and root nodes this is the
    /// concatenation of the string values of descendant text nodes in
    /// document order, cached per node because `strval(root)` is O(|D|);
    /// the cache table itself is allocated on first use. The other kinds
    /// return their character content straight from the text arena and
    /// leave the cache untouched.
    pub fn string_value(&self, n: NodeId) -> &str {
        if !matches!(self.kind(n), NodeKind::Element | NodeKind::Root) {
            return self.value(n).unwrap_or("");
        }
        let table = self.strvals.get_or_init(|| {
            (0..self.len()).map(|_| OnceLock::new()).collect::<Vec<_>>().into_boxed_slice()
        });
        table[n.index()].get_or_init(|| {
            let mut out = String::new();
            // Descendants of n are the id range (n, subtree_end(n)).
            for i in (n.0 + 1)..self.subtree_end(n) {
                let d = NodeId(i);
                if self.kind(d) == NodeKind::Text {
                    // Text nodes inside attribute values don't exist; all
                    // text in the range belongs to the element content.
                    out.push_str(self.value(d).unwrap_or(""));
                }
            }
            out.into_boxed_str()
        })
    }

    // ----- ID / IDREF (paper §4 `deref_ids`, §10.2 `ref`) -----

    /// The ID table, built on first use (snapshot loads prefill it).
    pub(crate) fn id_table(&self) -> &IdTable {
        self.ids.get_or_init(|| self.build_id_table())
    }

    fn build_id_table(&self) -> IdTable {
        // (attribute node, owner element) for every policy-matching
        // attribute; the key bytes are the attribute's value span.
        let mut entries: Vec<(u32, u32)> = Vec::new();
        for i in 0..self.len() as u32 {
            let n = NodeId(i);
            if self.kind(n) != NodeKind::Attribute {
                continue;
            }
            let Some(name) = self.name(n) else { continue };
            let Some(owner) = self.parent(n) else { continue };
            let owner_name = self.name(owner).unwrap_or("");
            if !self.id_policy.is_id(owner_name, name) {
                continue;
            }
            if self.value_bytes(n).is_some() {
                entries.push((i, owner.0));
            }
        }
        // Sort by key bytes with attribute id as tiebreak, then keep the
        // first (document-order) entry per key — the same first-wins
        // semantics the old HashMap `entry().or_insert()` pass had.
        entries.sort_by(|a, b| {
            let ka = self.value_bytes(NodeId(a.0)).unwrap_or(&[]);
            let kb = self.value_bytes(NodeId(b.0)).unwrap_or(&[]);
            ka.cmp(kb).then(a.0.cmp(&b.0))
        });
        entries.dedup_by(|b, a| {
            self.value_bytes(NodeId(a.0)).unwrap_or(&[])
                == self.value_bytes(NodeId(b.0)).unwrap_or(&[])
        });
        IdTable {
            key_node: Arr::from_vec(entries.iter().map(|e| e.0).collect()),
            owner: Arr::from_vec(entries.iter().map(|e| e.1).collect()),
        }
    }

    /// The `ref` table, built on first use (snapshot loads prefill it).
    pub(crate) fn ref_table(&self) -> &RefTable {
        self.refs.get_or_init(|| self.build_ref_table())
    }

    fn build_ref_table(&self) -> RefTable {
        // Theorem 10.7: ref contains (x, y) iff the text *directly* inside x
        // contains a whitespace-separated token referencing the id of y.
        let mut pairs = Vec::new();
        for i in 0..self.len() as u32 {
            let n = NodeId(i);
            if self.kind(n) != NodeKind::Text {
                continue;
            }
            let Some(owner) = self.parent(n) else { continue };
            let content = self.value(n).unwrap_or("");
            for tok in content.split_whitespace() {
                if let Some(target) = self.element_by_id(tok) {
                    pairs.push((owner.0, target.0));
                }
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        RefTable {
            from: Arr::from_vec(pairs.iter().map(|p| p.0).collect()),
            to: Arr::from_vec(pairs.iter().map(|p| p.1).collect()),
        }
    }

    /// The element with the given ID, if any. Binary search over the
    /// sorted ID table.
    pub fn element_by_id(&self, id: &str) -> Option<NodeId> {
        let t = self.id_table();
        let keys = t.key_node.as_slice();
        let i = keys
            .binary_search_by(|&a| self.value_bytes(NodeId(a)).unwrap_or(&[]).cmp(id.as_bytes()))
            .ok()?;
        Some(NodeId(t.owner.as_slice()[i]))
    }

    /// `deref_ids` (§4): interpret the string as a whitespace-separated list
    /// of keys and return the set of nodes whose ids are contained in it, in
    /// document order.
    pub fn deref_ids(&self, s: &str) -> Vec<NodeId> {
        let mut out: Vec<NodeId> =
            s.split_whitespace().filter_map(|t| self.element_by_id(t)).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The `ref` relation of Theorem 10.7 as a sorted view, built on
    /// first use (sorted by first component, then second).
    pub fn refs(&self) -> Refs<'_> {
        let t = self.ref_table();
        Refs { from: t.from.as_slice(), to: t.to.as_slice() }
    }

    /// The ID policy this document was indexed with.
    pub fn id_policy(&self) -> &IdPolicy {
        &self.id_policy
    }

    /// The value of the `xml:lang` attribute in scope at `n`, if any
    /// (nearest ancestor-or-self element carrying it).
    pub fn lang(&self, n: NodeId) -> Option<&str> {
        let mut cur = Some(n);
        while let Some(c) = cur {
            if self.kind(c) == NodeKind::Element {
                if let Some(a) = self.attribute(c, "xml:lang") {
                    return self.value(a);
                }
            }
            cur = self.parent(c);
        }
        None
    }

    /// Serialize the subtree at `n` back to XML text (for debugging,
    /// examples and round-trip tests).
    pub fn serialize(&self, n: NodeId) -> String {
        let mut out = String::new();
        self.serialize_into(n, &mut out);
        out
    }

    fn serialize_into(&self, n: NodeId, out: &mut String) {
        match self.kind(n) {
            NodeKind::Root => {
                for c in self.content_children(n) {
                    self.serialize_into(c, out);
                }
            }
            NodeKind::Element => {
                out.push('<');
                out.push_str(self.name(n).unwrap_or("?"));
                for a in self.attributes(n) {
                    out.push(' ');
                    out.push_str(self.name(a).unwrap_or("?"));
                    out.push_str("=\"");
                    escape_into(self.value(a).unwrap_or(""), true, out);
                    out.push('"');
                }
                let mut content = self.content_children(n).peekable();
                if content.peek().is_none() {
                    out.push_str("/>");
                } else {
                    out.push('>');
                    for c in content {
                        self.serialize_into(c, out);
                    }
                    out.push_str("</");
                    out.push_str(self.name(n).unwrap_or("?"));
                    out.push('>');
                }
            }
            NodeKind::Text => escape_into(self.value(n).unwrap_or(""), false, out),
            NodeKind::Comment => {
                out.push_str("<!--");
                out.push_str(self.value(n).unwrap_or(""));
                out.push_str("-->");
            }
            NodeKind::ProcessingInstruction => {
                out.push_str("<?");
                out.push_str(self.name(n).unwrap_or("?"));
                if let Some(v) = self.value(n) {
                    if !v.is_empty() {
                        out.push(' ');
                        out.push_str(v);
                    }
                }
                out.push_str("?>");
            }
            NodeKind::Attribute | NodeKind::Namespace => {}
        }
    }
}

/// Escape `&`, `<`, `>` (and quotes inside attribute values).
fn escape_into(s: &str, attr: bool, out: &mut String) {
    for ch in s.chars() {
        match ch {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' if attr => out.push_str("&quot;"),
            c => out.push(c),
        }
    }
}

/// Borrowed view of the `ref` relation (Theorem 10.7): pairs `(x, y)`
/// sorted by `x` then `y`, iterated in that order.
#[derive(Clone, Copy, Debug)]
pub struct Refs<'d> {
    from: &'d [u32],
    to: &'d [u32],
}

impl Refs<'_> {
    /// Number of pairs.
    #[inline]
    pub fn len(&self) -> usize {
        self.from.len()
    }

    /// Whether the relation is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.from.is_empty()
    }

    /// The `i`-th pair in sorted order.
    #[inline]
    pub fn get(&self, i: usize) -> (NodeId, NodeId) {
        (NodeId(self.from[i]), NodeId(self.to[i]))
    }

    /// Iterate all pairs in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.from.iter().zip(self.to.iter()).map(|(&x, &y)| (NodeId(x), NodeId(y)))
    }

    /// The targets `y` of every pair `(x, y)` with `lo ≤ x < hi`, in pair
    /// order — one contiguous range of the `from`-sorted relation, found
    /// by two binary searches.
    pub fn targets_in(&self, lo: u32, hi: u32) -> impl Iterator<Item = NodeId> + '_ {
        let a = self.from.partition_point(|&x| x < lo);
        let b = a + self.from[a..].partition_point(|&x| x < hi);
        self.to[a..b].iter().map(|&y| NodeId(y))
    }

    /// Membership test (binary search over the sorted pair arrays).
    pub fn contains(&self, pair: &(NodeId, NodeId)) -> bool {
        let lo = self.from.partition_point(|&x| x < pair.0 .0);
        let hi = self.from.partition_point(|&x| x <= pair.0 .0);
        self.to[lo..hi].binary_search(&pair.1 .0).is_ok()
    }
}

/// Iterator over a run of siblings — the children of a node
/// ([`Document::children`]) or the siblings after one
/// ([`Document::following_siblings`]) — as the interval hop over the
/// subtree-end column: `c`, `subtree_end(c)`, … while below the parent's
/// end, which the iterator keeps, so a step reads one column.
///
/// Every walk ends in bounds whatever the column holds (a quick-opened
/// snapshot is not checked for tree invariants): the end is clamped to
/// the column's length once, and a hop that does not advance ends the
/// walk.
#[derive(Clone, Debug)]
pub struct Children<'d> {
    subtree_ends: &'d [u32],
    next: u32,
    end: u32,
}

impl<'d> Children<'d> {
    /// The hop over `subtree_ends` ([`Document::subtree_ends`]) from
    /// `first` while below `end`, the exclusive end of the parent's
    /// interval.
    #[inline]
    pub(crate) fn hop(subtree_ends: &'d [u32], first: u32, end: u32) -> Children<'d> {
        Children { subtree_ends, next: first, end: end.min(subtree_ends.len() as u32) }
    }
}

impl Iterator for Children<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        let c = self.next;
        if c >= self.end {
            return None;
        }
        let hop = self.subtree_ends[c as usize];
        // A non-advancing hop (damaged data only) ends the walk. The test
        // updates `end`, not `next`, so the hop chain itself carries no
        // extra operation.
        if hop <= c {
            self.end = 0;
        }
        self.next = hop;
        Some(NodeId(c))
    }
}

/// Assert `Document` stays shareable across threads in both backings.
#[allow(dead_code)]
fn assert_document_send_sync() {
    fn check<T: Send + Sync>() {}
    check::<Document>();
    check::<Arc<Document>>();
}

#[cfg(test)]
mod tests {
    use super::NONE;
    use crate::generate::{doc_bookstore, doc_figure8, doc_random, RandomDocConfig};
    use crate::{Document, NodeId, NodeKind};

    fn doc() -> Document {
        Document::parse_str(
            r#"<a id="10"><b id="11"><c id="12">21 22</c><c id="13">23 24</c><d id="14">100</d></b><b id="21"><c id="22">11 12</c><d id="23">13 14</d><d id="24">100</d></b></a>"#,
        )
        .unwrap()
    }

    #[test]
    fn figure8_structure() {
        let d = doc();
        // root + a + 2 b's + 6 leaves = 10 elements, plus 10 id attributes
        // and 6 text nodes = 26 nodes.
        let elements = d.all_nodes().filter(|&n| d.kind(n) == NodeKind::Element).count();
        assert_eq!(elements, 9);
        let attrs = d.all_nodes().filter(|&n| d.kind(n) == NodeKind::Attribute).count();
        assert_eq!(attrs, 9);
        let texts = d.all_nodes().filter(|&n| d.kind(n) == NodeKind::Text).count();
        assert_eq!(texts, 6);
        assert_eq!(d.len(), 1 + 9 + 9 + 6);
    }

    #[test]
    fn string_values_match_example_8_1() {
        let d = doc();
        let x11 = d.element_by_id("11").unwrap();
        assert_eq!(d.string_value(x11), "21 2223 24100");
        let x12 = d.element_by_id("12").unwrap();
        assert_eq!(d.string_value(x12), "21 22");
        let x24 = d.element_by_id("24").unwrap();
        assert_eq!(d.string_value(x24), "100");
        let x10 = d.element_by_id("10").unwrap();
        assert_eq!(d.string_value(x10), d.string_value(d.root()));
    }

    #[test]
    fn non_element_string_values_skip_the_cache() {
        let d = Document::parse_str(r#"<a x="1"><b>t</b><!--c--></a>"#).unwrap();
        let x = d.all_nodes().find(|&n| d.kind(n) == NodeKind::Attribute).unwrap();
        assert_eq!(d.string_value(x), "1");
        let leaves =
            d.all_nodes().filter(|&n| !matches!(d.kind(n), NodeKind::Element | NodeKind::Root));
        assert!(leaves.into_iter().all(|n| d.string_value(n) == d.value(n).unwrap_or("")));
        assert!(d.strvals.get().is_none(), "non-element reads leave the cache unallocated");
        assert_eq!(d.string_value(d.root()), "t");
        assert!(d.strvals.get().is_some());
    }

    #[test]
    fn ids_and_deref() {
        let d = doc();
        assert!(d.element_by_id("10").is_some());
        assert!(d.element_by_id("99").is_none());
        let set = d.deref_ids("12 24 nope 12");
        assert_eq!(set.len(), 2);
        assert_eq!(set[0], d.element_by_id("12").unwrap());
        assert_eq!(set[1], d.element_by_id("24").unwrap());
    }

    #[test]
    fn duplicate_ids_first_wins() {
        let d = Document::parse_str(r#"<a><b id="x">1</b><c id="x">2</c></a>"#).unwrap();
        let hit = d.element_by_id("x").unwrap();
        assert_eq!(d.name(hit), Some("b"));
    }

    #[test]
    fn ref_relation_theorem_10_7() {
        // The paper's example: <t id=1> 3 <t id=2> 1 </t> <t id=3> 1 2 </t> </t>
        // gives ref = {(n1,n3),(n2,n1),(n3,n1),(n3,n2)}.
        let d = Document::parse_str(r#"<t id="1"> 3 <t id="2"> 1 </t> <t id="3"> 1 2 </t> </t>"#)
            .unwrap();
        let n1 = d.element_by_id("1").unwrap();
        let n2 = d.element_by_id("2").unwrap();
        let n3 = d.element_by_id("3").unwrap();
        let mut expect = vec![(n1, n3), (n2, n1), (n3, n1), (n3, n2)];
        expect.sort_unstable();
        let got: Vec<_> = d.refs().iter().collect();
        assert_eq!(got, expect);
        for p in &expect {
            assert!(d.refs().contains(p));
        }
        assert!(!d.refs().contains(&(n1, n2)));
        assert_eq!(d.refs().get(0), expect[0]);
    }

    #[test]
    fn parent_child_links_consistent() {
        let d = doc();
        for n in d.all_nodes() {
            for c in d.children(n) {
                assert_eq!(d.parent(c), Some(n));
                assert!(d.is_ancestor(n, c));
            }
            if let Some(fc) = d.first_child(n) {
                assert_eq!(d.first_child_inverse(fc), Some(n));
                assert_eq!(d.prev_sibling(fc), None);
            }
            if let Some(ns) = d.next_sibling(n) {
                assert_eq!(d.prev_sibling(ns), Some(n));
            }
        }
    }

    #[test]
    fn document_order_is_id_order() {
        let d = doc();
        // Every child has a larger id than its parent; siblings increase.
        for n in d.all_nodes() {
            for c in d.children(n) {
                assert!(n < c);
            }
            let kids: Vec<_> = d.children(n).collect();
            for w in kids.windows(2) {
                assert!(w[0] < w[1]);
            }
        }
    }

    #[test]
    fn serialize_roundtrip() {
        let d = doc();
        let text = d.serialize(d.root());
        let d2 = Document::parse_str(&text).unwrap();
        assert_eq!(d2.len(), d.len());
        assert_eq!(d2.serialize(d2.root()), text);
    }

    #[test]
    fn lang_scoping() {
        let d =
            Document::parse_str(r#"<a xml:lang="en"><b/><c xml:lang="de"><d/></c></a>"#).unwrap();
        let a = d.document_element().unwrap();
        let b = d.content_children(a).next().unwrap();
        assert_eq!(d.lang(b), Some("en"));
        let c = d.content_children(a).nth(1).unwrap();
        let inner = d.content_children(c).next().unwrap();
        assert_eq!(d.lang(inner), Some("de"));
        assert_eq!(d.lang(d.root()), None);
    }

    #[test]
    fn name_lookup_via_sorted_table() {
        let d = doc();
        assert!(d.lookup_name("a").is_some());
        assert!(d.lookup_name("b").is_some());
        assert!(d.lookup_name("id").is_some());
        assert!(d.lookup_name("nope").is_none());
        assert!(d.lookup_name("").is_none());
        let a = d.document_element().unwrap();
        assert_eq!(d.name_id(a), d.lookup_name("a"));
    }

    #[test]
    fn arrays_mirror_pointer_links() {
        let mut docs = vec![doc_figure8(), doc_bookstore()];
        for seed in 0..4 {
            let cfg = RandomDocConfig { elements: 60, ..RandomDocConfig::default() };
            docs.push(doc_random(seed, &cfg));
        }
        for d in &docs {
            let opt = |x: Option<NodeId>| x.map_or(NONE, |n| n.0);
            let links = [d.parent_ids(), d.prev_sibling_ids(), d.subtree_ends()];
            assert!(links.iter().all(|arr| arr.len() == d.len()));
            for id in d.all_nodes() {
                let i = id.index();
                assert_eq!(d.parent_ids()[i], opt(d.parent(id)));
                assert_eq!(d.prev_sibling_ids()[i], opt(d.prev_sibling(id)));
                assert_eq!(d.subtree_ends()[i], d.subtree_end(id));
                // The derived links invert the stored ones: `firstchild`
                // is the child without a left neighbour, `nextsibling`
                // is `nextsibling⁻¹` read backwards.
                match d.first_child(id) {
                    Some(c) => {
                        assert_eq!((d.parent(c), d.prev_sibling(c)), (Some(id), None));
                    }
                    None => assert!(d.all_nodes().all(|c| d.parent(c) != Some(id))),
                }
                if let Some(s) = d.next_sibling(id) {
                    assert_eq!(d.prev_sibling(s), Some(id));
                }
                if let Some(p) = d.prev_sibling(id) {
                    assert_eq!(d.next_sibling(p), Some(id));
                }
                let after: Vec<NodeId> = d.following_siblings(id).collect();
                let chain: Vec<NodeId> =
                    std::iter::successors(d.next_sibling(id), |&s| d.next_sibling(s)).collect();
                assert_eq!(after, chain);
            }
        }
    }

    #[test]
    fn special_marks_attributes_and_namespaces() {
        let d = doc_figure8();
        let words = d.special_words();
        assert_eq!(words.len(), d.len().div_ceil(64));
        for id in d.all_nodes() {
            assert_eq!(
                words[id.index() / 64] >> (id.0 % 64) & 1 == 1,
                matches!(d.kind(id), NodeKind::Attribute | NodeKind::Namespace)
            );
        }
    }
}
