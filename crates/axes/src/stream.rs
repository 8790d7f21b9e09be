//! Resumable, early-exit axis expansion for the lazy cursor layer
//! (`xpath_core::cursor`).
//!
//! Every **forward** axis is *preorder-monotone*: each output id is ≥ its
//! input id (`self` maps a node to itself; `child`, `descendant`,
//! `following`, `following-sibling`, `attribute` and `namespace` all
//! produce nodes strictly after their input in document order). So a
//! pipeline of forward steps can be evaluated **block-synchronously**
//! over the id space: once every input with id `< hi` has been fed, the
//! outputs with id `< hi` are final — no later input can add one.
//!
//! A [`StepStreamer`] is the resumable per-step kernel behind that
//! invariant: it accepts input nodes one at a time **in ascending id
//! order** and accumulates the raw axis image into a dense word-block
//! set, using exactly the same staircase / chain-walk routes as the
//! materializing kernels in [`crate::bulk`] (covered-interval skipping
//! via the `next_free` watermark, marked-chain early exit, inline
//! special-child filtering on `child`). The cursor layer then reads one
//! `[lo, hi)` word-block window at a time, applies the §4 type strip and
//! the node test per block, and stops pulling as soon as its caller is
//! satisfied — the early-exit path never pays for document regions past
//! the last block it needed.
//!
//! Reverse axes are not preorder-monotone (an `ancestor` output precedes
//! its input), so they are not streamable here; the cursor layer
//! materializes those spines instead ([`is_streamable`] is the gate, and
//! the analyzer's verdict surfaces in `xpq --explain`).

use xpath_syntax::Axis;
use xpath_xml::{Document, NodeId, NodeKind, NodeSet};

use crate::bulk::is_special;

/// Can a forward spine step over `axis` be evaluated block-synchronously
/// (every output id ≥ the input id)? Reverse axes, `parent` (output
/// *precedes* input), and the `id` axis (targets anywhere in the
/// document) are not.
pub fn is_streamable(axis: Axis) -> bool {
    matches!(
        axis,
        Axis::SelfAxis
            | Axis::Child
            | Axis::Attribute
            | Axis::Namespace
            | Axis::Descendant
            | Axis::DescendantOrSelf
            | Axis::Following
            | Axis::FollowingSibling
    )
}

/// Resumable set-at-a-time expansion of one forward axis: feed input
/// nodes in ascending id order with [`StepStreamer::push`]; after every
/// input `< hi` has been pushed, `expanded() ∩ [0, hi)` is the final
/// (untyped, except `child`/`attribute`/`namespace`'s inline filtering)
/// axis image below `hi` — the block-synchronous invariant the lazy
/// cursor pipeline is built on.
///
/// The accumulated image is a dense bitset (pooled words, recycled on
/// drop); interval axes write word-parallel range fills, the child and
/// sibling axes walk the same interval hops as [`crate::bulk::axis_set`]
/// ([`Document::children`], [`Document::following_siblings`]), with the
/// same early exits.
#[derive(Clone, Debug)]
pub struct StepStreamer {
    axis: Axis,
    expanded: NodeSet,
    /// Staircase watermark for `descendant`/`descendant-or-self`:
    /// covered subtree intervals are skipped exactly as in the bulk
    /// kernel (inputs arrive ascending, so nested subtrees are always
    /// covered by the time they arrive).
    next_free: u32,
    /// Current low bound of the `following` image `[follow_lo, n)`;
    /// starts at `n` (empty) and only ever decreases.
    follow_lo: u32,
}

impl StepStreamer {
    /// A streamer for `axis` over `doc`, or `None` if the axis is not
    /// [`is_streamable`].
    pub fn new(doc: &Document, axis: Axis) -> Option<StepStreamer> {
        if !is_streamable(axis) {
            return None;
        }
        let n = doc.len() as u32;
        Some(StepStreamer { axis, expanded: NodeSet::empty_dense(n), next_free: 0, follow_lo: n })
    }

    /// Does the accumulated image still need the §4 type strip
    /// (subtracting attribute/namespace nodes)? `child` filters specials
    /// inline and `attribute`/`namespace` *produce* special nodes, so
    /// only the interval axes and `self`/`following-sibling` answer
    /// `true`.
    pub fn needs_type_strip(&self) -> bool {
        !matches!(self.axis, Axis::Child | Axis::Attribute | Axis::Namespace)
    }

    /// Feed one input node. Inputs must arrive in ascending id order
    /// across all `push` calls (the caller's block pipeline guarantees
    /// this; the staircase and chain early exits rely on it).
    pub fn push(&mut self, doc: &Document, x: NodeId) {
        match self.axis {
            Axis::SelfAxis => {
                self.expanded.insert(x);
            }
            Axis::Child => {
                let special = doc.special_words();
                for c in doc.children(x) {
                    if !is_special(special, c.0) {
                        self.expanded.insert(c);
                    }
                }
            }
            Axis::Attribute | Axis::Namespace => {
                let want = if self.axis == Axis::Attribute {
                    NodeKind::Attribute
                } else {
                    NodeKind::Namespace
                };
                for c in doc.children(x).filter(|&c| doc.kind(c) == want) {
                    self.expanded.insert(c);
                }
            }
            Axis::Descendant | Axis::DescendantOrSelf => {
                let lo = if self.axis == Axis::Descendant { x.0 + 1 } else { x.0 };
                let hi = doc.subtree_end(x);
                self.expanded.insert_range(lo.max(self.next_free), hi.max(self.next_free));
                self.next_free = self.next_free.max(hi);
            }
            Axis::Following => {
                // following(S) = [min subtree_end, n): a new input can
                // only lower the bound, adding one prefix range.
                let t = doc.subtree_end(x);
                if t < self.follow_lo {
                    self.expanded.insert_range(t, self.follow_lo);
                    self.follow_lo = t;
                }
            }
            Axis::FollowingSibling => {
                for s in doc.following_siblings(x) {
                    if self.expanded.contains(s) {
                        break; // the rest of the run is marked
                    }
                    self.expanded.insert(s);
                }
            }
            // `new` refuses every other axis.
            _ => unreachable!("non-streamable axis in StepStreamer"),
        }
    }

    /// The raw axis image of every input pushed so far (before the §4
    /// type strip — see [`StepStreamer::needs_type_strip`] — and before
    /// any node test). `expanded() ∩ [0, hi)` is final once all inputs
    /// `< hi` are in.
    pub fn expanded(&self) -> &NodeSet {
        &self.expanded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bulk;
    use xpath_xml::generate::{doc_bookstore, doc_figure8, doc_random, RandomDocConfig};

    const STREAMABLE: &[Axis] = &[
        Axis::SelfAxis,
        Axis::Child,
        Axis::Attribute,
        Axis::Namespace,
        Axis::Descendant,
        Axis::DescendantOrSelf,
        Axis::Following,
        Axis::FollowingSibling,
    ];

    /// Strip + adapt the streamer image the way the bulk kernel would,
    /// so the two are content-comparable.
    fn finished(doc: &Document, s: &StepStreamer) -> NodeSet {
        let mut out = s.expanded().clone();
        if s.needs_type_strip() {
            out.subtract_words(doc.special_words());
        }
        out.adapt()
    }

    #[test]
    fn reverse_axes_are_refused() {
        let d = doc_figure8();
        for axis in [Axis::Parent, Axis::Ancestor, Axis::Preceding, Axis::PrecedingSibling] {
            assert!(!is_streamable(axis));
            assert!(StepStreamer::new(&d, axis).is_none());
        }
    }

    #[test]
    fn streamed_image_matches_bulk_kernel() {
        let docs = [
            doc_figure8(),
            doc_bookstore(),
            doc_random(7, &RandomDocConfig { elements: 60, ..RandomDocConfig::default() }),
        ];
        for doc in &docs {
            let inputs: Vec<NodeId> = doc.all_nodes().filter(|x| x.0 % 3 != 1).collect();
            let input_set = NodeSet::from_sorted(inputs.clone());
            for &axis in STREAMABLE {
                let want = bulk::axis_set(doc, axis, &input_set);
                let mut s = StepStreamer::new(doc, axis).unwrap();
                for &x in &inputs {
                    s.push(doc, x);
                }
                assert_eq!(finished(doc, &s), want, "{axis:?}");
            }
        }
    }

    #[test]
    fn block_synchronous_prefix_is_final() {
        // After pushing only the inputs < hi, the image below hi must
        // already equal the full evaluation's image below hi — the
        // invariant that lets the cursor emit a block and never revisit.
        let doc = doc_random(3, &RandomDocConfig { elements: 80, ..RandomDocConfig::default() });
        let n = doc.len() as u32;
        let inputs: Vec<NodeId> = doc.all_nodes().filter(|x| x.0 % 2 == 0).collect();
        let full = NodeSet::from_sorted(inputs.clone());
        for &axis in STREAMABLE {
            let want_full = bulk::axis_set(&doc, axis, &full);
            for hi in [1u32, n / 4, n / 2, n] {
                let mut s = StepStreamer::new(&doc, axis).unwrap();
                for &x in inputs.iter().filter(|x| x.0 < hi) {
                    s.push(&doc, x);
                }
                assert_eq!(
                    finished(&doc, &s).restrict_range(0, hi),
                    want_full.restrict_range(0, hi),
                    "{axis:?} below {hi}"
                );
            }
        }
    }
}
