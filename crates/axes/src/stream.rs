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
//! invariant: it accepts input nodes one window of words at a time **in
//! ascending id order** and accumulates the raw axis image into a dense
//! word-block set, using exactly the same staircase / chain-walk routes
//! as the materializing kernels in [`crate::bulk`] (covered-interval
//! skipping via the `next_free` watermark, marked-chain early exit,
//! inline special-child filtering on `child`). The cursor layer reads the
//! typed image back one `[lo, hi)` window of words at a time and stops
//! pulling as soon as its caller is satisfied — the early-exit path never
//! pays for document regions past the last window it needed.
//!
//! Reverse axes are not preorder-monotone (an `ancestor` output precedes
//! its input), so they are not streamable here; the cursor layer
//! materializes those spines instead ([`is_streamable`] is the gate, and
//! the analyzer's verdict surfaces in `xpq --explain`).

use xpath_syntax::Axis;
use xpath_xml::nodeset::each_window_id;
use xpath_xml::{Document, NodeKind, NodeSet};

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
/// nodes in ascending id order with [`StepStreamer::push_window`]; after
/// every input `< hi` has been fed, [`StepStreamer::read_window`] below
/// `hi` is the final typed axis image there — the block-synchronous
/// invariant the lazy cursor pipeline is built on.
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

    /// Feed the input nodes set in `window`, one bit per id from `lo` (a
    /// multiple of 64). Inputs must arrive in ascending id order across
    /// all calls (the caller's block pipeline feeds its windows in
    /// order; the staircase and chain early exits rely on it). Feeding
    /// an input again adds nothing.
    pub fn push_window(&mut self, doc: &Document, lo: u32, window: &[u64]) {
        let expanded = &mut self.expanded;
        match self.axis {
            Axis::SelfAxis => each_window_id(lo, window, |x| expanded.insert(x)),
            Axis::Child => {
                let special = doc.special_words();
                each_window_id(lo, window, |x| {
                    for c in doc.children(x).filter(|c| !is_special(special, c.0)) {
                        expanded.insert(c);
                    }
                });
            }
            Axis::Attribute | Axis::Namespace => {
                let want = if self.axis == Axis::Attribute {
                    NodeKind::Attribute
                } else {
                    NodeKind::Namespace
                };
                each_window_id(lo, window, |x| {
                    for c in doc.children(x).filter(|&c| doc.kind(c) == want) {
                        expanded.insert(c);
                    }
                });
            }
            Axis::Descendant | Axis::DescendantOrSelf => {
                let skip = u32::from(self.axis == Axis::Descendant);
                let (ends, n) = (doc.subtree_ends(), doc.len() as u32);
                let next_free = &mut self.next_free;
                each_window_id(lo, window, |x| {
                    // An interval inside an earlier one adds nothing.
                    let hi = ends[x.index()].min(n);
                    if hi > *next_free {
                        expanded.insert_range((x.0 + skip).max(*next_free), hi);
                        *next_free = hi;
                    }
                });
            }
            Axis::Following => {
                // following(S) = [min subtree_end, n): new inputs can
                // only lower the bound, adding one prefix range.
                let mut t = self.follow_lo;
                each_window_id(lo, window, |x| t = t.min(doc.subtree_end(x)));
                expanded.insert_range(t, self.follow_lo);
                self.follow_lo = t;
            }
            Axis::FollowingSibling => each_window_id(lo, window, |x| {
                for s in doc.following_siblings(x) {
                    if expanded.contains(s) {
                        break; // the rest of the run is marked
                    }
                    expanded.insert(s);
                }
            }),
            // `new` refuses every other axis.
            _ => unreachable!("non-streamable axis in StepStreamer"),
        }
    }

    /// Overwrite `out` with the typed axis image over the window from
    /// `lo` (a multiple of 64): the image of every input fed so far, less
    /// the attribute and namespace nodes (§4) unless the axis selects
    /// them (`child` skips them as it walks). Final below `hi` once every
    /// input below `hi` is in.
    pub fn read_window(&self, doc: &Document, lo: u32, out: &mut [u64]) {
        self.expanded.read_window(lo, out);
        if !matches!(self.axis, Axis::Child | Axis::Attribute | Axis::Namespace) {
            let special = &doc.special_words()[(lo / 64) as usize..];
            out.iter_mut().zip(special).for_each(|(w, s)| *w &= !s);
        }
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

    /// The streamer's typed image over the whole document.
    fn finished(doc: &Document, s: &StepStreamer) -> NodeSet {
        let mut words = vec![0; doc.len().div_ceil(64)];
        s.read_window(doc, 0, &mut words);
        NodeSet::from_window(0, &words)
    }

    /// Feed `inputs` one 64-id window at a time, ascending, as the
    /// cursor feeds its windows.
    fn feed(doc: &Document, s: &mut StepStreamer, inputs: &NodeSet) {
        let mut word = [0u64];
        for lo in (0..doc.len() as u32).step_by(64) {
            inputs.read_window(lo, &mut word);
            s.push_window(doc, lo, &word);
        }
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
            let inputs: NodeSet = doc.all_nodes().filter(|x| x.0 % 3 != 1).collect();
            for &axis in STREAMABLE {
                let want = bulk::axis_set(doc, axis, &inputs);
                let mut s = StepStreamer::new(doc, axis).unwrap();
                feed(doc, &mut s, &inputs);
                assert_eq!(finished(doc, &s), want, "{axis:?}");
                // A window fed again (a pull retried after a budget trip)
                // adds nothing.
                feed(doc, &mut s, &inputs);
                assert_eq!(finished(doc, &s), want, "{axis:?} fed twice");
            }
        }
    }

    #[test]
    fn block_synchronous_prefix_is_final() {
        // After feeding only the inputs < hi, the image below hi must
        // already equal the full evaluation's image below hi — the
        // invariant that lets the cursor emit a block and never revisit.
        let doc = doc_random(3, &RandomDocConfig { elements: 80, ..RandomDocConfig::default() });
        let n = doc.len() as u32;
        let full: NodeSet = doc.all_nodes().filter(|x| x.0 % 2 == 0).collect();
        for &axis in STREAMABLE {
            let want_full = bulk::axis_set(&doc, axis, &full);
            for hi in [1u32, n / 4, n / 2, n] {
                let mut s = StepStreamer::new(&doc, axis).unwrap();
                feed(&doc, &mut s, &full.iter().filter(|x| x.0 < hi).collect());
                let below = |set: &NodeSet| set.iter().filter(|x| x.0 < hi).collect::<Vec<_>>();
                assert_eq!(below(&finished(&doc, &s)), below(&want_full), "{axis:?} below {hi}");
            }
        }
    }
}
