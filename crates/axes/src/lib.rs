//! # xpath-axes — axis evaluation engine
//!
//! Implements §3–§4 of Gottlob, Koch & Pichler's *Efficient Algorithms for
//! Processing XPath Queries*:
//!
//! * [`regex`] — the Table I axis definitions as limited regular expressions
//!   over `firstchild`/`nextsibling` and their inverses, evaluated by
//!   **Algorithm 3.2** in `O(|dom|)` (Lemma 3.3);
//! * [`typed`] — the §4 lifting to XPath's typed axes (attribute/namespace
//!   filtering) on top of Algorithm 3.2;
//! * [`fast`] — interchangeable direct implementations (per-node
//!   enumeration, preorder-interval set algorithms, inverse axes `χ⁻¹` for
//!   §10/§11, `idx_χ` document-order indexing);
//! * [`id`] — the `id` axis and its linear-time `ref`-relation encoding
//!   (Theorem 10.7);
//! * [`bulk`] — the engine's one set-at-a-time axis kernel over the
//!   hybrid [`NodeSet`](xpath_xml::NodeSet) and the document's flat link
//!   arrays ([`Document::parent_ids`](xpath_xml::Document::parent_ids)
//!   and its siblings): staircase range collection for
//!   the interval axes (materialized by the node set's density rule),
//!   chain walks for the pointer axes, word-parallel type filtering;
//! * [`stream`] — resumable block-synchronous expansion of the forward
//!   axes ([`stream::StepStreamer`]) for the lazy cursor layer: early
//!   exit, deadlines and cancellation without giving up the bulk
//!   kernel's staircase and chain-walk routes;
//! * [`stats`] — the [`Kernel`] tally of which materialization each axis
//!   application took.
//!
//! Tests assert that the bulk kernel and the direct per-node axes agree
//! with the Algorithm 3.2 reference on random documents.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bulk;
pub mod fast;
pub mod id;
pub mod regex;
pub mod stats;
pub mod stream;
pub mod typed;

pub use bulk::{axis_set, axis_set_traced};
pub use fast::{
    axis_from, axis_from_into, eval_axis, eval_axis_untyped_fast, idx_in, inverse_axis_set,
    order_for_axis,
};
pub use stats::{Kernel, KernelCounters, KernelCounts};
pub use stream::{is_streamable, StepStreamer};
pub use typed::eval_axis_alg32;

/// Properties over random documents: 24 documents per property from a
/// seeded splitmix64 stream.
#[cfg(test)]
mod random_doc_properties {
    use xpath_syntax::Axis;
    use xpath_xml::generate::{doc_random, RandomDocConfig};
    use xpath_xml::rng::Rng;
    use xpath_xml::{Document, NodeId};

    /// 24 random documents of `elements` elements, each with one more
    /// draw for any further per-case input.
    fn random_docs(seed: u64, elements: usize) -> impl Iterator<Item = (Document, u64)> {
        let mut rng = Rng::seed_from_u64(seed);
        let cfg = RandomDocConfig { elements, ..RandomDocConfig::default() };
        (0..24).map(move |_| (doc_random(rng.next_u64() % 5000, &cfg), rng.next_u64()))
    }

    /// On random documents the fast typed axes equal the Algorithm 3.2
    /// reference for every axis and every singleton input.
    #[test]
    fn fast_equals_alg32_on_random_docs() {
        for (doc, _) in random_docs(1, 40) {
            for axis in Axis::STANDARD {
                for x in doc.all_nodes() {
                    assert_eq!(
                        crate::fast::eval_axis(&doc, axis, &[x]),
                        crate::typed::eval_axis_alg32(&doc, axis, &[x]),
                        "{axis:?} x={x:?}"
                    );
                }
            }
        }
    }

    /// Lemma 10.1 on random documents: x ∈ χ(y) iff y ∈ χ⁻¹(x).
    #[test]
    fn inverse_axes_on_random_docs() {
        let axes = [
            Axis::Child,
            Axis::Descendant,
            Axis::Following,
            Axis::FollowingSibling,
            Axis::Parent,
            Axis::AncestorOrSelf,
        ];
        for (doc, _) in random_docs(2, 25) {
            for axis in axes {
                for y in doc.all_nodes() {
                    for x in crate::fast::eval_axis(&doc, axis, &[y]) {
                        let back = crate::fast::inverse_axis_set(&doc, axis, &[x]);
                        assert!(back.contains(&y), "{axis:?} x={x:?} y={y:?}");
                    }
                }
            }
        }
    }

    /// The bulk set-at-a-time kernel equals the direct per-node axes on
    /// random documents, for both NodeSet representations.
    #[test]
    fn bulk_equals_fast_on_random_docs() {
        for (doc, _) in random_docs(3, 35) {
            let n = doc.len() as u32;
            let ids: Vec<NodeId> = doc.all_nodes().filter(|x| x.0 % 3 != 1).collect();
            let sparse = xpath_xml::NodeSet::from_sorted(ids.clone());
            let dense = sparse.clone().densify(n);
            for axis in Axis::STANDARD {
                let want = crate::fast::eval_axis(&doc, axis, &ids);
                assert_eq!(
                    crate::bulk::axis_set(&doc, axis, &sparse).to_vec(),
                    want,
                    "{axis:?} sparse"
                );
                assert_eq!(
                    crate::bulk::axis_set(&doc, axis, &dense).to_vec(),
                    want,
                    "{axis:?} dense"
                );
            }
        }
    }

    /// Set evaluation equals the union of per-node evaluations.
    #[test]
    fn set_eval_is_union_of_singletons() {
        for (doc, draw) in random_docs(4, 20) {
            let mask = (draw % 255) as u32;
            let set: Vec<NodeId> =
                doc.all_nodes().filter(|n| mask & (1 << (n.0 % 8)) != 0).collect();
            for axis in Axis::STANDARD {
                let whole = crate::fast::eval_axis(&doc, axis, &set);
                let mut union: Vec<NodeId> =
                    set.iter().flat_map(|&x| crate::fast::eval_axis(&doc, axis, &[x])).collect();
                union.sort_unstable();
                union.dedup();
                assert_eq!(whole, union, "{axis:?} mask={mask:#x}");
            }
        }
    }
}
