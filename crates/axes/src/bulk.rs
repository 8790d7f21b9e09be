//! Set-at-a-time axis evaluation over the structure-of-arrays
//! [`AxisIndex`](xpath_xml::AxisIndex) and the hybrid [`NodeSet`] — the
//! fourth interchangeable axis backend (§3: "the actual techniques for
//! evaluating axes … will be interchangeable").
//!
//! Where [`crate::fast`] enumerates per node and merges, this module
//! applies each axis to a whole set at once:
//!
//! * **interval axes** (`descendant`, `descendant-or-self`, `following`,
//!   `preceding`) are staircase joins over preorder intervals — covered
//!   intervals are skipped, ranges are written word-parallel into a dense
//!   bitset, and the §4 attribute/namespace filtering is a single
//!   word-parallel and-not with the index's `special` mask;
//! * **pointer axes** (`child`, `parent`, siblings, ancestors) walk the
//!   flat `u32` link arrays instead of the node records, marking into a
//!   dense set with early exit on already-marked chains;
//! * results adapt back to the sparse representation when the output is
//!   small ([`NodeSet::adapt`]).
//!
//! All functions take any `NodeSet` representation as input and agree
//! exactly with [`crate::fast::eval_axis`] / the Algorithm 3.2 reference
//! (property-tested below and in the workspace suites).

use xpath_syntax::Axis;
use xpath_xml::axis_index::NONE;
use xpath_xml::{pool, simd, Document, NodeId, NodeKind, NodeSet};

use crate::cost::{CostModel, Kernel};

/// Typed set-to-set axis function `χ(S)` (Definition 3.1 with §4 type
/// filtering), set-at-a-time. Output is in document order.
pub fn axis_set(doc: &Document, axis: Axis, set: &NodeSet) -> NodeSet {
    axis_set_inner(doc, axis, set, true)
}

/// Adaptive typed axis function: [`axis_set_planned`] under the
/// process-wide [`CostModel::global`], discarding the provenance. This is
/// the engine's default axis entry point.
pub fn axis_set_adaptive(doc: &Document, axis: Axis, set: &NodeSet) -> NodeSet {
    axis_set_planned(doc, axis, set, CostModel::global()).0
}

/// Cost-based adaptive axis dispatch: estimate each applicable kernel's
/// cost under `model` (input density × axis shape × document size, with an
/// exact-output staircase pre-pass for the interval axes) and run the
/// cheapest. Returns the result and which [`Kernel`] produced it.
///
/// Agrees exactly with [`axis_set`] on every input (differential-tested
/// here and in the workspace suites); only the materialization route —
/// and therefore the constant factor — differs.
pub fn axis_set_planned(
    doc: &Document,
    axis: Axis,
    set: &NodeSet,
    model: &CostModel,
) -> (NodeSet, Kernel) {
    planned_inner(doc, axis, set, true, model)
}

/// Adaptive inverse axis function: [`inverse_axis_set_planned`] under the
/// process-wide model, discarding the provenance.
pub fn inverse_axis_set_adaptive(doc: &Document, axis: Axis, set: &NodeSet) -> NodeSet {
    inverse_axis_set_planned(doc, axis, set, CostModel::global()).0
}

/// Cost-based adaptive dispatch for the inverse axis function `χ⁻¹(X)`
/// (§10.1, Lemma 10.1). Same reduction as [`inverse_axis_set`], with the
/// untyped inverse application routed through the planner.
pub fn inverse_axis_set_planned(
    doc: &Document,
    axis: Axis,
    set: &NodeSet,
    model: &CostModel,
) -> (NodeSet, Kernel) {
    match axis {
        Axis::Attribute | Axis::Namespace | Axis::Id => {
            (inverse_axis_set(doc, axis, set), Kernel::BulkSparse)
        }
        _ => {
            let ix = doc.axis_index();
            let mut proper = set.clone();
            proper.subtract_words(ix.special_words());
            planned_inner(doc, axis.inverse(), &proper, false, model)
        }
    }
}

/// Untyped set-to-set axis function `χ0(S)` (§3), set-at-a-time.
pub fn axis_set_untyped(doc: &Document, axis: Axis, set: &NodeSet) -> NodeSet {
    axis_set_inner(doc, axis, set, false)
}

/// The inverse axis function `χ⁻¹(X)` of §10.1 on the typed axes,
/// set-at-a-time (Lemma 10.1: reduce to the untyped inverse).
pub fn inverse_axis_set(doc: &Document, axis: Axis, set: &NodeSet) -> NodeSet {
    match axis {
        Axis::Attribute => {
            let attrs: NodeSet =
                set.iter().filter(|&x| doc.kind(x) == NodeKind::Attribute).collect();
            axis_set_inner(doc, Axis::Parent, &attrs, false)
        }
        Axis::Namespace => {
            let nss: NodeSet = set.iter().filter(|&x| doc.kind(x) == NodeKind::Namespace).collect();
            axis_set_inner(doc, Axis::Parent, &nss, false)
        }
        Axis::Id => {
            let v = set.to_vec();
            let out = NodeSet::from_sorted(crate::id::id_inverse_ref(doc, &v));
            pool::give_ids(v);
            out
        }
        _ => {
            // χ⁻¹(X) = χ0⁻¹(X ∩ non-special), no result filtering.
            let ix = doc.axis_index();
            let mut proper = set.clone();
            proper.subtract_words(ix.special_words());
            axis_set_inner(doc, axis.inverse(), &proper, false)
        }
    }
}

fn axis_set_inner(doc: &Document, axis: Axis, set: &NodeSet, typed: bool) -> NodeSet {
    let ix = doc.axis_index();
    let n = doc.len() as u32;
    let strip = |mut s: NodeSet| -> NodeSet {
        if typed {
            s.subtract_words(ix.special_words());
        }
        s.adapt()
    };
    match axis {
        Axis::SelfAxis => strip(set.clone()),
        Axis::Child => {
            // Children of distinct parents are disjoint, so the walk
            // never produces duplicates; track sortedness inline and
            // sort only when an out-of-order push actually happened
            // (nested parents interleave their child ranges).
            let mut out = pool::take_ids();
            let mut prev = NONE;
            let mut sorted = true;
            for x in set {
                let mut c = ix.first_child(x.0);
                while c != NONE {
                    if !typed || !ix.is_special(c) {
                        sorted &= prev == NONE || c > prev;
                        prev = c;
                        out.push(NodeId(c));
                    }
                    c = ix.next_sibling(c);
                }
            }
            if !sorted {
                out.sort_unstable();
            }
            NodeSet::from_sorted(out)
        }
        Axis::Attribute | Axis::Namespace => {
            let want =
                if axis == Axis::Attribute { NodeKind::Attribute } else { NodeKind::Namespace };
            let mut out = pool::take_ids();
            for x in set {
                let mut c = ix.first_child(x.0);
                while c != NONE {
                    if doc.kind(NodeId(c)) == want {
                        out.push(NodeId(c));
                    }
                    c = ix.next_sibling(c);
                }
            }
            NodeSet::from_unsorted(out)
        }
        Axis::Parent => {
            let mut out = pool::take_ids();
            out.extend(set.iter().map(|x| ix.parent(x.0)).filter(|&p| p != NONE).map(NodeId));
            out.sort_unstable();
            out.dedup();
            NodeSet::from_sorted(out)
        }
        Axis::Ancestor | Axis::AncestorOrSelf => {
            let mut out = NodeSet::empty_dense(n);
            for x in set {
                let mut cur = if axis == Axis::AncestorOrSelf {
                    if !typed || !ix.is_special(x.0) {
                        x.0
                    } else {
                        ix.parent(x.0)
                    }
                } else {
                    ix.parent(x.0)
                };
                while cur != NONE {
                    if out.contains(NodeId(cur)) {
                        break; // everything above is already marked
                    }
                    out.insert(NodeId(cur));
                    cur = ix.parent(cur);
                }
            }
            out.adapt()
        }
        Axis::Descendant | Axis::DescendantOrSelf => {
            // Staircase join over the (sorted) preorder intervals:
            // covered intervals are skipped, each surviving range is one
            // word-parallel fill.
            let mut out = NodeSet::empty_dense(n);
            let mut next_free = 0u32;
            for x in set {
                let lo = if axis == Axis::Descendant { x.0 + 1 } else { x.0 };
                let hi = ix.subtree_end(x.0);
                out.insert_range(lo.max(next_free), hi.max(next_free));
                next_free = next_free.max(hi);
            }
            strip(out)
        }
        Axis::Following => {
            // following(S) = [min_{x∈S} subtree_end(x), |dom|).
            let mut out = NodeSet::empty_dense(n);
            if let Some(lo) = set.iter().map(|x| ix.subtree_end(x.0)).min() {
                out.insert_range(lo, n);
            }
            strip(out)
        }
        Axis::Preceding => {
            // preceding(S) = preceding(max S) = [0, max) − ancestors(max):
            // for y < max, subtree_end(y) > max iff y is an ancestor of
            // max. One range fill plus a parent-chain walk.
            let mut out = NodeSet::empty_dense(n);
            if let Some(max) = set.last() {
                out.insert_range(0, max.0);
                let mut a = ix.parent(max.0);
                while a != NONE {
                    out.difference_with(&NodeSet::singleton(NodeId(a)));
                    a = ix.parent(a);
                }
            }
            strip(out)
        }
        Axis::FollowingSibling => {
            let mut out = NodeSet::empty_dense(n);
            for x in set {
                let mut s = ix.next_sibling(x.0);
                while s != NONE {
                    if out.contains(NodeId(s)) {
                        break; // the rest of the chain is marked
                    }
                    out.insert(NodeId(s));
                    s = ix.next_sibling(s);
                }
            }
            strip(out)
        }
        Axis::PrecedingSibling => {
            let mut out = NodeSet::empty_dense(n);
            let ids = set.to_vec();
            for &x in ids.iter().rev() {
                let mut s = ix.prev_sibling(x.0);
                while s != NONE {
                    if out.contains(NodeId(s)) {
                        break;
                    }
                    out.insert(NodeId(s));
                    s = ix.prev_sibling(s);
                }
            }
            pool::give_ids(ids);
            strip(out)
        }
        Axis::Id => {
            let mut out = NodeSet::empty_dense(n);
            for x in set {
                for y in doc.deref_ids(doc.string_value(x)) {
                    out.insert(y);
                }
            }
            out.adapt()
        }
    }
}

/// The planner's dispatch. The interval axes run a `O(|S|)` staircase
/// pre-pass to learn the exact output cardinality before choosing a
/// materialization; the pointer-chasing axes choose between the per-node
/// enumeration loop and dense chain marking from the calibrated chain
/// estimate; the link-array axes already materialize sparse vectors and
/// pass straight through.
fn planned_inner(
    doc: &Document,
    axis: Axis,
    set: &NodeSet,
    typed: bool,
    model: &CostModel,
) -> (NodeSet, Kernel) {
    let ix = doc.axis_index();
    let n = doc.len() as u32;
    match axis {
        Axis::Descendant | Axis::DescendantOrSelf => {
            // One staircase walk collecting the surviving (disjoint,
            // ascending) intervals and the exact output cardinality; the
            // materialization pick then runs over the recorded ranges, so
            // the subtree-interval lookups are never repeated.
            let mut ranges = pool::take_ranges();
            let mut m = 0u64;
            let mut next_free = 0u32;
            for x in set {
                let lo = if axis == Axis::Descendant { x.0 + 1 } else { x.0 };
                let hi = ix.subtree_end(x.0);
                let lo = lo.max(next_free);
                if lo < hi {
                    ranges.push((lo, hi));
                    m += (hi - lo) as u64;
                }
                next_free = next_free.max(hi);
            }
            let out = materialize_ranges(&ranges, m as usize, set.len(), n, ix, typed, model);
            pool::give_ranges(ranges);
            out
        }
        Axis::Following => {
            let Some(lo) = set.iter().map(|x| ix.subtree_end(x.0)).min() else {
                return (NodeSet::new(), Kernel::BulkSparse);
            };
            let ranges = [(lo, n)];
            materialize_ranges(&ranges, (n - lo) as usize, set.len(), n, ix, typed, model)
        }
        Axis::Preceding => {
            // preceding(S) = [0, max) − ancestors(max); output ≈ max.
            let Some(max) = set.last() else {
                return (NodeSet::new(), Kernel::BulkSparse);
            };
            match model.pick_interval(n, set.len(), max.0 as usize) {
                Kernel::BulkSparse | Kernel::PerNode => {
                    // Ancestor ids of max, ascending (parents descend).
                    let mut anc = pool::take_ids();
                    let mut a = ix.parent(max.0);
                    while a != NONE {
                        anc.push(NodeId(a));
                        a = ix.parent(a);
                    }
                    anc.reverse();
                    let mut out = pool::take_ids();
                    out.reserve(max.0 as usize);
                    let mut ai = 0usize;
                    for i in 0..max.0 {
                        if ai < anc.len() && anc[ai].0 == i {
                            ai += 1;
                            continue;
                        }
                        if !typed || !ix.is_special(i) {
                            out.push(NodeId(i));
                        }
                    }
                    pool::give_ids(anc);
                    (NodeSet::from_sorted(out), Kernel::BulkSparse)
                }
                Kernel::BulkDense => (axis_set_inner(doc, axis, set, typed), Kernel::BulkDense),
            }
        }
        Axis::Ancestor | Axis::AncestorOrSelf | Axis::FollowingSibling | Axis::PrecedingSibling
            if typed =>
        {
            match model.pick_chain(n, set.len()) {
                Kernel::PerNode => (per_node_union(doc, axis, set), Kernel::PerNode),
                _ => (axis_set_inner(doc, axis, set, typed), Kernel::BulkDense),
            }
        }
        // Untyped chains (inverse dispatch) and the link-array axes:
        // existing kernels, classified by what they materialize.
        Axis::Ancestor | Axis::AncestorOrSelf | Axis::FollowingSibling | Axis::PrecedingSibling => {
            (axis_set_inner(doc, axis, set, typed), Kernel::BulkDense)
        }
        Axis::SelfAxis
        | Axis::Child
        | Axis::Parent
        | Axis::Attribute
        | Axis::Namespace
        | Axis::Id => (axis_set_inner(doc, axis, set, typed), Kernel::BulkSparse),
    }
}

/// Materialize disjoint ascending `[lo, hi)` intervals under the cost
/// model's pick: below the crossover, write ids straight into a sorted
/// vector (the staircase-sparse kernel); at or above it, word-parallel
/// range fills into a dense bitset with the §4 type strip.
fn materialize_ranges(
    ranges: &[(u32, u32)],
    total: usize,
    input_len: usize,
    universe: u32,
    ix: &xpath_xml::AxisIndex,
    typed: bool,
    model: &CostModel,
) -> (NodeSet, Kernel) {
    match model.pick_interval(universe, input_len, total) {
        Kernel::BulkSparse | Kernel::PerNode => {
            let mut out = pool::take_ids();
            out.reserve(total);
            let specials = ix.special_words();
            for &(lo, hi) in ranges {
                if !typed {
                    simd::extend_id_run(&mut out, lo, hi);
                    continue;
                }
                // Typed strip, blockwise: 64-aligned blocks whose
                // special-mask word is zero — the common case outside
                // attribute-heavy regions — take the vectorized id-run
                // writer; blocks with special nodes filter per id.
                let mut i = lo;
                while i < hi {
                    let word = specials.get((i / 64) as usize).copied().unwrap_or(0);
                    if word == 0 && i % 64 == 0 {
                        let mut seg = (i + 64).min(hi);
                        while seg < hi
                            && seg % 64 == 0
                            && specials.get((seg / 64) as usize).copied().unwrap_or(0) == 0
                        {
                            seg = (seg + 64).min(hi);
                        }
                        simd::extend_id_run(&mut out, i, seg);
                        i = seg;
                    } else {
                        let seg = ((i / 64 + 1) * 64).min(hi);
                        if word == 0 {
                            simd::extend_id_run(&mut out, i, seg);
                        } else {
                            out.extend((i..seg).filter(|&j| !ix.is_special(j)).map(NodeId));
                        }
                        i = seg;
                    }
                }
            }
            (NodeSet::from_sorted(out), Kernel::BulkSparse)
        }
        Kernel::BulkDense => {
            let mut out = NodeSet::empty_dense(universe);
            for &(lo, hi) in ranges {
                out.insert_range(lo, hi);
            }
            if typed {
                out.subtract_words(ix.special_words());
            }
            (out.adapt(), Kernel::BulkDense)
        }
    }
}

/// The per-node fallback for sparse pointer-chasing inputs: enumerate
/// `axis_from` per source node and merge — exactly the seed's hot path,
/// which stays the cheapest plan when `|S| · chain` is far below the
/// document's word count.
fn per_node_union(doc: &Document, axis: Axis, set: &NodeSet) -> NodeSet {
    let mut out = pool::take_ids();
    let mut buf = pool::take_ids();
    for x in set {
        crate::fast::axis_from_into(doc, axis, x, &mut buf);
        out.extend_from_slice(&buf);
    }
    pool::give_ids(buf);
    NodeSet::from_unsorted(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regex::eval_axis_untyped;
    use xpath_xml::generate::{doc_bookstore, doc_figure8, doc_flat, doc_random, RandomDocConfig};
    use xpath_xml::rng::Rng;

    /// Typed reference implementation per §4, built on Algorithm 3.2.
    fn typed_reference(doc: &Document, axis: Axis, set: &[NodeId]) -> Vec<NodeId> {
        match axis {
            Axis::Attribute => {
                let mut v = eval_axis_untyped(doc, Axis::Child, set);
                v.retain(|&n| doc.kind(n) == NodeKind::Attribute);
                v
            }
            Axis::Namespace => {
                let mut v = eval_axis_untyped(doc, Axis::Child, set);
                v.retain(|&n| doc.kind(n) == NodeKind::Namespace);
                v
            }
            Axis::Id => crate::fast::eval_axis(doc, Axis::Id, set),
            _ => {
                let mut v = eval_axis_untyped(doc, axis, set);
                v.retain(|&n| !doc.kind(n).is_special_child());
                v
            }
        }
    }

    /// The calibrated model plus two adversarial ones that force each
    /// extreme, so every kernel's route is exercised on every input.
    fn planner_models() -> [(&'static str, CostModel); 3] {
        let force_sparse = CostModel { dense_word_ns: 1e9, ..CostModel::CALIBRATED };
        let force_dense = CostModel { dense_word_ns: 1e-9, chain_ns: 1e9, ..CostModel::CALIBRATED };
        [("calibrated", CostModel::CALIBRATED), ("sparse", force_sparse), ("dense", force_dense)]
    }

    fn check_doc(doc: &Document, seed: u64) {
        let mut rng = Rng::seed_from_u64(seed);
        let n = doc.len() as u32;
        // A spread of densities: singletons, sparse, dense, full.
        let mut sets: Vec<Vec<NodeId>> =
            vec![doc.all_nodes().collect(), doc.all_nodes().filter(|x| x.0 % 7 == 1).collect()];
        for p in [0.02, 0.3, 0.8] {
            sets.push((0..n).filter(|_| rng.random_bool(p)).map(NodeId).collect());
        }
        for x in doc.all_nodes().take(8) {
            sets.push(vec![x]);
        }
        for ids in sets {
            let sparse = NodeSet::from_sorted(ids.clone());
            let dense = sparse.clone().densify(n);
            for axis in Axis::STANDARD {
                let reference = typed_reference(doc, axis, &ids);
                let fast = crate::fast::eval_axis(doc, axis, &ids);
                assert_eq!(fast, reference, "fast vs alg3.2 {axis:?} seed {seed}");
                for (repr, input) in [("sparse", &sparse), ("dense", &dense)] {
                    let got = axis_set(doc, axis, input);
                    assert_eq!(
                        got.to_vec(),
                        reference,
                        "bulk({repr}) vs reference {axis:?} seed {seed} |S|={}",
                        ids.len()
                    );
                    let ids_out: Vec<u32> = got.iter().map(|x| x.0).collect();
                    assert!(ids_out.windows(2).all(|w| w[0] < w[1]), "doc order {axis:?}");
                    // The adaptive planner agrees under every model,
                    // including ones forced to each extreme kernel.
                    for (name, model) in planner_models() {
                        let (planned, kernel) = axis_set_planned(doc, axis, input, &model);
                        assert_eq!(
                            planned.to_vec(),
                            reference,
                            "planned({repr},{name})={kernel:?} {axis:?} seed {seed}"
                        );
                    }
                }
                // Untyped agrees with Algorithm 3.2's untyped semantics.
                if !matches!(axis, Axis::Attribute | Axis::Namespace | Axis::Id) {
                    assert_eq!(
                        axis_set_untyped(doc, axis, &sparse).to_vec(),
                        eval_axis_untyped(doc, axis, &ids),
                        "untyped {axis:?} seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn bulk_matches_reference_on_fixed_docs() {
        check_doc(&doc_flat(6), 1);
        check_doc(&doc_figure8(), 2);
        check_doc(&doc_bookstore(), 3);
    }

    #[test]
    fn bulk_matches_reference_on_random_docs() {
        for seed in 0..8 {
            let cfg = RandomDocConfig { elements: 45, ..RandomDocConfig::default() };
            let doc = doc_random(seed, &cfg);
            check_doc(&doc, seed);
        }
    }

    #[test]
    fn bulk_inverse_matches_fast_inverse() {
        for seed in 0..4 {
            let cfg = RandomDocConfig { elements: 35, ..RandomDocConfig::default() };
            let doc = doc_random(seed, &cfg);
            let n = doc.len() as u32;
            let ids: Vec<NodeId> = doc.all_nodes().filter(|x| x.0 % 3 != 2).collect();
            let sparse = NodeSet::from_sorted(ids.clone());
            let dense = sparse.clone().densify(n);
            for axis in Axis::STANDARD {
                let want = crate::fast::inverse_axis_set(&doc, axis, &ids);
                assert_eq!(inverse_axis_set(&doc, axis, &sparse).to_vec(), want, "{axis:?}");
                assert_eq!(inverse_axis_set(&doc, axis, &dense).to_vec(), want, "{axis:?} dense");
                for (name, model) in planner_models() {
                    let (planned, kernel) = inverse_axis_set_planned(&doc, axis, &sparse, &model);
                    assert_eq!(
                        planned.to_vec(),
                        want,
                        "planned inverse({name})={kernel:?} {axis:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn interval_axes_produce_dense_sets_on_dense_inputs() {
        let doc = doc_flat(200);
        let all: NodeSet = doc.all_nodes().collect();
        let desc = axis_set(&doc, Axis::DescendantOrSelf, &all);
        assert!(desc.is_dense(), "a full descendant sweep should stay dense");
        let one = axis_set(&doc, Axis::Child, &NodeSet::singleton(doc.root()));
        assert!(!one.is_dense(), "tiny results adapt to the sparse repr");
    }
}
