//! Set-at-a-time axis evaluation over the document's flat link arrays
//! ([`Document::parent_ids`] and its siblings) and the hybrid
//! [`NodeSet`] — the engine's one axis kernel. §3 calls the
//! axis-evaluation techniques interchangeable; Algorithm 3.2 ([`crate::typed`]) and the per-node
//! set algorithms of [`crate::fast`] stay as the oracles this module is
//! tested against.
//!
//! Where [`crate::fast`] enumerates per node and merges, this module
//! applies each axis to a whole set at once. How a result materializes
//! depends on the axis family:
//!
//! * **interval axes** (`descendant`, `descendant-or-self`, `following`,
//!   `preceding`) collect their disjoint ascending preorder ranges and the
//!   exact result size in one staircase pass (covered intervals are
//!   skipped; `preceding` is the ranges between `max(S)`'s ancestors).
//!   [`NodeSet::from_ranges`] then picks the representation by the node
//!   set's own density rule and applies the §4 attribute/namespace strip;
//! * **chain axes** (`ancestor(-or-self)`, the sibling axes) walk one
//!   chain into a sorted vector when the input is a single node — `O(chain)`,
//!   never a pass over the document's words —
//!   and otherwise mark every chain into a dense bitset, stopping at the
//!   first node an earlier chain already marked; a sibling axis on an
//!   input below the node set's density rule instead walks one run per
//!   parent straight into a vector in document order;
//! * **link-array axes** (`self`, `child`, `parent`, `attribute`,
//!   `namespace`, `id`) walk the flat `u32` link arrays into sorted
//!   vectors.
//!
//! `child`, `attribute`, `namespace` and `following-sibling` have no link
//! column of their own: they walk the interval hop over the subtree ends
//! ([`Document::children`], [`Document::following_siblings`]). A child
//! walk is bounded by the parent's end; a `following-sibling` chain hops
//! on while the next node's stored left neighbour is the node it came
//! from. Every range and hop is clamped to the document, and a backward
//! link that does not point back ends its chain, so a damaged
//! quick-opened snapshot yields wrong answers, never a panic or a hang.
//!
//! [`axis_set_traced`] and [`inverse_axis_set_traced`] also report which
//! [`Kernel`] materialized the result, for the evaluator's planner tally.
//! All functions take either `NodeSet` representation as input and agree
//! exactly with Algorithm 3.2 (tested below and in the workspace suites).

use xpath_syntax::Axis;
use xpath_xml::{pool, Document, NodeId, NodeKind, NodeSet, NONE};

use crate::stats::Kernel;

/// Typed set-to-set axis function `χ(S)` (Definition 3.1 with §4 type
/// filtering), set-at-a-time. Output is in document order.
pub fn axis_set(doc: &Document, axis: Axis, set: &NodeSet) -> NodeSet {
    apply(doc, axis, set, true).0
}

/// [`axis_set`], also reporting which [`Kernel`] materialized the result.
pub fn axis_set_traced(doc: &Document, axis: Axis, set: &NodeSet) -> (NodeSet, Kernel) {
    apply(doc, axis, set, true)
}

/// Untyped set-to-set axis function `χ0(S)` (§3), set-at-a-time.
pub fn axis_set_untyped(doc: &Document, axis: Axis, set: &NodeSet) -> NodeSet {
    apply(doc, axis, set, false).0
}

/// The inverse axis function `χ⁻¹(X)` of §10.1 on the typed axes,
/// set-at-a-time (Lemma 10.1: reduce to the untyped inverse).
pub fn inverse_axis_set(doc: &Document, axis: Axis, set: &NodeSet) -> NodeSet {
    inverse_axis_set_traced(doc, axis, set).0
}

/// [`inverse_axis_set`], also reporting which [`Kernel`] materialized the
/// result.
pub fn inverse_axis_set_traced(doc: &Document, axis: Axis, set: &NodeSet) -> (NodeSet, Kernel) {
    match axis {
        Axis::Attribute | Axis::Namespace => {
            let want =
                if axis == Axis::Attribute { NodeKind::Attribute } else { NodeKind::Namespace };
            let owned: NodeSet = set.iter().filter(|&x| doc.kind(x) == want).collect();
            apply(doc, Axis::Parent, &owned, false)
        }
        Axis::Id => {
            let v = set.to_vec();
            let out = NodeSet::from_sorted(crate::id::id_inverse_ref(doc, &v));
            pool::give_ids(v);
            (out, Kernel::BulkSparse)
        }
        _ => {
            // χ⁻¹(X) = χ0⁻¹(X ∩ non-special), no result filtering.
            let mut proper = set.clone();
            proper.subtract_words(doc.special_words());
            apply(doc, axis.inverse(), &proper, false)
        }
    }
}

/// Is `id` marked in the attribute/namespace bitset `special`
/// ([`Document::special_words`])?
#[inline]
pub fn is_special(special: &[u64], id: u32) -> bool {
    special[(id / 64) as usize] >> (id % 64) & 1 == 1
}

fn apply(doc: &Document, axis: Axis, set: &NodeSet, typed: bool) -> (NodeSet, Kernel) {
    let n = doc.len() as u32;
    let parent = doc.parent_ids();
    let subtree_end = doc.subtree_ends();
    let up = |x: u32| back(parent, x);
    // The §4 strip mask of a typed axis (`&[]` strips nothing).
    let strip: &[u64] = if typed { doc.special_words() } else { &[] };
    match axis {
        Axis::Descendant | Axis::DescendantOrSelf => {
            // Staircase join over the (sorted) preorder intervals: an
            // interval inside an earlier one contributes nothing.
            let mut ranges = pool::take_ranges();
            let (mut len, mut next_free) = (0usize, 0u32);
            for x in set {
                let lo = if axis == Axis::Descendant { x.0 + 1 } else { x.0 }.max(next_free);
                let hi = subtree_end[x.index()];
                if lo < hi {
                    ranges.push((lo, hi));
                    len += (hi - lo) as usize;
                }
                next_free = next_free.max(hi);
            }
            if next_free > n {
                // Only damaged intervals end past the document: clip them.
                ranges.retain_mut(|r| {
                    r.1 = r.1.min(n);
                    r.0 < r.1
                });
                len = ranges.iter().map(|&(lo, hi)| (hi - lo) as usize).sum();
            }
            let out = from_ranges(&ranges, len, n, strip);
            pool::give_ranges(ranges);
            out
        }
        Axis::Following => {
            // following(S) = [min_{x∈S} subtree_end(x), |dom|).
            let lo = set.iter().map(|x| subtree_end[x.index()]).min().unwrap_or(n).min(n);
            from_ranges(&[(lo, n)], (n - lo) as usize, n, strip)
        }
        Axis::Preceding => {
            // preceding(S) = preceding(max S) = [0, max) − ancestors(max):
            // for y < max, subtree_end(y) > max iff y is an ancestor of
            // max, so the result is the ranges between the ancestors.
            let mut ranges = pool::take_ranges();
            let mut len = 0usize;
            if let Some(max) = set.last() {
                let (mut hi, mut a) = (max.0, up(max.0));
                loop {
                    let lo = a.map_or(0, |a| a + 1);
                    if lo < hi {
                        ranges.push((lo, hi));
                        len += (hi - lo) as usize;
                    }
                    let Some(p) = a else { break };
                    (hi, a) = (p, up(p));
                }
                ranges.reverse();
            }
            let out = from_ranges(&ranges, len, n, strip);
            pool::give_ranges(ranges);
            out
        }
        Axis::Ancestor => chains(set, n, strip, true, up, up),
        Axis::AncestorOrSelf => chains(set, n, strip, true, Some, up),
        // Below the node set's density rule a sibling pass walks runs into
        // a vector; at or above it, `chains` marks a bitset.
        Axis::FollowingSibling | Axis::PrecedingSibling
            if (2..NodeSet::dense_threshold(n)).contains(&set.len()) =>
        {
            let prev_sibling = doc.prev_sibling_ids();
            if axis == Axis::PrecedingSibling {
                sibling_runs::<true>(set, parent, subtree_end, prev_sibling, strip)
            } else {
                sibling_runs::<false>(set, parent, subtree_end, prev_sibling, strip)
            }
        }
        Axis::FollowingSibling => {
            // The node after `x`'s subtree is `x`'s right neighbour iff
            // its stored left neighbour is `x`: one load beside the hop,
            // where bounding the run by the parent's end costs two
            // dependent loads per chain.
            let prev_sibling = doc.prev_sibling_ids();
            let right = |x: u32| {
                let s = subtree_end[x as usize];
                (hop_stays(x, s, n) && prev_sibling[s as usize] == x).then_some(s)
            };
            chains(set, n, strip, false, right, right)
        }
        Axis::PrecedingSibling => {
            let prev_sibling = doc.prev_sibling_ids();
            let left = |x: u32| back(prev_sibling, x);
            chains(set, n, strip, true, left, left)
        }
        Axis::SelfAxis => {
            let mut out = set.clone();
            if typed {
                out.subtract_words(strip);
            }
            (out.adapt(), Kernel::BulkSparse)
        }
        Axis::Child => {
            // Children of distinct parents are disjoint, so the walk
            // never produces duplicates; track sortedness inline and
            // sort only when an out-of-order push actually happened
            // (nested parents interleave their child ranges).
            let mut out = pool::take_ids();
            let mut prev = NONE;
            let mut sorted = true;
            for x in set {
                // The hop from `x + 1` inside `x`'s interval (as in
                // `Document::children`, with the column read once).
                let (mut c, end) = (x.0 + 1, subtree_end[x.index()]);
                if c >= end {
                    continue; // a leaf
                }
                let end = end.min(n);
                while c < end {
                    if !typed || !is_special(strip, c) {
                        sorted &= prev == NONE || c > prev;
                        prev = c;
                        out.push(NodeId(c));
                    }
                    let next = subtree_end[c as usize];
                    if !hop_stays(c, next, end) {
                        break;
                    }
                    c = next;
                }
            }
            if !sorted {
                // The dedup is for damaged intervals, which can repeat a
                // child.
                out.sort_unstable();
                out.dedup();
            }
            (NodeSet::from_sorted(out), Kernel::BulkSparse)
        }
        Axis::Attribute | Axis::Namespace => {
            let want =
                if axis == Axis::Attribute { NodeKind::Attribute } else { NodeKind::Namespace };
            let mut out = pool::take_ids();
            for x in set {
                out.extend(doc.children(x).filter(|&c| doc.kind(c) == want));
            }
            (NodeSet::from_unsorted(out), Kernel::BulkSparse)
        }
        Axis::Parent => {
            let mut out = pool::take_ids();
            out.extend(set.iter().map(|x| parent[x.index()]).filter(|&p| p != NONE).map(NodeId));
            out.sort_unstable();
            out.dedup();
            (NodeSet::from_sorted(out), Kernel::BulkSparse)
        }
        Axis::Id => {
            let mut out = NodeSet::empty_dense(n);
            for x in set {
                for y in doc.deref_ids(doc.string_value(x)) {
                    out.insert(y);
                }
            }
            (out.adapt(), Kernel::BulkSparse)
        }
    }
}

/// Does the interval hop from `c` to `next` stay inside a run that ends
/// at `end` (`c < end ≤` the column length)? That is `c < next < end`
/// in one unsigned compare: a hop that does not advance, which only
/// damaged intervals hold, wraps around and fails it, so every walk ends
/// in bounds without a second test on the loop-carried hop.
#[inline]
fn hop_stays(c: u32, next: u32, end: u32) -> bool {
    next.wrapping_sub(c + 1) < end.wrapping_sub(c + 1)
}

/// `following-sibling` (or, `DESCENDING`, `preceding-sibling`) of a
/// sparse input (two or more nodes, below [`NodeSet::dense_threshold`]),
/// emitted in document order with no bitset over the document and no
/// sort.
///
/// Inputs with one parent share the run after the first of them (before
/// the last), so only that input starts a run. Runs of distinct parents
/// are disjoint and nest: a run started later lies inside the subtree of
/// one node of each run still open. So the open runs form a stack,
/// innermost last, whose next nodes grow outward, and taking the inputs
/// in chain order, each input first emits every open node on its near
/// side, innermost run first. The pass is `O(|S| + |output|)`.
fn sibling_runs<const DESCENDING: bool>(
    set: &NodeSet,
    parent: &[u32],
    subtree_end: &[u32],
    prev_sibling: &[u32],
    strip: &[u64],
) -> (NodeSet, Kernel) {
    // Each open run's next node and the end of its parent's interval.
    let mut open = pool::take_ranges();
    let mut out = pool::take_ids();
    // Emit the open nodes before `y` in chain order (all of them when
    // `y` is `None`), dropping the runs that end.
    let flush = |open: &mut Vec<(u32, u32)>, out: &mut Vec<NodeId>, y: Option<u32>| {
        while let Some((c, end)) = open.last_mut() {
            while *c < *end && y.is_none_or(|y| if DESCENDING { *c > y } else { *c < y }) {
                if strip.is_empty() || !is_special(strip, *c) {
                    out.push(NodeId(*c));
                }
                *c = if DESCENDING {
                    back(prev_sibling, *c).unwrap_or(NONE)
                } else {
                    let next = subtree_end[*c as usize];
                    if hop_stays(*c, next, *end) {
                        next
                    } else {
                        *end
                    }
                };
            }
            if *c < *end {
                return;
            }
            open.pop();
        }
    };
    let ids = set.to_vec();
    for i in 0..ids.len() {
        let y = ids[if DESCENDING { ids.len() - 1 - i } else { i }].0;
        flush(&mut open, &mut out, Some(y));
        let p = parent[y as usize];
        // A live next node of the innermost run is a sibling of `y` iff
        // `y`'s parent started it.
        if open.last().is_some_and(|&(c, _)| parent[c as usize] == p) {
            continue;
        }
        let run = if DESCENDING {
            (back(prev_sibling, y).unwrap_or(NONE), NONE)
        } else {
            (subtree_end[y as usize], run_end(subtree_end, p))
        };
        if run.0 < run.1 {
            open.push(run);
        }
    }
    flush(&mut open, &mut out, None);
    pool::give_ranges(open);
    pool::give_ids(ids);
    if DESCENDING {
        out.reverse();
    }
    // Ascending unless damaged links broke the nesting.
    (NodeSet::from_unsorted(out), Kernel::BulkSparse)
}

/// The exclusive end of a sibling run whose parent is `p`: `p`'s subtree
/// end clamped to the column, or 0 (no run) for the root's `NONE` and
/// for a parent link outside the document, which only damaged data holds.
#[inline]
fn run_end(subtree_end: &[u32], p: u32) -> u32 {
    subtree_end.get(p as usize).map_or(0, |&e| e.min(subtree_end.len() as u32))
}

/// Materialize an interval axis's ranges; the representation
/// [`NodeSet::from_ranges`] picked is the kernel that ran.
fn from_ranges(ranges: &[(u32, u32)], len: usize, n: u32, specials: &[u64]) -> (NodeSet, Kernel) {
    let out = NodeSet::from_ranges(ranges, len, n, specials);
    let kernel = if out.is_dense() { Kernel::BulkDense } else { Kernel::BulkSparse };
    (out, kernel)
}

/// The link `links[x]` if it points strictly back (every `parent` and
/// `prev_sibling` link does): [`NONE`] and a damaged quick-opened link
/// both end the walk, so every backward chain ends in bounds.
#[inline]
fn back(links: &[u32], x: u32) -> Option<u32> {
    let v = links[x as usize];
    (v < x).then_some(v)
}

/// A chain axis: `start(x)` is the first node of `x`'s chain and `next`
/// follows it, both `None` at the end and strictly monotone (toward
/// smaller ids if `descending`), so every chain ends in bounds.
/// `strip` is the §4 mask a typed axis subtracts
/// (`&[]` for an untyped one). A single input node walks its chain into a sorted vector; any
/// other input marks every chain into a dense bitset, and a chain stops
/// at the first node an earlier one marked (everything past it is marked
/// too), so the pass is `O(|S| + |output|)`.
fn chains(
    set: &NodeSet,
    n: u32,
    strip: &[u64],
    descending: bool,
    start: impl Fn(u32) -> Option<u32>,
    next: impl Fn(u32) -> Option<u32>,
) -> (NodeSet, Kernel) {
    if set.len() == 1 {
        let x = set.first().expect("one element");
        let mut out = pool::take_ids();
        let mut at = start(x.0);
        while let Some(c) = at {
            if strip.is_empty() || !is_special(strip, c) {
                out.push(NodeId(c));
            }
            at = next(c);
        }
        if descending {
            out.reverse();
        }
        return (NodeSet::from_sorted(out), Kernel::PerNode);
    }
    let mut out = NodeSet::empty_dense(n);
    for x in set {
        let mut at = start(x.0);
        while let Some(c) = at.filter(|&c| !out.contains(NodeId(c))) {
            out.insert(NodeId(c));
            at = next(c);
        }
    }
    if !strip.is_empty() {
        out.subtract_words(strip);
    }
    (out.adapt(), Kernel::BulkDense)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regex::eval_axis_untyped;
    use xpath_xml::generate::{
        doc_balanced, doc_bookstore, doc_figure8, doc_flat, doc_random, RandomDocConfig,
    };
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

    const INTERVAL_AXES: [Axis; 4] =
        [Axis::Descendant, Axis::DescendantOrSelf, Axis::Following, Axis::Preceding];
    const CHAIN_AXES: [Axis; 4] =
        [Axis::Ancestor, Axis::AncestorOrSelf, Axis::FollowingSibling, Axis::PrecedingSibling];

    fn check_doc(doc: &Document, seed: u64) {
        let mut rng = Rng::seed_from_u64(seed);
        let n = doc.len() as u32;
        // A spread of densities: empty, singletons, sparse, dense, full.
        let mut sets: Vec<Vec<NodeId>> = vec![
            Vec::new(),
            doc.all_nodes().collect(),
            doc.all_nodes().filter(|x| x.0 % 7 == 1).collect(),
        ];
        for p in [0.02, 0.3, 0.8] {
            sets.push((0..n).filter(|_| rng.random_bool(p)).map(NodeId).collect());
        }
        for x in doc.all_nodes().take(8) {
            sets.push(vec![x]);
        }
        // Which materializations each interval axis took: [sparse, dense].
        // Empty results are sparse, so an axis whose results are all empty
        // on this document (`following` on a one-element tree) is exempt
        // from the dense half.
        let mut seen = [[false; 2]; INTERVAL_AXES.len()];
        let mut nonempty = [false; INTERVAL_AXES.len()];
        for ids in sets {
            let sparse = NodeSet::from_sorted(ids.clone());
            let dense = sparse.clone().densify(n);
            for axis in Axis::STANDARD {
                let reference = typed_reference(doc, axis, &ids);
                let fast = crate::fast::eval_axis(doc, axis, &ids);
                assert_eq!(fast, reference, "fast vs alg3.2 {axis:?} seed {seed}");
                for (repr, input) in [("sparse", &sparse), ("dense", &dense)] {
                    let (got, kernel) = axis_set_traced(doc, axis, input);
                    assert_eq!(
                        got.to_vec(),
                        reference,
                        "bulk({repr})={kernel:?} vs reference {axis:?} seed {seed} |S|={}",
                        ids.len()
                    );
                    let ids_out: Vec<u32> = got.iter().map(|x| x.0).collect();
                    assert!(ids_out.windows(2).all(|w| w[0] < w[1]), "doc order {axis:?}");
                    if let Some(i) = INTERVAL_AXES.iter().position(|&a| a == axis) {
                        assert_eq!(got.is_dense(), kernel == Kernel::BulkDense, "{axis:?}");
                        seen[i][usize::from(got.is_dense())] = true;
                        nonempty[i] |= !got.is_empty();
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
        for ((axis, [sparse, dense]), nonempty) in INTERVAL_AXES.iter().zip(seen).zip(nonempty) {
            assert!(
                sparse && (dense || !nonempty),
                "{axis:?} seed {seed}: sparse {sparse}, dense {dense}"
            );
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
                for &x in ids.iter().step_by(5) {
                    let one = NodeSet::singleton(x);
                    let want = crate::fast::inverse_axis_set(&doc, axis, &[x]);
                    assert_eq!(inverse_axis_set(&doc, axis, &one).to_vec(), want, "{axis:?} {x:?}");
                }
            }
        }
    }

    /// The single-node bound: on a document
    /// whose bitset is thousands of words, a single input node on a chain
    /// axis walks its chain (never a pass over the document's words);
    /// two input nodes mark densely on the ancestor axes and walk their
    /// runs into a vector on the sibling axes — all equal to Algorithm 3.2.
    #[test]
    fn single_node_chain_walks_stay_per_node_on_large_documents() {
        let doc = doc_balanced(10, 5, &["a", "b", "c", "d"]);
        assert!(doc.len() >= 100_000, "{} nodes", doc.len());
        let leaf = doc.all_nodes().last().expect("non-empty document");
        let middle = NodeId(doc.len() as u32 / 2);
        let inner = doc.parent(middle).expect("middle node has a parent");
        for axis in CHAIN_AXES {
            for x in [doc.root(), inner, middle, leaf] {
                let (got, kernel) = axis_set_traced(&doc, axis, &NodeSet::singleton(x));
                assert_eq!(kernel, Kernel::PerNode, "{axis:?} from {x:?}");
                assert_eq!(got.to_vec(), crate::typed::eval_axis_alg32(&doc, axis, &[x]));
            }
            let pair = [inner, middle];
            let (got, kernel) = axis_set_traced(&doc, axis, &NodeSet::from_sorted(pair.to_vec()));
            let sibling = matches!(axis, Axis::FollowingSibling | Axis::PrecedingSibling);
            let want = if sibling { Kernel::BulkSparse } else { Kernel::BulkDense };
            assert_eq!(kernel, want, "{axis:?} from {pair:?}");
            assert_eq!(got.to_vec(), crate::typed::eval_axis_alg32(&doc, axis, &pair));
        }
    }

    /// `sibling_runs` takes every sibling-axis input from two nodes up to
    /// the density threshold: on documents large enough for that range to
    /// matter, sparse inputs of every size in it agree with Algorithm 3.2,
    /// typed and untyped.
    #[test]
    fn sparse_sibling_runs_match_reference() {
        let mut rng = Rng::seed_from_u64(26);
        let cfg = RandomDocConfig { elements: 600, ..RandomDocConfig::default() };
        for doc in [doc_balanced(4, 5, &["a", "b"]), doc_random(26, &cfg)] {
            let n = doc.len() as u32;
            let threshold = NodeSet::dense_threshold(n);
            for size in [2, 3, 5, threshold / 2, threshold - 1] {
                let mut ids: Vec<NodeId> =
                    (0..size).map(|_| NodeId(rng.random_range(0..n))).collect();
                ids.sort_unstable();
                ids.dedup();
                let set = NodeSet::from_sorted(ids.clone());
                for axis in [Axis::FollowingSibling, Axis::PrecedingSibling] {
                    let (got, kernel) = axis_set_traced(&doc, axis, &set);
                    assert_eq!(got.to_vec(), typed_reference(&doc, axis, &ids), "{axis:?} {size}");
                    assert_eq!(kernel, Kernel::BulkSparse, "{axis:?} {size}");
                    assert_eq!(
                        axis_set_untyped(&doc, axis, &set).to_vec(),
                        eval_axis_untyped(&doc, axis, &ids),
                        "untyped {axis:?} {size}"
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
