//! The engine-wide node-set currency: an adaptive hybrid of a **dense
//! bitset** over preorder ids and a **sorted vector**.
//!
//! # Invariants
//!
//! * A `NodeSet` is a *set* of [`NodeId`]s: duplicate-free, and iteration
//!   always yields **document order** (ascending id — the arena emits nodes
//!   in preorder, so id order *is* the `<doc` relation of §4 of the paper).
//! * The sparse representation is a strictly ascending `Vec<NodeId>`.
//! * The dense representation is a machine-word bitset over the id space
//!   `[0, universe)`; all bits at positions `>= universe` (the padding of
//!   the last word) are **always zero**, so word-parallel operations need
//!   no masking and popcounts are exact.
//! * Equality, hashing-free comparisons, and ordering of results are
//!   defined on the *set contents*, never on the representation: a bitset
//!   and a sorted vector holding the same ids compare equal.
//!
//! # Adaptivity
//!
//! Union/intersection/difference on two bitsets are word-parallel
//! (`O(universe/64)`); on two vectors they are linear merges (`O(n)`).
//! Mixed operations pick the cheaper side. Constructors that know the
//! document size choose the representation by density
//! ([`NodeSet::DENSE_NUM`]/[`NodeSet::DENSE_DEN`]); [`NodeSet::adapt`]
//! re-evaluates the choice after bulk mutations. The §3 axis engines
//! (`xpath-axes::bulk`) build dense sets for range-shaped axes
//! (descendant/following/preceding) and sparse sets for pointer-chasing
//! axes (parent/siblings), then let the set adapt.

use crate::node::NodeId;
use crate::{pool, simd};

/// Number of bits per bitset word.
const WORD_BITS: u32 = 64;

/// A set of document nodes, iterated in document order.
///
/// See the [module docs](self) for invariants and the representation
/// strategy.
///
/// # Buffer recycling
///
/// `Clone` and `Drop` route the backing buffers through the
/// thread-local [`pool`], so transient sets created during evaluation
/// reuse capacity instead of hitting the allocator — see the pool's
/// module docs for the steady-state guarantee.
pub struct NodeSet {
    repr: Repr,
}

enum Repr {
    /// Strictly ascending, duplicate-free.
    Vec(Vec<NodeId>),
    /// Dense bitset over `[0, universe)`; padding bits are zero; `len`
    /// caches the popcount.
    Bits { words: Vec<u64>, universe: u32, len: u32 },
}

impl NodeSet {
    /// Densification threshold: a set over a universe of `u` ids goes
    /// dense when `len * DENSE_DEN >= u * DENSE_NUM` (density ≥ 1/32).
    /// At that point the bitset is at most 4× the vector's memory and the
    /// word-parallel set operations win by a wide margin.
    pub const DENSE_NUM: u64 = 1;
    /// See [`NodeSet::DENSE_NUM`].
    pub const DENSE_DEN: u64 = 32;

    /// The empty set (sparse representation, recycled capacity).
    #[inline]
    pub fn new() -> NodeSet {
        NodeSet { repr: Repr::Vec(pool::take_ids()) }
    }

    /// The empty set with a dense bitset over `[0, universe)` — the
    /// starting point for bulk builders that expect dense results.
    pub fn empty_dense(universe: u32) -> NodeSet {
        let mut words = pool::take_words();
        words.resize(universe.div_ceil(WORD_BITS) as usize, 0);
        NodeSet { repr: Repr::Bits { words, universe, len: 0 } }
    }

    /// The full set `[0, universe)` (dense).
    pub fn full(universe: u32) -> NodeSet {
        let mut s = NodeSet::empty_dense(universe);
        s.insert_range(0, universe);
        s
    }

    /// A one-element set.
    pub fn singleton(n: NodeId) -> NodeSet {
        let mut v = pool::take_ids();
        v.push(n);
        NodeSet { repr: Repr::Vec(v) }
    }

    /// Build from a vector already in strictly ascending document order.
    pub fn from_sorted(v: Vec<NodeId>) -> NodeSet {
        debug_assert!(v.windows(2).all(|w| w[0] < w[1]), "input must be sorted and deduped");
        NodeSet { repr: Repr::Vec(v) }
    }

    /// Build from an arbitrary vector: sorts and deduplicates unless the
    /// input is already strictly ascending (checked in `O(n)`).
    pub fn from_unsorted(mut v: Vec<NodeId>) -> NodeSet {
        if !v.windows(2).all(|w| w[0] < w[1]) {
            v.sort_unstable();
            v.dedup();
        }
        NodeSet { repr: Repr::Vec(v) }
    }

    /// Number of nodes in the set.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Vec(v) => v.len(),
            Repr::Bits { len, .. } => *len as usize,
        }
    }

    /// Is the set empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Is the set currently held as a dense bitset? (Exposed for tests and
    /// the representation micro-benchmarks.)
    pub fn is_dense(&self) -> bool {
        matches!(self.repr, Repr::Bits { .. })
    }

    /// Membership test: `O(log n)` sparse, `O(1)` dense.
    #[inline]
    pub fn contains(&self, n: NodeId) -> bool {
        match &self.repr {
            Repr::Vec(v) => v.binary_search(&n).is_ok(),
            Repr::Bits { words, universe, .. } => {
                n.0 < *universe && words[(n.0 / WORD_BITS) as usize] >> (n.0 % WORD_BITS) & 1 == 1
            }
        }
    }

    /// The first node in document order.
    pub fn first(&self) -> Option<NodeId> {
        match &self.repr {
            Repr::Vec(v) => v.first().copied(),
            Repr::Bits { words, .. } => {
                for (i, &w) in words.iter().enumerate() {
                    if w != 0 {
                        return Some(NodeId(i as u32 * WORD_BITS + w.trailing_zeros()));
                    }
                }
                None
            }
        }
    }

    /// The last node in document order.
    pub fn last(&self) -> Option<NodeId> {
        match &self.repr {
            Repr::Vec(v) => v.last().copied(),
            Repr::Bits { words, .. } => {
                for (i, &w) in words.iter().enumerate().rev() {
                    if w != 0 {
                        return Some(NodeId(
                            i as u32 * WORD_BITS + (WORD_BITS - 1 - w.leading_zeros()),
                        ));
                    }
                }
                None
            }
        }
    }

    /// The `i`-th node in document order: `O(1)` sparse, `O(universe/64)`
    /// dense (word-popcount select).
    pub fn get(&self, i: usize) -> Option<NodeId> {
        match &self.repr {
            Repr::Vec(v) => v.get(i).copied(),
            Repr::Bits { words, len, .. } => {
                if i >= *len as usize {
                    return None;
                }
                let mut remaining = i as u32;
                for (wi, &w) in words.iter().enumerate() {
                    let pop = w.count_ones();
                    if remaining < pop {
                        // Select the (remaining+1)-th set bit of w.
                        let mut w = w;
                        for _ in 0..remaining {
                            w &= w - 1; // clear lowest set bit
                        }
                        return Some(NodeId(wi as u32 * WORD_BITS + w.trailing_zeros()));
                    }
                    remaining -= pop;
                }
                None
            }
        }
    }

    /// Iterate the nodes in document order.
    pub fn iter(&self) -> Iter<'_> {
        match &self.repr {
            Repr::Vec(v) => Iter::Vec(v.iter()),
            Repr::Bits { words, .. } => {
                Iter::Bits { words, word_idx: 0, current: words.first().copied().unwrap_or(0) }
            }
        }
    }

    /// Copy out the ids as a sorted vector (recycled capacity).
    pub fn to_vec(&self) -> Vec<NodeId> {
        match &self.repr {
            Repr::Vec(v) => {
                let mut out = pool::take_ids();
                out.extend_from_slice(v);
                out
            }
            Repr::Bits { words, len, .. } => collect_sparse(words, *len as usize, |_, x| x),
        }
    }

    /// Consume into a sorted vector (free for the sparse representation;
    /// the bitset's words are recycled for the dense one).
    pub fn into_vec(mut self) -> Vec<NodeId> {
        match std::mem::replace(&mut self.repr, Repr::Vec(Vec::new())) {
            Repr::Vec(v) => v,
            Repr::Bits { words, len, .. } => {
                let out = collect_sparse(&words, len as usize, |_, x| x);
                pool::give_words(words);
                out
            }
        }
    }

    /// Borrow the sorted id slice if the set is sparse (dense sets have no
    /// materialized slice).
    pub fn as_sorted_slice(&self) -> Option<&[NodeId]> {
        match &self.repr {
            Repr::Vec(v) => Some(v),
            Repr::Bits { .. } => None,
        }
    }

    /// Insert one node, keeping the invariants. Amortized `O(1)` when
    /// inserting in ascending document order.
    pub fn insert(&mut self, n: NodeId) {
        match &mut self.repr {
            Repr::Vec(v) => match v.last() {
                Some(&last) if last < n => v.push(n),
                Some(_) => {
                    if let Err(pos) = v.binary_search(&n) {
                        v.insert(pos, n);
                    }
                }
                None => v.push(n),
            },
            Repr::Bits { words, universe, len } => {
                if n.0 >= *universe {
                    *universe = n.0 + 1;
                    words.resize(universe.div_ceil(WORD_BITS) as usize, 0);
                }
                let w = &mut words[(n.0 / WORD_BITS) as usize];
                let bit = 1u64 << (n.0 % WORD_BITS);
                if *w & bit == 0 {
                    *w |= bit;
                    *len += 1;
                }
            }
        }
    }

    /// Insert the id range `[lo, hi)` — word-parallel on the dense
    /// representation (the shape every interval axis produces).
    pub fn insert_range(&mut self, lo: u32, hi: u32) {
        if lo >= hi {
            return;
        }
        match &mut self.repr {
            Repr::Vec(v) => {
                v.extend((lo..hi).map(NodeId));
                let v = std::mem::take(v);
                *self = NodeSet::from_unsorted(v);
            }
            Repr::Bits { words, universe, len } => {
                if hi > *universe {
                    *universe = hi;
                    words.resize(universe.div_ceil(WORD_BITS) as usize, 0);
                }
                let (lw, lb) = ((lo / WORD_BITS) as usize, lo % WORD_BITS);
                let (hw, hb) = ((hi / WORD_BITS) as usize, hi % WORD_BITS);
                let lo_mask = u64::MAX << lb;
                let hi_mask = if hb == 0 { 0 } else { u64::MAX >> (WORD_BITS - hb) };
                let mut added = 0u32;
                if lw == hw {
                    let m = lo_mask & hi_mask;
                    added += (m & !words[lw]).count_ones();
                    words[lw] |= m;
                } else {
                    added += (lo_mask & !words[lw]).count_ones();
                    words[lw] |= lo_mask;
                    added += simd::fill_ones_count_added(&mut words[lw + 1..hw]) as u32;
                    if hb != 0 {
                        added += (hi_mask & !words[hw]).count_ones();
                        words[hw] |= hi_mask;
                    }
                }
                *len += added;
            }
        }
    }

    /// Keep only the nodes satisfying `pred`, preserving document order.
    pub fn retain(&mut self, mut pred: impl FnMut(NodeId) -> bool) {
        match &mut self.repr {
            Repr::Vec(v) => v.retain(|&n| pred(n)),
            Repr::Bits { words, len, .. } => {
                let mut removed = 0u32;
                for (wi, w) in words.iter_mut().enumerate() {
                    let mut scan = *w;
                    while scan != 0 {
                        let bit = scan & scan.wrapping_neg();
                        let id = wi as u32 * WORD_BITS + bit.trailing_zeros();
                        if !pred(NodeId(id)) {
                            *w &= !bit;
                            removed += 1;
                        }
                        scan ^= bit;
                    }
                }
                *len -= removed;
            }
        }
    }

    // ----- set algebra -----

    /// Set union, in document order.
    pub fn union(&self, other: &NodeSet) -> NodeSet {
        match (&self.repr, &other.repr) {
            (Repr::Vec(a), Repr::Vec(b)) => NodeSet::from_sorted(merge_union(a, b)),
            (Repr::Bits { .. }, _) | (_, Repr::Bits { .. }) => {
                let (bits, other) =
                    if self.is_dense() { (self.clone(), other) } else { (other.clone(), self) };
                let mut out = bits;
                out.union_with(other);
                out
            }
        }
    }

    /// In-place union: `self ∪= other`.
    pub fn union_with(&mut self, other: &NodeSet) {
        if other.is_empty() {
            return;
        }
        match (&mut self.repr, &other.repr) {
            (Repr::Vec(a), Repr::Vec(b)) => {
                let merged = merge_union(a, b);
                *a = merged;
            }
            (
                Repr::Bits { words, universe, len },
                Repr::Bits { words: ow, universe: ou, len: _ },
            ) => {
                if *ou > *universe {
                    *universe = *ou;
                    words.resize(ou.div_ceil(WORD_BITS) as usize, 0);
                }
                *len = simd::or_assign_count(words, ow) as u32;
            }
            (Repr::Bits { .. }, Repr::Vec(b)) => {
                for &n in b {
                    self.insert(n);
                }
            }
            (Repr::Vec(_), Repr::Bits { .. }) => {
                let mut bits = other.clone();
                bits.union_with(self);
                *self = bits;
            }
        }
    }

    /// Set intersection, in document order.
    pub fn intersect(&self, other: &NodeSet) -> NodeSet {
        match (&self.repr, &other.repr) {
            (Repr::Vec(a), Repr::Vec(b)) => {
                let mut out = pool::take_ids();
                out.reserve(a.len().min(b.len()));
                let (mut i, mut j) = (0, 0);
                while i < a.len() && j < b.len() {
                    match a[i].cmp(&b[j]) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => {
                            out.push(a[i]);
                            i += 1;
                            j += 1;
                        }
                    }
                }
                NodeSet::from_sorted(out)
            }
            (
                Repr::Bits { words: a, universe, len: alen },
                Repr::Bits { words: b, len: blen, .. },
            ) => {
                // The result can't exceed the smaller operand; when that
                // bound is already below the dense threshold, fuse the
                // word sweep with the sparse collection instead of
                // materializing an intermediate bitset that `adapt` would
                // immediately tear back down (the measured low-density
                // slow path in BENCH_axes set_ops).
                if sparse_bound(*alen.min(blen), *universe) {
                    let cap = *alen.min(blen) as usize;
                    return NodeSet::from_sorted(collect_sparse(a, cap, |i, x| {
                        x & b.get(i).copied().unwrap_or(0)
                    }));
                }
                let mut words = pool::take_words();
                words.resize(a.len(), 0);
                let len = simd::and_into_count(a, b, &mut words) as u32;
                NodeSet { repr: Repr::Bits { words, universe: *universe, len } }.adapt()
            }
            // One sparse side: filter it through the dense side.
            (Repr::Vec(v), Repr::Bits { .. }) => {
                NodeSet::from_sorted(pooled_filter(v, |n| other.contains(n)))
            }
            (Repr::Bits { .. }, Repr::Vec(v)) => {
                NodeSet::from_sorted(pooled_filter(v, |n| self.contains(n)))
            }
        }
    }

    /// Set difference `self − other`, in document order.
    pub fn difference(&self, other: &NodeSet) -> NodeSet {
        match (&self.repr, &other.repr) {
            (Repr::Vec(a), Repr::Vec(b)) => {
                let mut out = pool::take_ids();
                out.reserve(a.len());
                let mut j = 0;
                for &x in a {
                    while j < b.len() && b[j] < x {
                        j += 1;
                    }
                    if j >= b.len() || b[j] != x {
                        out.push(x);
                    }
                }
                NodeSet::from_sorted(out)
            }
            (Repr::Bits { words: a, universe, len: alen }, Repr::Bits { words: b, .. }) => {
                // `self − other ⊆ self`: a sparse receiver means a sparse
                // result, so collect ids in the same sweep (see intersect).
                if sparse_bound(*alen, *universe) {
                    return NodeSet::from_sorted(collect_sparse(a, *alen as usize, |i, x| {
                        x & !b.get(i).copied().unwrap_or(0)
                    }));
                }
                let mut words = pool::take_words();
                words.resize(a.len(), 0);
                let len = simd::andnot_into_count(a, b, &mut words) as u32;
                NodeSet { repr: Repr::Bits { words, universe: *universe, len } }.adapt()
            }
            (Repr::Vec(v), Repr::Bits { .. }) => {
                NodeSet::from_sorted(pooled_filter(v, |n| !other.contains(n)))
            }
            (Repr::Bits { .. }, Repr::Vec(_)) => {
                let mut out = self.clone();
                out.difference_with(other);
                out
            }
        }
    }

    /// In-place difference: `self −= other`.
    pub fn difference_with(&mut self, other: &NodeSet) {
        match (&mut self.repr, &other.repr) {
            (Repr::Bits { words, len, .. }, Repr::Bits { words: ow, .. }) => {
                *len = simd::andnot_assign_count(words, ow) as u32;
            }
            (Repr::Bits { words, universe, len }, Repr::Vec(v)) => {
                for &n in v {
                    if n.0 < *universe {
                        let w = &mut words[(n.0 / WORD_BITS) as usize];
                        let bit = 1u64 << (n.0 % WORD_BITS);
                        if *w & bit != 0 {
                            *w &= !bit;
                            *len -= 1;
                        }
                    }
                }
            }
            (Repr::Vec(v), _) => v.retain(|&n| !other.contains(n)),
        }
    }

    /// Subtract a raw bitset mask (one bit per id, e.g.
    /// [`AxisIndex::special_words`](crate::axis_index::AxisIndex::special_words)):
    /// word-parallel on the dense representation, a per-id bit test on the
    /// sparse one.
    pub fn subtract_words(&mut self, mask: &[u64]) {
        match &mut self.repr {
            Repr::Bits { words, len, .. } => {
                *len = simd::andnot_assign_count(words, mask) as u32;
            }
            Repr::Vec(v) => v.retain(|&n| {
                mask.get((n.0 / WORD_BITS) as usize).is_none_or(|w| w >> (n.0 % WORD_BITS) & 1 == 0)
            }),
        }
    }

    /// Complement with respect to the universe `[0, universe)` —
    /// word-parallel.
    pub fn complement(&self, universe: u32) -> NodeSet {
        let mut out = NodeSet::full(universe);
        out.difference_with(self);
        out
    }

    /// Re-evaluate the representation choice against `universe`: dense
    /// sets sparser than 1/32 flip to the vector representation. (Sparse
    /// sets are never force-densified here; the bulk builders create dense
    /// sets directly when the shape warrants it.)
    pub fn adapt(self) -> NodeSet {
        match &self.repr {
            Repr::Bits { universe, len, words } if sparse_bound(*len, *universe) => {
                // `self` drops on return, recycling the bitset words.
                NodeSet::from_sorted(collect_sparse(words, *len as usize, |_, x| x))
            }
            _ => self,
        }
    }

    /// Convert to the dense representation over `[0, universe)` if not
    /// already dense. Every id must be `< universe`.
    pub fn densify(mut self, universe: u32) -> NodeSet {
        match std::mem::replace(&mut self.repr, Repr::Vec(Vec::new())) {
            bits @ Repr::Bits { .. } => NodeSet { repr: bits },
            Repr::Vec(v) => {
                let mut out = NodeSet::empty_dense(universe);
                for &n in &v {
                    out.insert(n);
                }
                pool::give_ids(v);
                out
            }
        }
    }

    /// A cheap 64-bit content hash: the XOR of a per-word `splitmix64`
    /// mix ([`simd::fp_mix`]) over the set's nonzero bitset words
    /// (synthesized on the fly for the sparse representation), combined
    /// with a cardinality-seeded header. XOR combination makes the hash
    /// independent of word order, which is what lets the vector tier
    /// compute eight lanes at once and the sparse side emit words as ids
    /// stream by.
    ///
    /// Two sets with equal contents fingerprint equally **regardless of
    /// representation** — a dense bitset and a sorted vector holding the
    /// same ids produce the same value — so the fingerprint can key
    /// memo tables across repr boundaries (the batched query evaluator's
    /// `(axis, node-test, input-fingerprint)` axis-result cache). Cost is
    /// `O(words)` dense and `O(len)` sparse; distinct sets collide
    /// with probability ~2⁻⁶⁴ per pair, which the memo consumers accept.
    pub fn fingerprint(&self) -> u64 {
        use crate::rng::splitmix64;
        let seed = splitmix64(0x9E37_79B9_7F4A_7C15 ^ self.len() as u64);
        match &self.repr {
            Repr::Bits { words, .. } => seed ^ simd::fingerprint_words(words),
            Repr::Vec(v) => {
                // Synthesize the (word index, word) pairs the dense side
                // would hash: group ascending ids by word index; each
                // completed word contributes one XOR term.
                let mut acc = 0u64;
                let mut wi = u64::MAX;
                let mut w = 0u64;
                for n in v {
                    let i = u64::from(n.0 / WORD_BITS);
                    if i != wi {
                        if wi != u64::MAX {
                            acc ^= simd::fp_mix(wi, w);
                        }
                        wi = i;
                        w = 0;
                    }
                    w |= 1u64 << (n.0 % WORD_BITS);
                }
                if wi != u64::MAX {
                    acc ^= simd::fp_mix(wi, w);
                }
                seed ^ acc
            }
        }
    }

    /// A cheap 64-bit **memo key**: like [`NodeSet::fingerprint`] but
    /// optimized for keying axis-result caches, where a key mismatch is
    /// only ever a cache miss, never a wrong answer.
    ///
    /// * **Sparse** (`Vec`) inputs hash the raw id slice with one
    ///   sequential `splitmix64` chain — `O(len)` with one mix per id,
    ///   touching **no bitset word buffers** (no pooled takes, no word
    ///   synthesis; pinned by a `PoolStats` unit test). This is strictly
    ///   cheaper than `fingerprint`'s word-grouping emulation.
    /// * **Dense** (`Bits`) inputs reuse the vectorized word
    ///   fingerprint.
    ///
    /// The trade: unlike `fingerprint`, the key is **not**
    /// representation-independent (a sparse and a dense set with equal
    /// contents key differently — the chain is order-sensitive and the
    /// domains are disjoint by construction, sparse keys being
    /// re-mixed through a repr tag). Memo consumers (`AxisMemo`) accept
    /// that: cross-repr sharing was already rare, and the sparse keying
    /// cost is what gates lock-step sharing on small frontier sets.
    pub fn memo_key(&self) -> u64 {
        use crate::rng::splitmix64;
        match &self.repr {
            Repr::Bits { .. } => splitmix64(0xB175_E7A1 ^ self.fingerprint()),
            Repr::Vec(v) => {
                let mut h = splitmix64(0x5BA5_E000 ^ v.len() as u64);
                for n in v {
                    h = splitmix64(h ^ u64::from(n.0));
                }
                h
            }
        }
    }

    // ----- id-range projection -----

    /// The subset of `self` with ids in `[lo, hi)` — how the lazy cursor
    /// cuts one window out of a step's candidates. `O(log n)` + a copy on
    /// the sparse representation; a masked word copy on the dense one.
    /// The result keeps `self`'s representation.
    pub fn restrict_range(&self, lo: u32, hi: u32) -> NodeSet {
        if lo >= hi {
            return NodeSet::new();
        }
        match &self.repr {
            Repr::Vec(v) => {
                let start = v.partition_point(|n| n.0 < lo);
                let end = v.partition_point(|n| n.0 < hi);
                let mut out = pool::take_ids();
                out.extend_from_slice(&v[start..end]);
                NodeSet::from_sorted(out)
            }
            Repr::Bits { words, universe, .. } => {
                let hi = hi.min(*universe);
                if lo >= hi {
                    return NodeSet::new();
                }
                let mut out = pool::take_words();
                out.resize(words.len(), 0);
                let (lw, lb) = ((lo / WORD_BITS) as usize, lo % WORD_BITS);
                let (hw, hb) = ((hi / WORD_BITS) as usize, hi % WORD_BITS);
                let lo_mask = u64::MAX << lb;
                let hi_mask = if hb == 0 { 0 } else { u64::MAX >> (WORD_BITS - hb) };
                let mut len = 0u32;
                if lw == hw {
                    out[lw] = words[lw] & lo_mask & hi_mask;
                    len += out[lw].count_ones();
                } else {
                    out[lw] = words[lw] & lo_mask;
                    len += out[lw].count_ones();
                    len += simd::copy_into_count(&words[lw + 1..hw], &mut out[lw + 1..hw]) as u32;
                    if hb != 0 {
                        out[hw] = words[hw] & hi_mask;
                        len += out[hw].count_ones();
                    }
                }
                NodeSet { repr: Repr::Bits { words: out, universe: *universe, len } }
            }
        }
    }
}

/// Is a result bounded by `len` ids over `universe` guaranteed to end up
/// in the sparse representation after [`NodeSet::adapt`]?
#[inline]
fn sparse_bound(len: u32, universe: u32) -> bool {
    (len as u64) * NodeSet::DENSE_DEN < (universe as u64) * NodeSet::DENSE_NUM
}

/// One fused sweep over bitset words: apply `op` per word of `a` (by
/// index) and push the surviving ids, ascending. `cap` is an upper bound
/// on the result size (at most one growth of the recycled buffer).
fn collect_sparse(a: &[u64], cap: usize, op: impl Fn(usize, u64) -> u64) -> Vec<NodeId> {
    let mut out = pool::take_ids();
    out.reserve(cap);
    for (i, &x) in a.iter().enumerate() {
        let mut w = op(i, x);
        // Runs of consecutive set bits go through the vectorized id
        // writer; isolated bits fall back to per-bit pushes.
        while w != 0 {
            let lo = w.trailing_zeros();
            let run = (w >> lo).trailing_ones();
            let base = i as u32 * WORD_BITS + lo;
            simd::extend_id_run(&mut out, base, base + run);
            if run == WORD_BITS {
                break;
            }
            w &= !(((1u64 << run) - 1) << lo);
        }
    }
    out
}

/// Filter a sorted id slice into a recycled buffer.
fn pooled_filter(v: &[NodeId], mut keep: impl FnMut(NodeId) -> bool) -> Vec<NodeId> {
    let mut out = pool::take_ids();
    out.extend(v.iter().copied().filter(|&n| keep(n)));
    out
}

fn merge_union(a: &[NodeId], b: &[NodeId]) -> Vec<NodeId> {
    let mut out = pool::take_ids();
    out.reserve(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

impl Clone for NodeSet {
    /// Copies into recycled buffers (see the [`pool`] docs).
    fn clone(&self) -> NodeSet {
        match &self.repr {
            Repr::Vec(v) => {
                let mut out = pool::take_ids();
                out.extend_from_slice(v);
                NodeSet { repr: Repr::Vec(out) }
            }
            Repr::Bits { words, universe, len } => {
                let mut out = pool::take_words();
                out.extend_from_slice(words);
                NodeSet { repr: Repr::Bits { words: out, universe: *universe, len: *len } }
            }
        }
    }
}

impl Drop for NodeSet {
    /// Returns the backing buffer to this thread's [`pool`] shelf.
    fn drop(&mut self) {
        match std::mem::replace(&mut self.repr, Repr::Vec(Vec::new())) {
            Repr::Vec(v) => pool::give_ids(v),
            Repr::Bits { words, .. } => pool::give_words(words),
        }
    }
}

impl Default for NodeSet {
    fn default() -> NodeSet {
        NodeSet::new()
    }
}

impl PartialEq for NodeSet {
    fn eq(&self, other: &NodeSet) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for NodeSet {}

impl PartialEq<Vec<NodeId>> for NodeSet {
    fn eq(&self, other: &Vec<NodeId>) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter().copied())
    }
}

impl PartialEq<NodeSet> for Vec<NodeId> {
    fn eq(&self, other: &NodeSet) -> bool {
        other == self
    }
}

impl PartialEq<[NodeId]> for NodeSet {
    fn eq(&self, other: &[NodeId]) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter().copied())
    }
}

impl PartialEq<&[NodeId]> for NodeSet {
    fn eq(&self, other: &&[NodeId]) -> bool {
        self == *other
    }
}

impl std::fmt::Debug for NodeSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl From<Vec<NodeId>> for NodeSet {
    fn from(v: Vec<NodeId>) -> NodeSet {
        NodeSet::from_unsorted(v)
    }
}

impl From<NodeSet> for Vec<NodeId> {
    fn from(s: NodeSet) -> Vec<NodeId> {
        s.into_vec()
    }
}

impl FromIterator<NodeId> for NodeSet {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> NodeSet {
        let mut v = pool::take_ids();
        v.extend(iter);
        NodeSet::from_unsorted(v)
    }
}

/// Document-order iterator over a [`NodeSet`].
pub enum Iter<'a> {
    /// Sparse side: slice iteration.
    Vec(std::slice::Iter<'a, NodeId>),
    /// Dense side: word scanning.
    Bits {
        /// The bitset words.
        words: &'a [u64],
        /// Index of the word `current` was loaded from.
        word_idx: usize,
        /// Remaining bits of the current word.
        current: u64,
    },
}

impl Iterator for Iter<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        match self {
            Iter::Vec(it) => it.next().copied(),
            Iter::Bits { words, word_idx, current } => {
                while *current == 0 {
                    *word_idx += 1;
                    if *word_idx >= words.len() {
                        return None;
                    }
                    *current = words[*word_idx];
                }
                let bit = *current & current.wrapping_neg();
                *current ^= bit;
                Some(NodeId(*word_idx as u32 * WORD_BITS + bit.trailing_zeros()))
            }
        }
    }
}

impl<'a> IntoIterator for &'a NodeSet {
    type Item = NodeId;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl IntoIterator for NodeSet {
    type Item = NodeId;
    type IntoIter = std::vec::IntoIter<NodeId>;

    fn into_iter(self) -> std::vec::IntoIter<NodeId> {
        self.into_vec().into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn ns(v: &[u32]) -> NodeSet {
        NodeSet::from_sorted(v.iter().map(|&i| NodeId(i)).collect())
    }

    fn dense(v: &[u32], universe: u32) -> NodeSet {
        let mut s = NodeSet::empty_dense(universe);
        for &i in v {
            s.insert(NodeId(i));
        }
        s
    }

    #[test]
    fn union_merges_both_reprs() {
        let expect = ns(&[1, 2, 3, 5, 6]);
        for a in [ns(&[1, 3, 5]), dense(&[1, 3, 5], 100)] {
            for b in [ns(&[2, 3, 6]), dense(&[2, 3, 6], 100)] {
                assert_eq!(a.union(&b), expect, "{a:?} ∪ {b:?}");
                let mut c = a.clone();
                c.union_with(&b);
                assert_eq!(c, expect);
            }
        }
    }

    #[test]
    fn intersect_and_difference_both_reprs() {
        for a in [ns(&[1, 2, 3, 4]), dense(&[1, 2, 3, 4], 70)] {
            for b in [ns(&[2, 4, 5]), dense(&[2, 4, 5], 70)] {
                assert_eq!(a.intersect(&b), ns(&[2, 4]), "{a:?} ∩ {b:?}");
                assert_eq!(a.difference(&b), ns(&[1, 3]), "{a:?} − {b:?}");
            }
        }
    }

    #[test]
    fn complement_is_word_parallel_and_exact() {
        let s = dense(&[0, 2, 64, 129], 130);
        let c = s.complement(130);
        assert_eq!(c.len(), 126);
        for i in 0..130 {
            assert_eq!(c.contains(NodeId(i)), !s.contains(NodeId(i)), "id {i}");
        }
        // Padding bits stay zero: iterating never yields ids >= universe.
        assert!(c.iter().all(|n| n.0 < 130));
    }

    #[test]
    fn insert_range_word_parallel() {
        let mut s = NodeSet::empty_dense(200);
        s.insert_range(3, 130);
        assert_eq!(s.len(), 127);
        assert!(!s.contains(NodeId(2)));
        assert!(s.contains(NodeId(3)));
        assert!(s.contains(NodeId(129)));
        assert!(!s.contains(NodeId(130)));
        // Overlapping insert does not double-count.
        s.insert_range(100, 150);
        assert_eq!(s.len(), 147);
        // Range on sparse repr normalizes too.
        let mut v = ns(&[1, 500]);
        v.insert_range(2, 5);
        assert_eq!(v, ns(&[1, 2, 3, 4, 500]));
    }

    #[test]
    fn iteration_is_document_order() {
        let s = dense(&[64, 1, 129, 0], 130);
        let ids: Vec<u32> = s.iter().map(|n| n.0).collect();
        assert_eq!(ids, vec![0, 1, 64, 129]);
        assert_eq!(s.first(), Some(NodeId(0)));
        assert_eq!(s.last(), Some(NodeId(129)));
        assert_eq!(s.get(2), Some(NodeId(64)));
        assert_eq!(s.get(4), None);
    }

    #[test]
    fn equality_is_content_based() {
        assert_eq!(ns(&[1, 64, 65]), dense(&[1, 64, 65], 90));
        assert_ne!(ns(&[1]), dense(&[2], 90));
        assert_eq!(NodeSet::new(), NodeSet::empty_dense(1000));
    }

    #[test]
    fn adapt_sparsifies() {
        let s = dense(&[5, 900], 100_000).adapt();
        assert!(!s.is_dense());
        assert_eq!(s, ns(&[5, 900]));
        let d = NodeSet::full(256).adapt();
        assert!(d.is_dense());
    }

    #[test]
    fn retain_updates_len() {
        let mut s = dense(&[1, 2, 3, 64, 65], 70);
        s.retain(|n| n.0 % 2 == 1);
        assert_eq!(s, ns(&[1, 3, 65]));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn from_unsorted_normalizes() {
        let s = NodeSet::from_unsorted(vec![NodeId(3), NodeId(1), NodeId(3), NodeId(2)]);
        assert_eq!(s, ns(&[1, 2, 3]));
    }

    #[test]
    fn low_density_bitset_ops_fuse_to_sparse_results() {
        // Two low-density bitsets over a large universe: difference and
        // intersect must come back sparse (no intermediate dense bitset)
        // and agree with the sorted-vec reference.
        let universe = 20_000u32;
        let a_ids: Vec<u32> = (0..universe).step_by(97).collect();
        let b_ids: Vec<u32> = (0..universe).step_by(194).collect();
        let (av, bv) = (ns(&a_ids), ns(&b_ids));
        let (ad, bd) = (dense(&a_ids, universe), dense(&b_ids, universe));
        let diff = ad.difference(&bd);
        assert!(!diff.is_dense(), "sparse receiver ⇒ sparse difference");
        assert_eq!(diff, av.difference(&bv));
        let inter = ad.intersect(&bd);
        assert!(!inter.is_dense(), "sparse bound ⇒ sparse intersection");
        assert_eq!(inter, av.intersect(&bv));
        // A dense receiver still takes the word-parallel path.
        let full = NodeSet::full(universe);
        assert!(full.difference(&bd).is_dense());
    }

    #[test]
    fn restrict_range_projects_both_reprs() {
        let ids = [0u32, 3, 63, 64, 100, 129, 190];
        for s in [ns(&ids), dense(&ids, 200)] {
            let got = s.restrict_range(63, 130);
            assert_eq!(got, ns(&[63, 64, 100, 129]), "{s:?}");
            assert_eq!(got.is_dense(), s.is_dense(), "repr preserved");
            assert_eq!(s.restrict_range(5, 5), NodeSet::new());
            assert_eq!(s.restrict_range(191, 1000), NodeSet::new());
            assert_eq!(s.restrict_range(0, 1000), s);
        }
    }

    #[test]
    fn fingerprint_is_repr_independent_and_content_sensitive() {
        // Equal contents, any representation (including differing
        // universes — dense padding words are zero and never hashed).
        let ids = [0u32, 1, 63, 64, 65, 500, 12_345];
        let fp = ns(&ids).fingerprint();
        assert_eq!(dense(&ids, 12_346).fingerprint(), fp);
        assert_eq!(dense(&ids, 60_000).fingerprint(), fp, "universe padding must not matter");
        assert_eq!(
            NodeSet::from_sorted(ids.iter().map(|&i| NodeId(i)).collect()).fingerprint(),
            fp
        );
        // Content changes change the fingerprint (w.h.p.; these pins catch
        // the classic mistakes: dropped word boundaries, ignored len).
        assert_ne!(ns(&[0, 1, 63, 64, 65, 500]).fingerprint(), fp);
        assert_ne!(ns(&[0, 1, 62, 64, 65, 500, 12_345]).fingerprint(), fp);
        assert_ne!(NodeSet::new().fingerprint(), fp);
        // Empty sets agree across representations too.
        assert_eq!(NodeSet::new().fingerprint(), NodeSet::empty_dense(4096).fingerprint());
        // Randomized cross-check over densities.
        for seed in 0..20u64 {
            let mut rng = Rng::seed_from_u64(seed);
            let p = [0.01, 0.1, 0.5, 0.9][(seed % 4) as usize];
            let ids: Vec<u32> = (0..700u32).filter(|_| rng.random_bool(p)).collect();
            let v = ns(&ids);
            let d = dense(&ids, 700);
            assert_eq!(v.fingerprint(), d.fingerprint(), "seed {seed}");
            // Mutating one id moves the fingerprint.
            if let Some(&first) = ids.first() {
                let mut other: Vec<u32> = ids.clone();
                other[0] = first + 701;
                other.sort_unstable();
                assert_ne!(ns(&other).fingerprint(), v.fingerprint(), "seed {seed}");
            }
        }
    }

    #[test]
    fn memo_key_is_content_sensitive_and_sparse_key_touches_no_words() {
        let ids = [0u32, 1, 63, 64, 65, 500, 12_345];
        let sparse = ns(&ids);
        // Deterministic, content-sensitive.
        assert_eq!(sparse.memo_key(), ns(&ids).memo_key());
        assert_ne!(ns(&[0, 1, 63, 64, 65, 500]).memo_key(), sparse.memo_key());
        assert_ne!(NodeSet::new().memo_key(), sparse.memo_key());
        // Dense keys are deterministic too (and derive from the word
        // fingerprint, so equal dense contents key equally).
        assert_eq!(dense(&ids, 12_346).memo_key(), dense(&ids, 60_000).memo_key());
        // The satellite pin: keying a sparse set must never materialize
        // bitset words — zero pooled word-buffer traffic during the call.
        pool::clear();
        pool::reset_stats();
        for _ in 0..16 {
            std::hint::black_box(sparse.memo_key());
        }
        let s = pool::stats();
        assert_eq!(
            (s.hits, s.misses, s.recycled, s.discarded),
            (0, 0, 0, 0),
            "sparse memo_key must not take or return pooled buffers: {s:?}"
        );
    }

    /// Property test (deterministic seeds): the dense and sparse
    /// representations agree on every operation, across densities, and
    /// both iterate in strictly ascending document order.
    #[test]
    fn reprs_agree_on_random_sets() {
        let universe = 640u32;
        for seed in 0..40u64 {
            let mut rng = Rng::seed_from_u64(seed);
            // Densities from ~1/64 to ~1/2.
            let p_a = [0.015, 0.05, 0.2, 0.5][(seed % 4) as usize];
            let p_b = [0.5, 0.2, 0.05, 0.015][(seed % 4) as usize];
            let a_ids: Vec<NodeId> =
                (0..universe).filter(|_| rng.random_bool(p_a)).map(NodeId).collect();
            let b_ids: Vec<NodeId> =
                (0..universe).filter(|_| rng.random_bool(p_b)).map(NodeId).collect();
            let av = NodeSet::from_sorted(a_ids.clone());
            let bv = NodeSet::from_sorted(b_ids.clone());
            let ad = av.clone().densify(universe);
            let bd = bv.clone().densify(universe);
            for (a, b) in [(&av, &bv), (&ad, &bd), (&av, &bd), (&ad, &bv)] {
                for (name, got) in [
                    ("union", a.union(b)),
                    ("intersect", a.intersect(b)),
                    ("difference", a.difference(b)),
                ] {
                    let reference = match name {
                        "union" => av.union(&bv),
                        "intersect" => av.intersect(&bv),
                        _ => av.difference(&bv),
                    };
                    assert_eq!(got, reference, "seed {seed} op {name}");
                    let ids: Vec<u32> = got.iter().map(|n| n.0).collect();
                    assert!(ids.windows(2).all(|w| w[0] < w[1]), "doc order, seed {seed} {name}");
                    assert_eq!(ids.len(), got.len(), "len cache, seed {seed} {name}");
                }
                for &n in &a_ids {
                    assert!(a.contains(n));
                }
                assert_eq!(a.complement(universe).len(), universe as usize - a.len());
            }
        }
    }
}
