//! Fixed cost constants for the engine's two remaining runtime choices,
//! and the tally of which axis materialization ran.
//!
//! The axis kernel itself has no cost model: [`crate::bulk`] materializes
//! interval axes by the node set's own density rule
//! ([`NodeSet::from_ranges`](xpath_xml::NodeSet::from_ranges)) and walks
//! a chain axis per node only for a single input node. [`Kernel`] names
//! the route an application took, and [`KernelCounters`] tallies them for
//! `planner_stats()`.
//!
//! [`CostModel::CALIBRATED`] prices the two decisions that still weigh
//! alternatives at runtime:
//!
//! * **batch modes** ([`CostModel::pick_batch_mode`]): lock-step sharing
//!   weighs the axis passes a shared memo avoids against every pass's memo
//!   probe, and the per-query fan-out ([`CostModel::pick_shards`]) weighs
//!   the divisible work against the per-worker spawn cost
//!   ([`CostModel::spawn_ns`]). That fan-out is the only place evaluation
//!   spawns threads; a single query's axis passes always run on the
//!   calling thread;
//! * **lazy cursors** ([`CostModel::pick_lazy`]): stream block-wise or
//!   materialize once and drain.
//!
//! The constants were measured once on the reference 21846-node balanced
//! document (x86-64) and are plain constants: the decisions they feed
//! only need their crossovers right to within an order of magnitude.

use std::sync::atomic::{AtomicU64, Ordering};

use xpath_syntax::Axis;
use xpath_xml::NodeSet;

/// Hard cap on the workers a batch fan-out can split into, regardless of
/// the requested thread budget: the cap keeps [`CostModel::pick_shards`]
/// O(1) and the spawn count bounded even for absurd `--threads`
/// requests.
pub const MAX_SHARDS: usize = 64;

/// Which materialization one axis application took (see [`crate::bulk`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Kernel {
    /// One input node's chain walked into a sorted vector.
    PerNode,
    /// A set-at-a-time walk or range write into a sorted vector.
    BulkSparse,
    /// A set-at-a-time word-parallel kernel over a dense bitset.
    BulkDense,
}

impl Kernel {
    /// Stable snake_case name (used in `BENCH_axes.json` provenance and
    /// the CLI planner report).
    pub fn name(self) -> &'static str {
        match self {
            Kernel::PerNode => "per_node",
            Kernel::BulkSparse => "bulk_sparse",
            Kernel::BulkDense => "bulk_dense",
        }
    }
}

/// Per-operation costs, in nanoseconds. See the [module docs](self) for
/// the decisions each constant feeds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Cost per bitset word touched by the dense kernels, covering
    /// allocation + fill + type strip + adapt scan (~3 passes).
    pub dense_word_ns: f64,
    /// Cost per input node of the staircase / dispatch walk.
    pub input_ns: f64,
    /// Cost per link of a per-node pointer-chain walk (incl. the final
    /// sort+dedup merge amortized per element).
    pub chain_ns: f64,
    /// Assumed average chain length (tree depth / sibling-run length)
    /// when the real lengths are unknown before walking.
    pub est_chain_len: f64,
    /// Cost of spawning + joining one scoped worker thread
    /// (`std::thread::scope`). Gates the batch fan-out: a batch splits
    /// only when the divisible work saved exceeds this per extra worker.
    pub spawn_ns: f64,
    /// Fixed cost of one batched-evaluation memo-table probe (key build,
    /// hash-map lookup, and the result clone a hit hands back). Gates the
    /// lock-step-shared batch mode: memoizing only pays when duplicated
    /// axis passes across the batch save more than every pass's probe.
    pub memo_probe_ns: f64,
    /// Cost per bitset word of fingerprinting a memo key's input set
    /// (`NodeSet::fingerprint`: one splitmix64 chain over nonzero words).
    pub fingerprint_word_ns: f64,
}

impl CostModel {
    /// Constants measured on the balanced 4-ary depth-7 document (21846
    /// nodes, x86-64; 2026-08, after the tiered word-sweep kernels landed
    /// in `xpath_xml::simd`). The fingerprint is vectorized too (AVX-512
    /// where available), but its multiply chain keeps it near
    /// `dense_word_ns` per word — the reason [`CostModel::shared_pass_ns`]
    /// must count the avoided pass's input term, not just its word sweep.
    pub const CALIBRATED: CostModel = CostModel {
        dense_word_ns: 0.9,
        input_ns: 0.75,
        chain_ns: 7.4,
        est_chain_len: 12.0,
        spawn_ns: 18_000.0,
        memo_probe_ns: 30.0,
        fingerprint_word_ns: 0.85,
    };

    // ----- batched multi-query evaluation -----

    /// How many workers a batch fan-out should split `divisible_ns` of
    /// estimated work across, at most `max_threads` (itself clamped to
    /// [`MAX_SHARDS`], which also bounds this search loop). Each extra
    /// worker costs [`CostModel::spawn_ns`]. Returns 1 — the planner
    /// *refuses to spawn* — whenever no worker count beats running the
    /// batch serially on the caller's thread.
    pub fn pick_shards(&self, divisible_ns: f64, max_threads: usize) -> usize {
        let mut best = (divisible_ns, 1usize);
        for k in 2..=max_threads.clamp(1, MAX_SHARDS) {
            let cost = divisible_ns / k as f64 + self.spawn_ns * (k - 1) as f64;
            if cost < best.0 {
                best = (cost, k);
            }
        }
        best.1
    }

    /// Calibrated per-row cost estimate for a context-value-table row (one
    /// per-node axis enumeration + predicate filtering per row) — the
    /// chain-walk estimate stands in, as row costs are unknown before a
    /// query runs. Prices a general-engine query in the batch fan-out's
    /// divisible work.
    pub fn cvt_row_ns(&self) -> f64 {
        self.chain_ns * self.est_chain_len
    }

    /// Estimated overhead one memoized step unit adds in lock-step-shared
    /// batch evaluation: a memo probe plus fingerprinting the input set
    /// (bounded by the universe's word count).
    pub fn memo_unit_ns(&self, universe: u32) -> f64 {
        self.memo_probe_ns + self.fingerprint_word_ns * (universe as f64 / 64.0)
    }

    /// Estimated cost of one full axis pass over a `universe`-id document —
    /// what a memo hit in a lock-step-shared batch avoids re-running:
    /// the dense kernel's word sweep **plus** its per-input dispatch scan
    /// (a shared pass walks its whole input set, up to the universe).
    /// Before the vectorized kernels the word term dominated and the
    /// input term was noise; now the sweep is ~3× cheaper and dropping
    /// the input term would price an avoided pass at barely more than
    /// fingerprinting its key, gating off sharing that measures ~7×
    /// faster end to end (`BENCH_axes.json` `batch_eval`).
    pub fn shared_pass_ns(&self, universe: u32) -> f64 {
        self.dense_word_ns * (f64::from(universe) / 64.0) + self.input_ns * f64::from(universe)
    }

    /// Pick how a batch of `queries` compiled spines should evaluate over
    /// a `universe`-id document with a `threads` budget.
    ///
    /// `shared_units` is the number of step/predicate units the batch
    /// duplicates (identical spine prefixes or predicate paths across
    /// queries — each one a whole axis pass a shared memo table skips);
    /// `memo_units` is the total number of units that would pay a memo
    /// probe; `divisible_ns` is the estimated total evaluation work, the
    /// portion per-query sharding splits across workers.
    ///
    /// Each viable mode is costed end to end and the cheapest estimate
    /// wins: lock-step runs the batch's work minus the duplicated passes
    /// plus every unit's probe (viable only when that is a net saving);
    /// the fan-out runs `divisible_ns / k` plus `k − 1` spawns at the
    /// [`CostModel::pick_shards`]-chosen worker count (viable only when
    /// the gate approves a split). With a wide thread budget and thin
    /// sharing, fan-out can beat a net-positive memo; neither viable
    /// means serial — exactly N independent evaluations.
    pub fn pick_batch_mode(
        &self,
        queries: usize,
        shared_units: usize,
        memo_units: usize,
        divisible_ns: f64,
        universe: u32,
        threads: usize,
    ) -> BatchMode {
        if queries <= 1 {
            return BatchMode::Serial;
        }
        let saved = shared_units as f64 * self.shared_pass_ns(universe);
        let overhead = memo_units as f64 * self.memo_unit_ns(universe);
        let lock_step =
            (shared_units > 0 && saved > overhead).then_some(divisible_ns - saved + overhead);
        let sharded = (threads > 1)
            .then(|| self.pick_shards(divisible_ns, threads.min(queries)))
            .filter(|&k| k > 1)
            .map(|k| divisible_ns / k as f64 + self.spawn_ns * (k - 1) as f64);
        match (lock_step, sharded) {
            (Some(l), Some(s)) if s < l => BatchMode::PerQuerySharded,
            (Some(_), _) => BatchMode::LockStepShared,
            (None, Some(_)) => BatchMode::PerQuerySharded,
            (None, None) => BatchMode::Serial,
        }
    }

    /// The duplicated-unit fraction at which [`CostModel::pick_batch_mode`]
    /// switches to lock-step sharing for a given universe: sharing pays
    /// once more than this fraction of the batch's step units repeat.
    pub fn batch_share_threshold(&self, universe: u32) -> f64 {
        (self.memo_unit_ns(universe) / self.shared_pass_ns(universe).max(f64::MIN_POSITIVE))
            .min(1.0)
    }

    // ----- lazy cursor evaluation -----

    /// Ids per window the lazy cursor pipeline (`xpath_core::cursor`)
    /// processes between budget checks. One window of per-candidate
    /// filtering is the minimum overhead a lazy evaluation pays before
    /// its first early exit can fire.
    pub const LAZY_BLOCK: u32 = 4096;

    /// Estimated per-candidate cost of the lazy pipeline's block filter:
    /// a pointer-chasing node-test probe plus the amortized share of
    /// per-candidate witness walks. As in [`CostModel::cvt_row_ns`], the
    /// chain-walk constant stands in — both are cache-missing pointer
    /// chases through the node arena.
    pub fn lazy_candidate_ns(&self) -> f64 {
        self.chain_ns
    }

    /// Estimated per-id cost of the materializing path: the name-table
    /// scan plus each id's share of the word-parallel sweeps.
    pub fn materialize_id_ns(&self) -> f64 {
        self.input_ns + self.dense_word_ns / 64.0
    }

    /// The universe size at which a **bounded** lazy take (`first()`,
    /// `exists()`, `take(k)`) starts beating full materialization even
    /// when the take is not a small fraction of the document: one
    /// [`CostModel::LAZY_BLOCK`] of per-candidate filtering versus the
    /// whole document's per-id materialization share.
    pub fn lazy_take_threshold(&self) -> u32 {
        (f64::from(Self::LAZY_BLOCK) * self.lazy_candidate_ns() / self.materialize_id_ns()).ceil()
            as u32
    }

    /// Should a cursor evaluation stream block-wise (`true`) or
    /// materialize once and drain (`false`)? `take_hint` is how many
    /// results the caller intends to pull — `Some(1)` for
    /// `first()`/`exists()`, `None` for an unbounded drain.
    ///
    /// A bounded take streams whenever it asks for a small fraction of
    /// the document (early exit skips most of the per-id work) or the
    /// document is past [`CostModel::lazy_take_threshold`]. An unbounded
    /// drain filters every candidate at [`CostModel::lazy_candidate_ns`]
    /// — more per id than the word-parallel sweeps — so it only streams
    /// on documents large enough that the caller abandoning mid-drain
    /// (the reason to hold a cursor at all) repays the difference.
    pub fn pick_lazy(&self, universe: u32, take_hint: Option<usize>) -> bool {
        match take_hint {
            Some(k) => {
                (k as u64) * 8 <= u64::from(universe) || universe >= self.lazy_take_threshold()
            }
            None => universe >= self.lazy_take_threshold(),
        }
    }
}

/// How a batched evaluation ([`pick_batch_mode`](CostModel::pick_batch_mode))
/// runs its queries.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BatchMode {
    /// All compiled spines advance lock-step per step, deduplicating
    /// identical `(axis, node-test, input-fingerprint)` applications
    /// through a per-evaluation memo table — each distinct axis pass over
    /// the document runs once for the whole batch.
    LockStepShared,
    /// The batch fans out one chunk of queries per scoped worker
    /// (`xpath_core::batch::QuerySet`); each worker evaluates its chunk
    /// exactly as an independent evaluation would.
    PerQuerySharded,
    /// N independent evaluations on the caller's thread — the fallback
    /// when neither sharing nor spawning repays its overhead.
    Serial,
}

impl BatchMode {
    /// Stable snake_case name (used in `BENCH_axes.json` and the CLI
    /// batch report).
    pub fn name(self) -> &'static str {
        match self {
            BatchMode::LockStepShared => "lock_step_shared",
            BatchMode::PerQuerySharded => "per_query_sharded",
            BatchMode::Serial => "serial",
        }
    }
}

/// One line describing how the axis kernel materializes `axis` on a
/// document of `universe` nodes — the "which kernel and why" surfaced by
/// `xpq --explain`.
pub fn describe(axis: Axis, universe: u32) -> String {
    match axis {
        Axis::Descendant | Axis::DescendantOrSelf | Axis::Following | Axis::Preceding => {
            format!(
                "{}: staircase interval ranges with exact size; sorted vec below {} \
                 result nodes (|D|/32), word-parallel bitset at or above",
                axis.name(),
                NodeSet::dense_threshold(universe)
            )
        }
        Axis::Ancestor | Axis::AncestorOrSelf | Axis::FollowingSibling | Axis::PrecedingSibling => {
            format!(
                "{}: pointer-chain walk; per node for a single input node, \
                 dense chain marking for more",
                axis.name()
            )
        }
        Axis::SelfAxis | Axis::Child | Axis::Parent | Axis::Attribute | Axis::Namespace => {
            format!("{}: link-array walk into a sorted vec (always sparse)", axis.name())
        }
        Axis::Id => format!("{}: ref-relation dereference (always sparse)", axis.name()),
    }
}

/// Thread-safe tally of axis materializations — shared by a
/// [`CompiledQuery`](../../xpath_core/query/struct.CompiledQuery.html)
/// across evaluations and aggregated by the query cache.
#[derive(Debug, Default)]
pub struct KernelCounters {
    per_node: AtomicU64,
    bulk_sparse: AtomicU64,
    bulk_dense: AtomicU64,
    memo_hits: AtomicU64,
}

impl KernelCounters {
    /// A zeroed tally.
    pub fn new() -> KernelCounters {
        KernelCounters::default()
    }

    /// Record one axis application that ran on `kernel`.
    pub fn record(&self, kernel: Kernel) {
        let slot = match kernel {
            Kernel::PerNode => &self.per_node,
            Kernel::BulkSparse => &self.bulk_sparse,
            Kernel::BulkDense => &self.bulk_dense,
        };
        slot.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one axis application a batched evaluation served from its
    /// shared memo table instead of re-running the pass.
    pub fn record_memo_hit(&self) {
        self.memo_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Merge another tally's counts into this one.
    pub fn merge(&self, counts: KernelCounts) {
        self.per_node.fetch_add(counts.per_node, Ordering::Relaxed);
        self.bulk_sparse.fetch_add(counts.bulk_sparse, Ordering::Relaxed);
        self.bulk_dense.fetch_add(counts.bulk_dense, Ordering::Relaxed);
        self.memo_hits.fetch_add(counts.memo_hits, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counts.
    pub fn snapshot(&self) -> KernelCounts {
        KernelCounts {
            per_node: self.per_node.load(Ordering::Relaxed),
            bulk_sparse: self.bulk_sparse.load(Ordering::Relaxed),
            bulk_dense: self.bulk_dense.load(Ordering::Relaxed),
            memo_hits: self.memo_hits.load(Ordering::Relaxed),
        }
    }
}

/// A plain snapshot of [`KernelCounters`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelCounts {
    /// Axis applications that walked one input node's chain.
    pub per_node: u64,
    /// Axis applications run on the sparse (sorted-vec) bulk kernels.
    pub bulk_sparse: u64,
    /// Axis applications run on the dense word-parallel kernels.
    pub bulk_dense: u64,
    /// Axis applications a batched evaluation served from its shared memo
    /// table — whole passes that never ran because an identical
    /// `(axis, node-test, input-fingerprint)` application already had.
    pub memo_hits: u64,
}

impl KernelCounts {
    /// Total recorded axis applications.
    pub fn total(&self) -> u64 {
        self.per_node + self.bulk_sparse + self.bulk_dense
    }

    /// Elementwise sum.
    pub fn plus(self, other: KernelCounts) -> KernelCounts {
        KernelCounts {
            per_node: self.per_node + other.per_node,
            bulk_sparse: self.bulk_sparse + other.bulk_sparse,
            bulk_dense: self.bulk_dense + other.bulk_dense,
            memo_hits: self.memo_hits + other.memo_hits,
        }
    }
}

impl std::fmt::Display for KernelCounts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} per-node, {} bulk-sparse, {} bulk-dense",
            self.per_node, self.bulk_sparse, self.bulk_dense
        )?;
        if self.memo_hits > 0 {
            write!(f, "; {} memo-shared", self.memo_hits)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_tally_and_merge() {
        let c = KernelCounters::new();
        c.record(Kernel::PerNode);
        c.record(Kernel::BulkDense);
        c.record(Kernel::BulkDense);
        let s = c.snapshot();
        assert_eq!((s.per_node, s.bulk_sparse, s.bulk_dense), (1, 0, 2));
        assert_eq!(s.total(), 3);
        c.merge(s);
        assert_eq!(c.snapshot().total(), 6);
        assert_eq!(s.plus(s).bulk_dense, 4);
        assert!(s.to_string().contains("per-node"));
    }

    #[test]
    fn pick_shards_gates_on_spawn_cost() {
        let m = CostModel::CALIBRATED;
        // A pass far below the spawn cost stays serial.
        assert_eq!(m.pick_shards(1_000.0, 8), 1);
        // Work worth many spawns splits, but never past the budget.
        assert!(m.pick_shards(100.0 * m.spawn_ns, 4) > 1);
        assert!(m.pick_shards(1e12, 4) <= 4);
        // A budget of one thread always refuses.
        assert_eq!(m.pick_shards(1e12, 1), 1);
        // The first split pays once the halved work repays one spawn.
        assert_eq!(m.pick_shards(1.9 * m.spawn_ns, 2), 1);
        assert_eq!(m.pick_shards(2.1 * m.spawn_ns, 2), 2);
        // Forcing spawns free makes splitting always win.
        let free = CostModel { spawn_ns: 1e-9, ..m };
        assert_eq!(free.pick_shards(1.0, 8), 8);
        // An absurd budget is clamped, not searched: the pick stays at
        // MAX_SHARDS and returns immediately.
        assert_eq!(free.pick_shards(1e18, usize::MAX), MAX_SHARDS);
    }

    #[test]
    fn batch_mode_pick_follows_sharing_and_threads() {
        let m = CostModel::CALIBRATED;
        let n = 1 << 20;
        let pass = m.shared_pass_ns(n);
        // A single query is always serial, whatever else is true.
        assert_eq!(m.pick_batch_mode(1, 100, 100, 1e12, n, 8), BatchMode::Serial);
        // Heavy sharing: half the units repeat → lock-step wins.
        assert_eq!(m.pick_batch_mode(16, 48, 96, 96.0 * pass, n, 1), BatchMode::LockStepShared);
        // No sharing + one thread → serial.
        assert_eq!(m.pick_batch_mode(16, 0, 96, 96.0 * pass, n, 1), BatchMode::Serial);
        // No sharing + wide budget + work worth many spawns → sharded.
        assert_eq!(
            m.pick_batch_mode(16, 0, 96, 100.0 * m.spawn_ns, n, 4),
            BatchMode::PerQuerySharded
        );
        // No sharing + wide budget but tiny work → serial (spawn gate).
        assert_eq!(m.pick_batch_mode(16, 0, 16, 1_000.0, n, 4), BatchMode::Serial);
        // Thin sharing (net-positive, but small) on a wide budget: the
        // fan-out's estimated time beats lock-step and wins; the same
        // batch on one thread keeps lock-step.
        assert_eq!(m.pick_batch_mode(16, 20, 96, 96.0 * pass, n, 8), BatchMode::PerQuerySharded);
        assert_eq!(m.pick_batch_mode(16, 20, 96, 96.0 * pass, n, 1), BatchMode::LockStepShared);
        // Heavy sharing can still beat the fan-out when nearly everything
        // repeats and the remaining work is below the spawn repayment.
        let small = 1u32 << 14;
        let small_pass = m.shared_pass_ns(small);
        assert_eq!(
            m.pick_batch_mode(16, 95, 96, 96.0 * small_pass, small, 8),
            BatchMode::LockStepShared
        );
        // The crossover fraction is consistent with the pick: sharing just
        // above it flips to lock-step, just below it does not.
        let frac = m.batch_share_threshold(n);
        assert!(frac > 0.0 && frac < 1.0, "crossover fraction in (0,1), got {frac}");
        let units = 1000usize;
        let above = (frac * units as f64 * 1.1).ceil() as usize;
        let below = (frac * units as f64 * 0.9).floor() as usize;
        assert_eq!(m.pick_batch_mode(8, above, units, 0.0, n, 1), BatchMode::LockStepShared);
        assert_eq!(m.pick_batch_mode(8, below, units, 0.0, n, 1), BatchMode::Serial);
        // Forcing probes free makes any sharing win; forcing them absurd
        // never shares (the overrides the differential suite pins modes
        // with).
        let free = CostModel { memo_probe_ns: 1e-9, fingerprint_word_ns: 1e-9, ..m };
        assert_eq!(free.pick_batch_mode(2, 1, 1000, 0.0, n, 1), BatchMode::LockStepShared);
        let never = CostModel { memo_probe_ns: 1e12, ..m };
        assert_eq!(never.pick_batch_mode(16, 95, 96, 1_000.0, n, 1), BatchMode::Serial);
        assert_eq!(BatchMode::LockStepShared.name(), "lock_step_shared");
    }

    #[test]
    fn lazy_pick_follows_take_hint_and_crossover() {
        let m = CostModel::CALIBRATED;
        let cross = m.lazy_take_threshold();
        assert!(cross > CostModel::LAZY_BLOCK, "one block must cost more than its own ids");
        // first()/exists() stream on anything but trivially small docs:
        // pulling 1 of ≥8 candidates skips most of the per-id work.
        assert!(m.pick_lazy(64, Some(1)));
        assert!(m.pick_lazy(349_526, Some(1)));
        assert!(!m.pick_lazy(4, Some(1)), "a 4-node doc materializes in one gulp");
        // A bounded take that covers most of a small doc materializes;
        // past the crossover even full-width takes stream.
        assert!(!m.pick_lazy(100, Some(50)));
        assert!(m.pick_lazy(cross, Some(cross as usize)));
        // Unbounded drains materialize below the crossover and stream
        // above it.
        assert!(!m.pick_lazy(cross - 1, None));
        assert!(m.pick_lazy(cross, None));
    }

    #[test]
    fn memo_hits_tally_and_display() {
        let c = KernelCounters::new();
        c.record(Kernel::BulkDense);
        c.record_memo_hit();
        c.record_memo_hit();
        let s = c.snapshot();
        assert_eq!((s.total(), s.memo_hits), (1, 2), "memo hits are avoided passes, not runs");
        assert!(s.to_string().contains("2 memo-shared"), "{s}");
        c.merge(s);
        assert_eq!(c.snapshot().memo_hits, 4);
        assert_eq!(s.plus(s).memo_hits, 4);
        assert!(!KernelCounts::default().to_string().contains("memo"));
    }

    #[test]
    fn describe_states_the_materialization_rule() {
        let d = describe(Axis::Descendant, 21846);
        assert!(d.contains("staircase") && d.contains("below 683 result nodes"), "{d}");
        let a = describe(Axis::Ancestor, 21846);
        assert!(a.contains("per node for a single input node"), "{a}");
        assert!(describe(Axis::Child, 100).contains("sorted vec"));
    }
}
