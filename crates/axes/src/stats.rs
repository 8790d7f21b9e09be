//! The tally of which axis materialization ran.
//!
//! The axis kernel has no cost model: [`crate::bulk`] materializes
//! interval axes by the node set's own density rule
//! ([`NodeSet::from_ranges`](xpath_xml::NodeSet::from_ranges)) and walks
//! a chain axis per node only for a single input node. [`Kernel`] names
//! the route an application took, and [`KernelCounters`] tallies them for
//! `planner_stats()`.

use std::sync::atomic::{AtomicU64, Ordering};

use xpath_syntax::Axis;
use xpath_xml::NodeSet;

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
    /// `(axis, node-test, input)` application already had.
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
