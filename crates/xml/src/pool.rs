//! Thread-local buffer recycling for the allocation-free steady state.
//!
//! Every transient buffer the engine churns through — bitset word
//! vectors, sorted id vectors, staircase range lists — is taken from
//! and returned to a small per-thread shelf instead of the global
//! allocator. [`NodeSet`](crate::NodeSet)'s `Drop` and `Clone` route
//! through these shelves automatically, so after a warm-up evaluation
//! has grown the pooled buffers to the workload's high-water marks,
//! repeated evaluation performs **zero heap allocations** (pinned by the
//! workspace `alloc_steady_state` test).
//!
//! # Design
//!
//! * **Thread-local, not global.** No locks, no sharing, no contention:
//!   each thread recycles what it drops. Scoped worker threads (a
//!   batch's per-query fan-out) start with empty shelves and warm up
//!   independently; the zero-allocation guarantee is therefore a
//!   per-thread steady-state property.
//! * **Bounded.** At most [`MAX_POOLED`] buffers per class are kept;
//!   past that the smallest is dropped. Capacity is never trimmed — a
//!   shelf converges to the largest demands seen, which is exactly what
//!   reset-and-reuse arenas want.
//! * **Order independence.** A shelf is kept sorted by capacity and a
//!   take hands out the largest buffer, so what a take receives depends
//!   on the *multiset* of shelved capacities, never on the order in which
//!   buffers came back (a hash map's drop order, say). A repeated
//!   workload that starts each round with its buffers shelved therefore
//!   runs each round as a function of that multiset; a round that
//!   allocates nothing grows no buffer and loses none, so it leaves the
//!   multiset as it found it, and every later round allocates nothing
//!   too. Rounds that do allocate only grow capacities toward the
//!   workload's high-water marks, so that state is reached.
//! * **Teardown-safe.** Returns during thread destruction (after the
//!   shelf itself is gone) silently fall back to a plain drop via
//!   [`std::thread::LocalKey::try_with`].
//!
//! The taken buffers are always empty (`len == 0`) but keep their
//! capacity. [`stats`] exposes per-thread hit/miss counters so tests and
//! `xpq --bench-info` can audit reuse.

use std::cell::RefCell;

use crate::node::NodeId;

/// Maximum buffers kept per class per thread; further returns are
/// dropped. Generous enough for the deepest evaluator recursion seen in
/// practice (predicate nesting × batch width), small enough that idle
/// threads hold only a bounded cache.
pub const MAX_POOLED: usize = 64;

/// Per-thread recycling counters (see [`stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Takes served from a shelf (no allocation).
    pub hits: u64,
    /// Takes that fell through to `Vec::new()` (the buffer may still
    /// allocate lazily on first push).
    pub misses: u64,
    /// Buffers returned to a shelf for reuse.
    pub recycled: u64,
    /// Buffers dropped because the shelf was full (the smallest goes).
    pub discarded: u64,
}

struct Shelves {
    words: Vec<Vec<u64>>,
    ids: Vec<Vec<NodeId>>,
    ranges: Vec<Vec<(u32, u32)>>,
    stats: PoolStats,
}

impl Shelves {
    const fn new() -> Shelves {
        Shelves {
            words: Vec::new(),
            ids: Vec::new(),
            ranges: Vec::new(),
            stats: PoolStats { hits: 0, misses: 0, recycled: 0, discarded: 0 },
        }
    }
}

thread_local! {
    static SHELVES: RefCell<Shelves> = const { RefCell::new(Shelves::new()) };
}

macro_rules! pool_class {
    ($take:ident, $give:ident, $field:ident, $t:ty, $doc:expr) => {
        #[doc = concat!("Take the largest shelved ", $doc, " buffer (emptied), or a fresh one.")]
        pub fn $take() -> $t {
            SHELVES
                .try_with(|s| {
                    let mut s = s.borrow_mut();
                    match s.$field.pop() {
                        Some(mut v) => {
                            s.stats.hits += 1;
                            drop(s);
                            v.clear();
                            v
                        }
                        None => {
                            s.stats.misses += 1;
                            Vec::new()
                        }
                    }
                })
                .unwrap_or_default()
        }

        #[doc = concat!("Return a ", $doc, " buffer for reuse.")]
        pub fn $give(mut v: $t) {
            if v.capacity() == 0 {
                return;
            }
            v.clear();
            let _ = SHELVES.try_with(|s| {
                let mut s = s.borrow_mut();
                // Sorted by capacity, largest last (see "Order
                // independence"); a full shelf drops its smallest buffer.
                let at = s.$field.partition_point(|b| b.capacity() <= v.capacity());
                s.$field.insert(at, v);
                s.stats.recycled += 1;
                if s.$field.len() > MAX_POOLED {
                    // Shelved buffers are empty: this drop re-enters nothing.
                    s.$field.remove(0);
                    s.stats.discarded += 1;
                }
            });
        }
    };
}

pool_class!(take_words, give_words, words, Vec<u64>, "bitset word (`Vec<u64>`)");
pool_class!(take_ids, give_ids, ids, Vec<NodeId>, "sorted id (`Vec<NodeId>`)");
pool_class!(take_ranges, give_ranges, ranges, Vec<(u32, u32)>, "interval (`Vec<(u32, u32)>`)");

/// This thread's recycling counters since the last [`reset_stats`].
pub fn stats() -> PoolStats {
    SHELVES.try_with(|s| s.borrow().stats).unwrap_or_default()
}

/// Zero this thread's counters (the shelves keep their buffers).
pub fn reset_stats() {
    let _ = SHELVES.try_with(|s| s.borrow_mut().stats = PoolStats::default());
}

/// Drop every pooled buffer on this thread, releasing the memory back to
/// the allocator. Mainly for tests that need a cold start.
pub fn clear() {
    let _ = SHELVES.try_with(|s| {
        let mut s = s.borrow_mut();
        s.words.clear();
        s.ids.clear();
        s.ranges.clear();
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_round_trip_and_keep_capacity() {
        clear();
        reset_stats();
        let mut v = take_words();
        assert_eq!(stats().misses, 1);
        v.resize(100, 7);
        let cap = v.capacity();
        give_words(v);
        assert_eq!(stats().recycled, 1);
        let v = take_words();
        assert_eq!(stats().hits, 1);
        assert!(v.is_empty(), "pooled buffers come back empty");
        assert!(v.capacity() >= cap.min(100), "capacity survives the round trip");
        give_words(v);
    }

    #[test]
    fn zero_capacity_buffers_are_not_shelved() {
        reset_stats();
        give_ids(Vec::new());
        assert_eq!(stats().recycled, 0);
    }

    #[test]
    fn shelves_are_bounded() {
        clear();
        reset_stats();
        for _ in 0..(MAX_POOLED + 5) {
            let mut v = take_ranges();
            v.push((0, 1));
            give_ranges(v);
        }
        // The shelf accepts at most MAX_POOLED concurrently; the serial
        // give/take above never exceeds one, so everything recycles. Force
        // overflow by building the buffers first.
        let buffers: Vec<Vec<(u32, u32)>> = (0..(MAX_POOLED + 5))
            .map(|_| {
                let mut v = take_ranges();
                v.push((0, 1));
                v
            })
            .collect();
        let before = stats().discarded;
        for b in buffers {
            give_ranges(b);
        }
        assert_eq!(stats().discarded, before + 5, "overflow beyond MAX_POOLED is dropped");
        clear();
    }
}
