//! A sharded, thread-safe LRU cache of compiled queries.
//!
//! Production XPath services see the same query texts millions of times
//! (the paper's static phase is pure overhead after the first sight).
//! [`QueryCache`] memoizes [`Compiler::compile`] results behind
//! `Arc<CompiledQuery>` handles, keyed by **query text + compiler
//! options**, so concurrent workers compile once and evaluate everywhere:
//!
//! ```
//! use std::sync::Arc;
//! use std::thread;
//! use xpath_core::cache::QueryCache;
//! use xpath_core::query::Compiler;
//! use xpath_xml::Document;
//!
//! let cache = Arc::new(QueryCache::new(256));
//! let compiler = Compiler::new();
//! // Warm the cache first: two workers racing on a query's very first
//! // sight may both compile it (see `get_or_compile`).
//! cache.get_or_compile(&compiler, "count(//b)").unwrap();
//! thread::scope(|s| {
//!     for _ in 0..4 {
//!         let (cache, compiler) = (Arc::clone(&cache), compiler.clone());
//!         s.spawn(move || {
//!             let d = Document::parse_str("<a><b/><b/></a>").unwrap();
//!             let q = cache.get_or_compile(&compiler, "count(//b)").unwrap();
//!             assert_eq!(q.evaluate_root(&d).unwrap().to_string(), "2");
//!         });
//!     }
//! });
//! assert_eq!(cache.stats().misses, 1); // compiled exactly once…
//! assert_eq!(cache.stats().hits, 4);   // …reused everywhere else
//! ```
//!
//! The key space is split across independently locked shards (reads and
//! writes on different shards never contend); each shard evicts its own
//! least-recently-used entry when full.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::context::EvalResult;
use crate::query::{CompiledQuery, Compiler};

/// Default number of shards for [`QueryCache::new`].
const DEFAULT_SHARDS: usize = 8;

#[derive(Clone, PartialEq, Eq, Hash)]
struct Key {
    text: String,
    options: String,
}

struct Entry {
    query: Arc<CompiledQuery>,
    last_used: u64,
}

#[derive(Default)]
struct Shard {
    entries: HashMap<Key, Entry>,
    clock: u64,
}

impl Shard {
    fn touch(&mut self, key: &Key) -> Option<Arc<CompiledQuery>> {
        self.clock += 1;
        let clock = self.clock;
        self.entries.get_mut(key).map(|e| {
            e.last_used = clock;
            Arc::clone(&e.query)
        })
    }

    fn insert(&mut self, key: Key, query: Arc<CompiledQuery>, capacity: usize) -> bool {
        self.clock += 1;
        let mut evicted = false;
        if !self.entries.contains_key(&key) && self.entries.len() >= capacity {
            // Evict the least-recently-used entry. A linear scan is fine:
            // shards hold at most `capacity` entries and eviction only
            // happens on insert of a never-seen query.
            if let Some(lru) =
                self.entries.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| k.clone())
            {
                self.entries.remove(&lru);
                evicted = true;
            }
        }
        self.entries.insert(key, Entry { query, last_used: self.clock });
        evicted
    }
}

/// Cache observability counters (monotonic since construction, except
/// `entries`, which is the current resident count).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to compile.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Compiled queries currently resident.
    pub entries: usize,
}

/// A sharded LRU cache mapping (query text, compiler options) to shared
/// [`CompiledQuery`] handles. All methods take `&self`; the cache is
/// `Send + Sync` and meant to be shared (e.g. in an `Arc`) across worker
/// threads.
pub struct QueryCache {
    shards: Vec<Mutex<Shard>>,
    shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl QueryCache {
    /// A cache holding up to `capacity` compiled queries across the
    /// default 8 shards (capacity is rounded up to a multiple of the
    /// shard count).
    pub fn new(capacity: usize) -> QueryCache {
        QueryCache::with_shards(capacity, DEFAULT_SHARDS)
    }

    /// A cache with an explicit shard count. `shards = 1` gives globally
    /// exact LRU order (useful in tests); more shards trade LRU precision
    /// for less lock contention.
    pub fn with_shards(capacity: usize, shards: usize) -> QueryCache {
        let shards = shards.max(1);
        let shard_capacity = capacity.div_ceil(shards).max(1);
        QueryCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            shard_capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard_for(&self, key: &Key) -> &Mutex<Shard> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Return the cached compilation of `query` under `compiler`'s
    /// options, compiling and caching it on first sight. Compilation
    /// errors are returned and **not** cached.
    ///
    /// Compilation runs outside the shard lock, so a slow compile never
    /// blocks unrelated lookups on the same shard. Two threads racing on
    /// the same new query may both compile, but the loser discards its
    /// result and returns the winner's handle (lost-race discard), so all
    /// holders of one key share a single `Arc` and per-query planner
    /// tallies are never split across duplicate handles. `misses` counts
    /// compilations actually run, so a race shows up as two misses and
    /// one resident entry — the stats stay exact.
    pub fn get_or_compile(
        &self,
        compiler: &Compiler,
        query: &str,
    ) -> EvalResult<Arc<CompiledQuery>> {
        self.get_or_compile_keyed(compiler, &compiler.options_fingerprint(), query)
    }

    /// [`QueryCache::get_or_compile`] with the compiler's
    /// [`Compiler::options_fingerprint`] precomputed by the caller —
    /// hot paths that reuse one compiler (the query server)
    /// compute the fingerprint once instead of re-rendering the options
    /// on every lookup. `fingerprint` must be the fingerprint of
    /// `compiler`, or cache entries will alias across option sets.
    pub fn get_or_compile_keyed(
        &self,
        compiler: &Compiler,
        fingerprint: &str,
        query: &str,
    ) -> EvalResult<Arc<CompiledQuery>> {
        self.get_or_insert_with(fingerprint, query, || compiler.compile(query))
    }

    /// Resolve a whole batch of query texts in one call, compiling each
    /// on first sight — the compiler's options fingerprint is rendered
    /// once for the batch. The returned handles are in input order and
    /// ready for
    /// [`QuerySetBuilder::compiled`](crate::batch::QuerySetBuilder::compiled),
    /// so a service can assemble a [`QuerySet`](crate::batch::QuerySet)
    /// from its hot cache without recompiling anything. Fails on the
    /// first compile error (earlier successful compilations stay cached).
    pub fn get_or_compile_many(
        &self,
        compiler: &Compiler,
        queries: &[&str],
    ) -> EvalResult<Vec<Arc<CompiledQuery>>> {
        let fingerprint = compiler.options_fingerprint();
        queries.iter().map(|q| self.get_or_compile_keyed(compiler, &fingerprint, q)).collect()
    }

    /// The primitive behind both `get_or_compile` variants: look up
    /// `(query, fingerprint)` and run `compile` only on a miss, so hit
    /// paths pay no compiler clone or option re-rendering. `fingerprint`
    /// must uniquely determine what `compile` produces.
    fn get_or_insert_with(
        &self,
        fingerprint: &str,
        query: &str,
        compile: impl FnOnce() -> EvalResult<CompiledQuery>,
    ) -> EvalResult<Arc<CompiledQuery>> {
        let key = Key { text: query.to_string(), options: fingerprint.to_string() };
        let shard = self.shard_for(&key);
        if let Some(hit) = shard.lock().expect("query cache poisoned").touch(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(hit);
        }
        // Miss: compile OUTSIDE the lock (a slow compile must not block
        // this shard's unrelated lookups, and racing compilers must not
        // serialize). `misses` counts compilations actually run.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let compiled = Arc::new(compile()?);
        let mut locked = shard.lock().expect("query cache poisoned");
        // Lost-race discard: if another thread inserted this key while we
        // compiled, drop our duplicate and hand out the winner's Arc so
        // every caller shares one handle (and one planner tally). The
        // re-check is not counted as a hit — this lookup already missed.
        if let Some(winner) = locked.touch(&key) {
            return Ok(winner);
        }
        let evicted = locked.insert(key, Arc::clone(&compiled), self.shard_capacity);
        drop(locked);
        if evicted {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        Ok(compiled)
    }

    /// Aggregate axis-kernel materializations across every resident
    /// compiled query: how the fleet's axis applications split between
    /// single-node chain walks, sorted-vec writes and dense word-parallel
    /// kernels.
    /// (Evicted queries take their tallies with them.)
    pub fn planner_stats(&self) -> xpath_axes::KernelCounts {
        self.shards
            .iter()
            .flat_map(|s| {
                let shard = s.lock().expect("query cache poisoned");
                shard.entries.values().map(|e| e.query.planner_stats()).collect::<Vec<_>>()
            })
            .fold(xpath_axes::KernelCounts::default(), xpath_axes::KernelCounts::plus)
    }

    /// Aggregate static-analysis verdicts across every resident compiled
    /// query: how many are provably empty, const-folded, lazy or
    /// materialized. The analyzer's counterpart of
    /// [`QueryCache::planner_stats`].
    pub fn analysis_stats(&self) -> crate::analyze::AnalysisStats {
        self.shards
            .iter()
            .flat_map(|s| {
                let shard = s.lock().expect("query cache poisoned");
                shard
                    .entries
                    .values()
                    .map(|e| crate::analyze::AnalysisStats::of(e.query.report()))
                    .collect::<Vec<_>>()
            })
            .fold(crate::analyze::AnalysisStats::default(), crate::analyze::AnalysisStats::plus)
    }

    /// Current hit/miss/eviction counters and resident entry count.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.len(),
        }
    }

    /// Number of compiled queries currently resident.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().expect("query cache poisoned").entries.len()).sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every cached query (counters are retained).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut s = shard.lock().expect("query cache poisoned");
            s.entries.clear();
        }
    }
}

impl Default for QueryCache {
    /// A production-sized default: 1024 entries across 8 shards.
    fn default() -> QueryCache {
        QueryCache::new(1024)
    }
}

impl std::fmt::Debug for QueryCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryCache")
            .field("shards", &self.shards.len())
            .field("shard_capacity", &self.shard_capacity)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Strategy;

    #[test]
    fn hit_after_miss() {
        let cache = QueryCache::new(8);
        let c = Compiler::new();
        let a = cache.get_or_compile(&c, "//b").unwrap();
        let b = cache.get_or_compile(&c, "//b").unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second lookup must reuse the compilation");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn options_are_part_of_the_key() {
        let cache = QueryCache::new(8);
        let plain = Compiler::new();
        let topdown = Compiler::new().default_strategy(Strategy::TopDown);
        let a = cache.get_or_compile(&plain, "//b").unwrap();
        let b = cache.get_or_compile(&topdown, "//b").unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn thread_budget_is_not_part_of_the_key() {
        // Plans do not depend on the thread budget, so compilers that
        // differ only in it share one compiled query.
        let cache = QueryCache::new(8);
        let a = cache.get_or_compile(&Compiler::new().threads(1), "//b").unwrap();
        let b = cache.get_or_compile(&Compiler::new().threads(8), "//b").unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((cache.stats().misses, cache.stats().hits, cache.len()), (1, 1, 1));
    }

    #[test]
    fn lru_eviction_in_a_single_shard() {
        let cache = QueryCache::with_shards(2, 1);
        let c = Compiler::new();
        cache.get_or_compile(&c, "//a").unwrap();
        cache.get_or_compile(&c, "//b").unwrap();
        // Touch //a so //b is the LRU entry.
        cache.get_or_compile(&c, "//a").unwrap();
        cache.get_or_compile(&c, "//c").unwrap(); // evicts //b
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.len(), 2);
        cache.get_or_compile(&c, "//a").unwrap(); // still resident
        assert_eq!(cache.stats().hits, 2);
        cache.get_or_compile(&c, "//b").unwrap(); // gone: recompiles
        assert_eq!(cache.stats().misses, 4);
    }

    #[test]
    fn errors_are_not_cached() {
        let cache = QueryCache::new(8);
        let c = Compiler::new();
        assert!(cache.get_or_compile(&c, "//[").is_err());
        assert!(cache.is_empty());
        assert!(cache.get_or_compile(&c, "//[").is_err());
        assert_eq!(cache.stats().misses, 2, "errors recompile every time");
    }

    #[test]
    fn planner_stats_aggregate_across_resident_queries() {
        use xpath_xml::generate::doc_bookstore;
        let cache = QueryCache::new(8);
        let c = Compiler::new();
        let d = doc_bookstore();
        let a = cache.get_or_compile(&c, "//book[author]").unwrap();
        let b = cache.get_or_compile(&c, "//book/title").unwrap();
        a.evaluate_root(&d).unwrap();
        b.evaluate_root(&d).unwrap();
        let total = cache.planner_stats().total();
        assert_eq!(
            total,
            a.planner_stats().total() + b.planner_stats().total(),
            "cache aggregates per-query planner tallies"
        );
        assert!(total > 0);
    }

    #[test]
    fn slow_compile_does_not_block_the_shard() {
        // Regression: the shard mutex used to be held across compilation,
        // so one slow compile starved every lookup hashing to the same
        // shard. With compilation outside the lock, an unrelated lookup
        // on the single shard must complete while a compile is parked on
        // the barrier — if the lock were held, this test would deadlock.
        use std::sync::Barrier;
        use std::thread;
        let cache = QueryCache::with_shards(8, 1);
        let gate = Barrier::new(2);
        thread::scope(|s| {
            s.spawn(|| {
                cache
                    .get_or_insert_with("fp", "//slow", || {
                        gate.wait(); // parked mid-compile until main passes
                        Compiler::new().compile("//slow")
                    })
                    .unwrap();
            });
            // Same (only) shard, different key: must not block.
            cache.get_or_compile(&Compiler::new(), "//other").unwrap();
            gate.wait();
        });
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn racing_compiles_coalesce_with_exact_stats() {
        // Two threads racing on the same new key: both compile (the
        // barrier proves both are inside `compile` concurrently, i.e.
        // neither holds the shard lock), the insert loser discards its
        // result, and both callers get the same Arc.
        use std::sync::Barrier;
        use std::thread;
        let cache = QueryCache::with_shards(8, 1);
        let rendezvous = Barrier::new(2);
        let handles: Vec<Arc<CompiledQuery>> = thread::scope(|s| {
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        cache
                            .get_or_insert_with("fp", "//b", || {
                                rendezvous.wait();
                                Compiler::new().compile("//b")
                            })
                            .unwrap()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert!(
            Arc::ptr_eq(&handles[0], &handles[1]),
            "the race loser must return the winner's handle"
        );
        let s = cache.stats();
        // Exact stats: two compilations ran (two misses), no phantom
        // hits, one resident entry.
        assert_eq!((s.misses, s.hits, s.entries), (2, 0, 1));
    }

    #[test]
    fn clear_empties_but_keeps_counters() {
        let cache = QueryCache::new(8);
        let c = Compiler::new();
        cache.get_or_compile(&c, "//a").unwrap();
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().misses, 1);
    }
}
