//! Batched multi-query evaluation: compile N queries into one immutable
//! [`QuerySet`] and amortize document traversals over the whole batch.
//!
//! The paper's set-at-a-time Core XPath algorithm (§10) amortizes one
//! traversal over a whole *context set*; a production engine serving many
//! concurrent queries amortizes the same traversal over *many queries at
//! once*. A [`QuerySetBuilder`] compiles raw strings (or adopts cached
//! [`Arc<CompiledQuery>`] handles from a
//! [`QueryCache`](crate::cache::QueryCache)) into a `Send + Sync`
//! [`QuerySet`]; [`QuerySet::evaluate_all`] then runs each query's own
//! plan, in input order, under two rules:
//!
//! * **the memo** — when the batch's static profile ([`BatchSharing`])
//!   finds a repeated unit (a spine prefix or a predicate that occurs
//!   twice), every query runs with one per-evaluation [`AxisMemo`]
//!   attached to its Core XPath evaluator. In §10 each `S→` step and each
//!   `E1`/`χ⁻¹` pass depends only on its input set, and the memo keys on
//!   exactly that: `(operation, axis, node test, input memo key)`
//!   ([`NodeSet::memo_key`]). So a repeated application is a hit whatever
//!   order the queries run in: sharing cascades down shared spine
//!   prefixes, and the document-global `T(t)` and predicate (`E1`) sets
//!   (value tests included) dedupe across every position in the batch.
//!   Each repeated unit is a guaranteed hit, so the memo is attached
//!   exactly when it has something to serve.
//! * **the fan-out** — on a large enough document the queries split into
//!   `k = min(budget, queries, MAX_SHARDS)` contiguous chunks, by a size
//!   rule with two thresholds ([`FANOUT_MIN_NODES`],
//!   [`FANOUT_MIN_NODES_GENERAL`]) that `bench_axes`'s `batch_eval` rows
//!   place. The caller's thread runs the first chunk and `k − 1` scoped
//!   workers run the rest, sharing the one memo. This fan-out is the only
//!   place query evaluation spawns threads: every single evaluation, a
//!   worker's included, runs on its calling thread.
//!
//! [`BatchStats::mode`] labels what ran ([`BatchMode`]): the memo
//! attached, else a fan-out, else serial.
//!
//! # Memo-key semantics
//!
//! A memo entry is keyed by a 64-bit splitmix64 chain over the operation
//! kind, the axis, the node test, and the input set's content hash
//! ([`NodeSet::memo_key`]) — *not* the input set itself. Sparse inputs
//! hash their raw id slice directly (one mix per id, never materializing
//! bitset words), so keying a small frontier costs `O(len)` with a tiny
//! constant; a key mismatch across representations is just a miss, never
//! a wrong answer. Distinct sets collide with probability ~2⁻⁶⁴ per
//! pair; the differential suite (`tests/batch_differential.rs`) pins
//! batched results bit-identical to independent evaluation across
//! documents, batch shapes and thread budgets. Non-fragment queries
//! (strategies outside Core XPath / XPatterns) always run their normal
//! engines — batching never changes any result, only how often a pass
//! runs. The memo's hit and miss counts are exact on one thread; workers
//! that race on one key may both run its pass.
//!
//! # Thread budget
//!
//! The budget caps the per-query fan-out. It resolves as: explicit
//! request ([`QuerySetBuilder::threads`], [`Compiler::threads`], `xpq
//! --threads N`) > the [`THREADS_ENV`] environment variable >
//! [`std::thread::available_parallelism`] capped at [`MAX_AUTO_THREADS`]
//! (see [`resolve_threads`]). Whether the batch fans out at all is
//! decided per document by the size rule ([`FANOUT_MIN_NODES`],
//! [`FANOUT_MIN_NODES_GENERAL`]), with or without the memo.
//!
//! ```
//! use xpath_core::batch::QuerySetBuilder;
//! use xpath_xml::Document;
//!
//! let set = QuerySetBuilder::new()
//!     .query("//b")
//!     .query("//b/c")
//!     .query("count(//b)")
//!     .build()
//!     .unwrap();
//! let doc = Document::parse_str("<a><b><c/></b><b/></a>").unwrap();
//! let out = set.evaluate_all(&doc);
//! assert_eq!(out.len(), 3);
//! assert_eq!(out.results()[2].as_ref().unwrap().to_string(), "2");
//! ```

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use xpath_axes::{BatchMode, KernelCounters, KernelCounts};
use xpath_syntax::{Axis, NodeTest};
use xpath_xml::rng::splitmix64;
use xpath_xml::Document;

use crate::context::{Context, EvalBudget, EvalResult};
use crate::corexpath::{CorePred, CoreQuery};
use crate::lift::Program;
use crate::nodeset::NodeSet;
use crate::query::{CompiledQuery, Compiler};
use crate::value::Value;

/// Environment variable bounding the auto-resolved thread budget, e.g.
/// `GKP_THREADS=4`. `GKP_THREADS=1` keeps every batch on the caller's
/// thread process-wide.
pub const THREADS_ENV: &str = "GKP_THREADS";

/// Cap on the auto-resolved budget. Each fan-out worker evaluates whole
/// queries, and those are memory-bound axis passes over one shared
/// document, so workers past a few cores mostly contend for memory
/// bandwidth; a server also evaluates several requests at once. The cap
/// is a bound on oversubscription, not a measured optimum.
pub const MAX_AUTO_THREADS: usize = 8;

/// Resolve a requested thread budget: an explicit `n ≥ 1` wins; `0`
/// (auto) reads [`THREADS_ENV`] once per process, falling back to
/// [`std::thread::available_parallelism`] capped at [`MAX_AUTO_THREADS`]
/// when the variable is unset or rejected (see
/// [`threads_env_rejects`]).
pub fn resolve_threads(requested: u32) -> usize {
    if requested >= 1 {
        return requested as usize;
    }
    auto_threads().0
}

/// Diagnostics from the one-time [`THREADS_ENV`] read behind
/// [`resolve_threads`]: one line when the value was rejected (not a
/// positive integer), empty when the variable was unset or valid.
/// `xpq -v` prints these.
pub fn threads_env_rejects() -> &'static [String] {
    &auto_threads().1
}

/// The one-time [`THREADS_ENV`] read: the auto budget and its diagnostics.
fn auto_threads() -> &'static (usize, Vec<String>) {
    static AUTO: OnceLock<(usize, Vec<String>)> = OnceLock::new();
    AUTO.get_or_init(|| {
        let machine =
            std::thread::available_parallelism().map_or(1, |n| n.get().min(MAX_AUTO_THREADS));
        let value = std::env::var_os(THREADS_ENV).map(|v| v.to_string_lossy().into_owned());
        parse_threads_env(value.as_deref(), machine)
    })
}

/// Parse a [`THREADS_ENV`] value: a positive integer wins; unset or blank
/// means `fallback`; anything else also means `fallback`, plus one
/// diagnostic line naming the rejected value.
fn parse_threads_env(value: Option<&str>, fallback: usize) -> (usize, Vec<String>) {
    let Some(raw) = value.filter(|v| !v.trim().is_empty()) else {
        return (fallback, Vec::new());
    };
    match raw.trim().parse::<usize>() {
        Ok(n) if n >= 1 => (n, Vec::new()),
        _ => (
            fallback,
            vec![format!(
                "{THREADS_ENV}: ignored {raw:?}: not a positive integer; \
                 using {fallback} (machine parallelism)"
            )],
        ),
    }
}

/// Hard cap on the workers a batch fan-out splits into, whatever the
/// requested thread budget: it bounds the spawn count even for absurd
/// `--threads` requests.
pub(crate) const MAX_SHARDS: usize = 64;

/// A batch fans out on a document of at least this many nodes.
/// `bench_axes`'s `batch_eval` rows at a 2-thread budget place it: the
/// `light` batch (four memo-free Core XPath queries) and the
/// memo-attached `shared_prefix` and `disjoint` batches lose or break
/// even when split at 5,462 nodes and win at 21,846.
pub const FANOUT_MIN_NODES: u32 = 16_384;

/// A batch with a general-engine query (one outside Core XPath and
/// XPatterns, whose evaluator builds per-node tables) fans out from this
/// many nodes on. `bench_axes`'s `batch_eval` rows of the `heavy`
/// batch (four general-engine queries at a 2-thread budget) place it:
/// the two-thread split loses to serial at 342 nodes and wins at 1,366.
pub const FANOUT_MIN_NODES_GENERAL: u32 = 1_024;

/// Split `[0, items)` into `shards` near-equal contiguous ranges (at most
/// one per item): the chunks of the query list a [`QuerySet`] fans out,
/// one per worker.
fn chunk_ranges(items: u32, shards: usize) -> Vec<(u32, u32)> {
    let k = (shards as u64).clamp(1, u64::from(items).max(1));
    let bound = |i: u64| (i * u64::from(items) / k) as u32;
    (0..k).map(|i| (bound(i), bound(i + 1))).collect()
}

/// The [`BatchMode`] label of a run: the memo attached, else a fan-out
/// across more than one chunk, else serial.
pub(crate) fn mode_of(memo: bool, workers: usize) -> BatchMode {
    match (memo, workers) {
        (true, _) => BatchMode::LockStepShared,
        (false, 2..) => BatchMode::PerQuerySharded,
        (false, _) => BatchMode::Serial,
    }
}

/// One splitmix64 chaining step for memo keys.
#[inline]
fn mix(h: u64, v: u64) -> u64 {
    splitmix64(h ^ v)
}

/// Hash a compiled structure (node test, step, predicate) through its
/// derived `Hash`: equal structures hash equally (process-local keys
/// only).
fn hash_of<T: Hash>(v: &T) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

// Memo operation kinds (part of the key, so a forward step and an inverse
// pass over the same input never alias).
const OP_STEP: u64 = 0x5354_4550; // forward step: axis + node test
const OP_TSET: u64 = 0x5453_4554; // document-global T(t)
const OP_INV: u64 = 0x2049_4e56; // inverse axis pass χ⁻¹
const OP_PRED: u64 = 0x5052_4544; // document-global E1[[pred]]

/// One memoizable pass of the §10 algebra, named by what its result
/// depends on.
#[derive(Clone, Copy, Debug)]
pub(crate) enum MemoOp<'a> {
    /// A forward step `χ(N) ∩ T(t)` over the input set `N`.
    Step(Axis, &'a NodeTest, &'a NodeSet),
    /// The document-global `T(t)` relative to an axis.
    TSet(Axis, &'a NodeTest),
    /// An inverse axis pass `χ⁻¹(X)`.
    Inverse(Axis, &'a NodeSet),
    /// The document-global `E1[[pred]]`.
    Pred(&'a CorePred),
}

impl MemoOp<'_> {
    fn key(self) -> u64 {
        match self {
            MemoOp::Step(axis, test, input) => {
                mix(mix(mix(OP_STEP, axis as u64), hash_of(test)), input.memo_key())
            }
            MemoOp::TSet(axis, test) => mix(mix(OP_TSET, axis as u64), hash_of(test)),
            MemoOp::Inverse(axis, input) => mix(mix(OP_INV, axis as u64), input.memo_key()),
            MemoOp::Pred(pred) => mix(OP_PRED, hash_of(pred)),
        }
    }
}

/// The per-evaluation axis-result memo of a batch: maps
/// `(operation, axis, node-test, input-memo-key)` keys to finished
/// [`NodeSet`]s so each distinct application runs once per batch
/// evaluation. Thread-safe (`Mutex`-guarded map, atomic counters), so the
/// fan-out's workers share one; results are computed outside the lock.
#[derive(Debug, Default)]
pub struct AxisMemo {
    map: Mutex<HashMap<u64, NodeSet>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl AxisMemo {
    /// An empty memo. [`QuerySet::evaluate_all`] reuses one per set
    /// (resetting it with [`AxisMemo::begin_evaluation`] around each
    /// evaluation) — entries are only valid for a single document.
    pub fn new() -> AxisMemo {
        AxisMemo::default()
    }

    /// Reset for a new evaluation: drop the previous evaluation's
    /// entries (their node-set buffers recycle into the thread-local
    /// shelves; the map keeps its capacity for reuse) and zero the
    /// hit/miss counters.
    pub fn begin_evaluation(&self) {
        self.map.lock().expect("axis memo poisoned").clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }

    /// Applications served from the memo so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Applications that had to run their pass (and seeded the memo).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Serve `op` from the memo, or run `compute` and store its result.
    /// A pass that fails (a tripped budget) stores nothing and counts no
    /// miss, so the memo never holds a half-built set.
    pub(crate) fn get_or(
        &self,
        op: MemoOp<'_>,
        counters: &KernelCounters,
        compute: impl FnOnce() -> EvalResult<NodeSet>,
    ) -> EvalResult<NodeSet> {
        let key = op.key();
        if let Some(hit) = self.map.lock().expect("axis memo poisoned").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            counters.record_memo_hit();
            return Ok(hit.clone());
        }
        // Compute outside the lock: passes can be long, and predicate
        // computation recurses back into the memo.
        let out = compute()?;
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.map.lock().expect("axis memo poisoned").insert(key, out.clone());
        Ok(out)
    }
}

/// Builder for a [`QuerySet`]: collects raw query strings (compiled with
/// this builder's [`Compiler`]) and already-compiled
/// [`Arc<CompiledQuery>`] handles, in order.
///
/// ```
/// use std::sync::Arc;
/// use xpath_core::batch::QuerySetBuilder;
/// use xpath_core::cache::QueryCache;
/// use xpath_core::query::Compiler;
///
/// let cache = QueryCache::new(64);
/// let compiler = Compiler::new();
/// let cached = cache.get_or_compile(&compiler, "//b[c]").unwrap();
/// let set = QuerySetBuilder::with_compiler(compiler)
///     .query("//b")                // compiled by the builder
///     .compiled(Arc::clone(&cached)) // adopted from the cache
///     .build()
///     .unwrap();
/// assert_eq!(set.len(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct QuerySetBuilder {
    compiler: Compiler,
    threads: Option<u32>,
    pending: Vec<Pending>,
}

#[derive(Clone, Debug)]
enum Pending {
    Text(String),
    Handle(Arc<CompiledQuery>),
}

impl QuerySetBuilder {
    /// A builder compiling raw strings with default [`Compiler`] settings.
    pub fn new() -> QuerySetBuilder {
        QuerySetBuilder::default()
    }

    /// A builder compiling raw strings with a configured [`Compiler`]
    /// (optimizer, strategy, bindings, thread budget — the compiler's
    /// budget also becomes the batch default unless
    /// [`QuerySetBuilder::threads`] overrides it).
    pub fn with_compiler(compiler: Compiler) -> QuerySetBuilder {
        QuerySetBuilder { compiler, ..QuerySetBuilder::default() }
    }

    /// Append one raw query string (compiled at [`QuerySetBuilder::build`]
    /// time; compile errors surface there, identifying the query).
    pub fn query(mut self, text: impl Into<String>) -> QuerySetBuilder {
        self.pending.push(Pending::Text(text.into()));
        self
    }

    /// Append several raw query strings.
    pub fn queries<I, S>(mut self, texts: I) -> QuerySetBuilder
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.pending.extend(texts.into_iter().map(|t| Pending::Text(t.into())));
        self
    }

    /// Append an already-compiled query handle (e.g. from
    /// [`QueryCache::get_or_compile`](crate::cache::QueryCache::get_or_compile)
    /// or [`QueryCache::get_or_compile_many`](crate::cache::QueryCache::get_or_compile_many)).
    /// No recompilation happens; the handle is shared.
    pub fn compiled(mut self, query: Arc<CompiledQuery>) -> QuerySetBuilder {
        self.pending.push(Pending::Handle(query));
        self
    }

    /// Thread budget for batch evaluation: `0` auto-resolves
    /// (`GKP_THREADS` / the machine, see [`resolve_threads`]), `1` keeps
    /// everything on the caller's thread. Defaults to the builder
    /// compiler's budget. The budget caps the fan-out's workers; it never
    /// changes results.
    pub fn threads(mut self, threads: u32) -> QuerySetBuilder {
        self.threads = Some(threads);
        self
    }

    /// Number of queries queued so far.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether no queries are queued.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Compile every queued string, adopt every handle, analyze the
    /// batch's shared structure, and freeze the result into an immutable
    /// [`QuerySet`]. Fails on the first compile error.
    pub fn build(self) -> EvalResult<QuerySet> {
        let queries: Vec<Arc<CompiledQuery>> = self
            .pending
            .into_iter()
            .map(|p| match p {
                Pending::Text(t) => self.compiler.compile(&t).map(Arc::new),
                Pending::Handle(h) => Ok(h),
            })
            .collect::<EvalResult<_>>()?;
        let sharing = analyze_sharing(&queries);
        Ok(QuerySet {
            queries,
            threads: self.threads.unwrap_or_else(|| self.compiler.configured_threads()),
            sharing,
            kernels: Arc::new(KernelCounters::new()),
            memo: Mutex::new(AxisMemo::new()),
        })
    }
}

/// Static sharing profile of a batch, computed once at build time: how
/// many spine-step and predicate units the batch contains, and how many
/// of them repeat across queries (identical spine prefixes, identical
/// predicate paths) — each repeat is an axis pass the batch memo will
/// serve without re-running.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchSharing {
    /// Step + predicate units across all fragment-engine queries' lifted
    /// paths (each pays one memo probe when the memo is attached).
    pub total_units: usize,
    /// Units duplicated across the batch (guaranteed memo hits).
    pub shared_units: usize,
    /// Queries running on the Core XPath / XPatterns fragment engines —
    /// whole paths and aggregates over lifted paths alike; the ones that
    /// can share axis passes.
    pub fragment_queries: usize,
}

/// Every lifted path the batch's fragment-engine queries run (only those
/// share axis passes). A query the analyzer folded to a constant runs no
/// path at all, so its units could never be hits.
fn lifted_paths(queries: &[Arc<CompiledQuery>]) -> impl Iterator<Item = &CoreQuery> {
    queries
        .iter()
        .filter(|q| q.plan().report().const_result.is_none())
        .filter_map(|q| q.plan().program())
        .flat_map(Program::paths)
        .map(|lp| &lp.query)
}

fn analyze_sharing(queries: &[Arc<CompiledQuery>]) -> BatchSharing {
    let mut out = BatchSharing {
        fragment_queries: queries.iter().filter(|q| q.plan().program().is_some()).count(),
        ..BatchSharing::default()
    };
    let mut seen_prefixes: HashSet<u64> = HashSet::new();
    let mut seen_preds: HashSet<u64> = HashSet::new();
    for program in lifted_paths(queries) {
        // Chain step hashes down the spine: a step unit repeats exactly
        // when its whole prefix (start + steps so far, predicates
        // included) repeats — which is when the memo is guaranteed to
        // hit it.
        let mut h = hash_of(&program.path.start);
        for step in &program.path.steps {
            h = mix(h, hash_of(step));
            out.total_units += 1;
            if !seen_prefixes.insert(h) {
                out.shared_units += 1;
            }
            // Predicates are document-global (E1 ignores the context
            // set), so they dedupe across any position in any query.
            for pred in &step.preds {
                out.total_units += 1;
                if !seen_preds.insert(hash_of(pred)) {
                    out.shared_units += 1;
                }
            }
        }
    }
    out
}

/// An immutable, `Send + Sync` batch of compiled queries. Built by
/// [`QuerySetBuilder`]; evaluate with [`QuerySet::evaluate_all`] against
/// any number of documents from any number of threads.
#[derive(Debug)]
pub struct QuerySet {
    queries: Vec<Arc<CompiledQuery>>,
    threads: u32,
    sharing: BatchSharing,
    /// Planner decisions accumulated across batch evaluations (batch
    /// evaluations record here, not into the member queries' per-handle
    /// tallies — shared passes cannot be attributed to one query).
    kernels: Arc<KernelCounters>,
    /// The set's reusable memo: its map keeps its capacity across
    /// evaluations, so repeated [`QuerySet::evaluate_all`] calls reach an
    /// allocation-free steady state. Guarded by a `try_lock`: a concurrent
    /// evaluation (say, on another document) takes a fresh memo, so two
    /// evaluations never share entries.
    memo: Mutex<AxisMemo>,
}

impl QuerySet {
    /// Number of queries in the batch.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// The compiled queries, in input order.
    pub fn queries(&self) -> &[Arc<CompiledQuery>] {
        &self.queries
    }

    /// The configured thread budget (`0` = auto-resolve at evaluation).
    pub fn threads(&self) -> u32 {
        self.threads
    }

    /// The batch's static sharing profile (computed at build time).
    pub fn sharing(&self) -> BatchSharing {
        self.sharing
    }

    /// Axis-planner decisions accumulated across this batch's
    /// evaluations: kernel picks and memo-shared applications.
    /// Complements the per-query [`CompiledQuery::planner_stats`] (which
    /// batch evaluations leave untouched).
    pub fn planner_stats(&self) -> KernelCounts {
        self.kernels.snapshot()
    }

    /// How many chunks [`QuerySet::evaluate_all`] splits the queries into
    /// on a document of `universe` nodes: `min(budget, queries,
    /// MAX_SHARDS)` when the document has at least [`FANOUT_MIN_NODES`]
    /// nodes, or at least [`FANOUT_MIN_NODES_GENERAL`] when a query runs
    /// on a general engine; otherwise one.
    pub(crate) fn shards(&self, universe: u32) -> usize {
        let general = self.len() > self.sharing.fragment_queries;
        let large =
            universe >= FANOUT_MIN_NODES || (general && universe >= FANOUT_MIN_NODES_GENERAL);
        if !large {
            return 1;
        }
        resolve_threads(self.threads).min(self.len()).clamp(1, MAX_SHARDS)
    }

    /// Evaluate every query against `doc` from the document root, in one
    /// batch pass. Per-query results come back in input order, each
    /// exactly what [`CompiledQuery::evaluate_root`] would have returned
    /// (bit-identical with and without the memo, at any thread budget).
    pub fn evaluate_all(&self, doc: &Document) -> BatchResult {
        self.evaluate_all_at(doc, Context::of(doc.root()))
    }

    /// [`QuerySet::evaluate_all`] from an explicit context.
    pub fn evaluate_all_at(&self, doc: &Document, ctx: Context) -> BatchResult {
        self.evaluate_all_with(doc, ctx, &EvalBudget::unlimited())
    }

    /// [`QuerySet::evaluate_all_at`] under an [`EvalBudget`]: the budget
    /// is polled before each query and before every axis pass inside it
    /// (see [`Plan::execute`](crate::plan::Plan::execute)).
    /// When it trips, the query it interrupts and every later one in its
    /// chunk carry the trip error ([`crate::EvalError::Cancelled`] /
    /// [`crate::EvalError::DeadlineExceeded`]); finished results are
    /// kept. A trip leaves no memo entry half-built.
    pub fn evaluate_all_with(
        &self,
        doc: &Document,
        ctx: Context,
        budget: &EvalBudget,
    ) -> BatchResult {
        let shards = self.shards(doc.len() as u32);
        // One memo per evaluation: the set's own when it is free, a fresh
        // one when a concurrent evaluation holds it.
        let memoize = self.sharing.shared_units > 0;
        let guard = if memoize { self.memo.try_lock().ok() } else { None };
        let fresh;
        let memo = match (memoize, &guard) {
            (false, _) => None,
            (true, Some(own)) => Some(&**own),
            (true, None) => {
                fresh = AxisMemo::new();
                Some(&fresh)
            }
        };
        if let Some(m) = memo {
            m.begin_evaluation();
        }
        let eval = |i: u32| -> EvalResult<Value> {
            budget.check()?;
            let plan = self.queries[i as usize].plan();
            plan.execute(doc, ctx, &self.kernels, budget, memo)
        };
        let n = self.len() as u32;
        let mut results = crate::pool::take_results();
        // The caller's thread runs the first chunk, one scoped worker each
        // of the rest; results are collected in chunk order, i.e. input
        // order. A panicking worker propagates after the scope joins. One
        // chunk runs inline: a scope allocates, and the unsplit batch must
        // stay allocation-free.
        let workers = if shards <= 1 {
            results.extend((0..n).map(eval));
            1
        } else {
            let ranges = chunk_ranges(n, shards);
            std::thread::scope(|scope| {
                let spawned: Vec<_> = ranges[1..]
                    .iter()
                    .map(|&(lo, hi)| scope.spawn(move || (lo..hi).map(eval).collect::<Vec<_>>()))
                    .collect();
                results.extend((ranges[0].0..ranges[0].1).map(eval));
                for worker in spawned {
                    results.extend(worker.join().expect("batch worker panicked"));
                }
            });
            ranges.len()
        };
        let stats = BatchStats {
            mode: mode_of(memo.is_some(), workers),
            queries: self.len(),
            fragment_queries: self.sharing.fragment_queries,
            memo_hits: memo.map_or(0, AxisMemo::hits),
            memo_misses: memo.map_or(0, AxisMemo::misses),
            workers,
        };
        // Hand the memo's buffers back now, not at the next evaluation's
        // start: evaluations in between then see every buffer on the
        // shelves, which keeps the steady state a function of the shelved
        // capacities alone (see `xpath_xml::pool`).
        if let Some(m) = memo {
            m.begin_evaluation();
        }
        BatchResult { results, stats }
    }

    /// A rendered report of how this batch will evaluate on a document of
    /// `doc_size` nodes — the batch counterpart of
    /// [`crate::explain::explain`], surfaced by `xpq --explain` for batch
    /// invocations.
    pub fn explain(&self, doc_size: usize) -> String {
        crate::explain::explain_batch(self, doc_size)
    }
}

/// Per-query results plus batch-level observability for one
/// [`QuerySet::evaluate_all`] call.
#[derive(Debug)]
pub struct BatchResult {
    results: Vec<EvalResult<Value>>,
    stats: BatchStats,
}

impl BatchResult {
    /// Per-query results, in the batch's input order. Each entry is
    /// exactly what the corresponding independent
    /// [`CompiledQuery::evaluate`] call would have produced — including
    /// per-query errors, which never abort the rest of the batch.
    pub fn results(&self) -> &[EvalResult<Value>] {
        &self.results
    }

    /// Consume into the per-query results. The vector becomes the
    /// caller's (it no longer returns to the recycling shelf on drop).
    pub fn into_results(mut self) -> Vec<EvalResult<Value>> {
        std::mem::take(&mut self.results)
    }

    /// Number of queries evaluated.
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// Whether the batch was empty.
    pub fn is_empty(&self) -> bool {
        self.results.is_empty()
    }

    /// Batch-level statistics: what ran and the sharing achieved.
    pub fn stats(&self) -> &BatchStats {
        &self.stats
    }
}

impl Drop for BatchResult {
    /// Recycle the result vector (values first — their node-set buffers
    /// go back to the xml shelves) so the next batch evaluation on this
    /// thread starts with a warm buffer.
    fn drop(&mut self) {
        crate::pool::give_results(std::mem::take(&mut self.results));
    }
}

/// How one batch evaluation ran.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchStats {
    /// What ran: the memo attached, else a fan-out, else serial.
    pub mode: BatchMode,
    /// Queries in the batch.
    pub queries: usize,
    /// Queries that ran on the fragment engines (sharing-capable).
    pub fragment_queries: usize,
    /// Axis applications served from the batch memo (zero without it).
    pub memo_hits: u64,
    /// Axis applications that ran and seeded the memo (zero without it).
    pub memo_misses: u64,
    /// Chunks the queries ran in: the caller's thread plus the scoped
    /// workers (1 when the batch did not fan out).
    pub workers: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Strategy;
    use xpath_xml::generate::{doc_balanced, doc_bookstore, doc_figure8};

    #[test]
    fn batch_matches_independent_evaluation_on_every_path() {
        let small = doc_bookstore();
        // Past FANOUT_MIN_NODES: both batches fan out at 4 threads.
        let large = doc_balanced(4, 7, &["section", "book", "author", "title"]);
        let queries = [
            "//book[author]",
            "//book[author]/title",
            "//book[author]",   // duplicate: full sharing
            "count(//book)",    // lifted: its path shares the memo
            "count(//book[1])", // non-fragment: normal engine inside the batch
            "//section/book[title = 'XPath Processing']",
        ];
        // The same batch without its duplicate: nothing repeats.
        let disjoint = [queries[1], queries[3], queries[4], queries[5]];
        let mut seen = HashSet::new();
        for d in [&small, &large] {
            for batch in [&queries[..], &disjoint[..]] {
                let independent: Vec<Value> = batch
                    .iter()
                    .map(|q| Compiler::new().compile(q).unwrap().evaluate_root(d).unwrap())
                    .collect();
                for threads in [1u32, 4] {
                    let set = QuerySetBuilder::new()
                        .queries(batch.iter().copied())
                        .threads(threads)
                        .build()
                        .unwrap();
                    let out = set.evaluate_all(d);
                    let mode = out.stats().mode;
                    seen.insert(mode);
                    assert_eq!(mode == BatchMode::LockStepShared, batch.len() == queries.len());
                    assert_eq!(out.stats().workers, set.shards(d.len() as u32));
                    assert_eq!(out.len(), batch.len());
                    for (i, r) in out.results().iter().enumerate() {
                        assert_eq!(
                            r.as_ref().unwrap(),
                            &independent[i],
                            "{mode:?}/{threads}t diverges on {}",
                            batch[i]
                        );
                    }
                }
            }
        }
        assert_eq!(seen.len(), 3, "every label is reached: {seen:?}");
    }

    #[test]
    fn memo_shares_duplicate_prefixes() {
        let d = doc_figure8();
        let set = QuerySetBuilder::new()
            .query("//b/c")
            .query("//b/d")
            .query("//b/c") // exact duplicate
            .build()
            .unwrap();
        assert!(set.sharing().shared_units > 0, "{:?}", set.sharing());
        let out = set.evaluate_all(&d);
        assert_eq!(out.stats().mode, BatchMode::LockStepShared);
        assert!(out.stats().memo_hits > 0, "{:?}", out.stats());
        // The duplicate shares everything: its step count in hits.
        assert_eq!(out.results()[0].as_ref().unwrap(), out.results()[2].as_ref().unwrap());
        // The batch tally surfaces the shared applications.
        assert_eq!(set.planner_stats().memo_hits, out.stats().memo_hits);
    }

    #[test]
    fn memo_stores_only_successful_passes() {
        let memo = AxisMemo::new();
        let counters = KernelCounters::new();
        let test = NodeTest::Wildcard;
        let op = MemoOp::TSet(Axis::Child, &test);
        // A pass interrupted by its budget leaves no entry and no miss.
        let failed = memo.get_or(op, &counters, || Err(crate::context::EvalError::Cancelled));
        assert_eq!(failed, Err(crate::context::EvalError::Cancelled));
        assert_eq!((memo.hits(), memo.misses()), (0, 0));
        // The same key then runs its pass and is cached.
        let set = NodeSet::from_sorted(vec![xpath_xml::NodeId(1), xpath_xml::NodeId(3)]);
        let mut ran = false;
        let out = memo.get_or(op, &counters, || {
            ran = true;
            Ok(set.clone())
        });
        assert!(ran);
        assert_eq!(out.as_ref(), Ok(&set));
        assert_eq!((memo.hits(), memo.misses()), (0, 1));
        let hit = memo.get_or(op, &counters, || panic!("a cached pass does not rerun"));
        assert_eq!(hit, Ok(set));
        assert_eq!((memo.hits(), memo.misses(), counters.snapshot().memo_hits), (1, 1, 1));
    }

    #[test]
    fn nothing_repeats_means_no_memo_and_small_work_no_fan_out() {
        // Disjoint single-step queries on a tiny document: no memo, and
        // the work cannot repay a spawn even with a wide budget.
        let d = doc_bookstore();
        let set = QuerySetBuilder::new()
            .query("//book")
            .query("count(//title)")
            .threads(8)
            .build()
            .unwrap();
        assert_eq!(set.sharing().shared_units, 0);
        assert_eq!(set.shards(d.len() as u32), 1);
        let out = set.evaluate_all(&d);
        assert_eq!((out.stats().mode, out.stats().memo_hits), (BatchMode::Serial, 0));
        // A single query never fans out, however large the document.
        let one = QuerySetBuilder::new().query("//b").threads(8).build().unwrap();
        assert_eq!(one.shards(1 << 20), 1);
        // A provably empty query runs no path, so its repeat is no unit.
        let empty = QuerySetBuilder::new().query("//b/@x/c").query("//b/@x/c").build().unwrap();
        assert_eq!(empty.sharing().total_units, 0, "{:?}", empty.sharing());
    }

    #[test]
    fn heavy_batch_on_a_small_document_stays_serial() {
        // Four general-engine queries on 342 nodes: below
        // FANOUT_MIN_NODES_GENERAL, so a 4-thread budget still runs
        // serial; from 1,366 nodes the same batch fans out.
        let heavy = ["count(//b[1])", "//c[d][2]", "count(//c[1])", "//b[position() = last()]"];
        let set = QuerySetBuilder::new().queries(heavy).threads(4).build().unwrap();
        assert_eq!(set.sharing().fragment_queries, 0, "{:?}", set.sharing());
        let small = doc_balanced(4, 4, &["a", "b", "c", "d"]);
        assert_eq!(small.len(), 342);
        let out = set.evaluate_all(&small);
        assert_eq!((out.stats().workers, out.stats().mode), (1, BatchMode::Serial));
        let larger = doc_balanced(4, 5, &["a", "b", "c", "d"]);
        assert_eq!(set.evaluate_all(&larger).stats().workers, 4);
    }

    #[test]
    fn resolve_threads_explicit_wins() {
        assert_eq!(resolve_threads(3), 3);
        assert_eq!(resolve_threads(1), 1);
        assert!(resolve_threads(0) >= 1, "auto resolves to at least one thread");
    }

    #[test]
    fn threads_env_rejects_are_reported_and_fall_back() {
        // Valid values win silently; unset and blank fall back silently.
        assert_eq!(parse_threads_env(Some("4"), 2), (4, Vec::new()));
        assert_eq!(parse_threads_env(Some(" 3 "), 2), (3, Vec::new()));
        assert_eq!(parse_threads_env(None, 2), (2, Vec::new()));
        assert_eq!(parse_threads_env(Some("  "), 2), (2, Vec::new()));
        // Garbage, zero and negatives fall back to the same value, with
        // one report each naming the variable and the rejected value.
        for bad in ["abc", "0", "-1", "2.5"] {
            let (n, diagnostics) = parse_threads_env(Some(bad), 2);
            assert_eq!(n, 2, "{bad}");
            assert_eq!(diagnostics.len(), 1, "{bad}: {diagnostics:?}");
            assert!(diagnostics[0].starts_with(THREADS_ENV), "{diagnostics:?}");
            assert!(diagnostics[0].contains(&format!("{bad:?}")), "{diagnostics:?}");
        }
        // The process-wide read reports at most one line.
        assert!(threads_env_rejects().len() <= 1);
    }

    #[test]
    fn build_reports_the_failing_query() {
        let err = QuerySetBuilder::new().query("//b").query("//[").build();
        assert!(matches!(err, Err(crate::context::EvalError::Parse(_))));
    }

    #[test]
    fn per_query_errors_do_not_abort_the_batch() {
        let d = doc_bookstore();
        let budgeted = Compiler::new().naive_budget(1).default_strategy(Strategy::Naive);
        let exhausted =
            Arc::new(budgeted.compile("//book/ancestor::*/descendant::*/ancestor::*").unwrap());
        let set =
            QuerySetBuilder::new().query("count(//book)").compiled(exhausted).build().unwrap();
        let out = set.evaluate_all(&d);
        assert!(out.results()[0].is_ok());
        assert!(matches!(out.results()[1], Err(crate::context::EvalError::BudgetExhausted)));
    }

    #[test]
    fn empty_batch_is_fine() {
        let d = doc_bookstore();
        let set = QuerySetBuilder::new().build().unwrap();
        assert!(set.is_empty());
        let out = set.evaluate_all(&d);
        assert!(out.is_empty());
        assert_eq!(out.stats().mode, BatchMode::Serial);
    }

    #[test]
    fn query_set_is_send_sync_and_reusable_across_documents() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<QuerySet>();
        let set =
            Arc::new(QuerySetBuilder::new().query("count(//b)").query("//b").build().unwrap());
        std::thread::scope(|s| {
            for docs in [2, 3] {
                let set = Arc::clone(&set);
                s.spawn(move || {
                    let xml = format!("<a>{}</a>", "<b/>".repeat(docs));
                    let d = Document::parse_str(&xml).unwrap();
                    let out = set.evaluate_all(&d);
                    assert_eq!(out.results()[0].as_ref().unwrap().to_string(), docs.to_string());
                    assert_eq!(
                        out.results()[1].as_ref().unwrap(),
                        &Value::NodeSet(
                            d.all_nodes().filter(|&n| d.name(n) == Some("b")).collect::<NodeSet>()
                        )
                    );
                });
            }
        });
    }
}
