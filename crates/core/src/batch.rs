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
//! plan, in input order, under two rules that need no cost constant of
//! their own:
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
//! * **the fan-out** — the queries split into `k` contiguous chunks, with
//!   `k` from [`CostModel::pick_shards`] over the batch's divisible work
//!   (one axis pass per unit the memo will not serve, plus a CVT-row
//!   estimate per general-engine query), capped by the thread budget. The
//!   caller's thread runs the first chunk and `k − 1` scoped workers run
//!   the rest, sharing the one memo. This fan-out is the only place query
//!   evaluation spawns threads: every single evaluation, a worker's
//!   included, runs on its calling thread.
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
//! (see [`resolve_threads`]). How many workers actually run is decided
//! per document by [`CostModel::pick_shards`]: the work they divide must
//! repay [`CostModel::spawn_ns`] per extra worker.
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

use xpath_axes::{BatchMode, CostModel, KernelCounters, KernelCounts};
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

/// Hash a value through its `Debug` rendering — derived `Debug` output is
/// a faithful structural rendering of the compiled-query types, so equal
/// structures hash equally (process-local keys only).
fn hash_debug<T: std::fmt::Debug>(v: &T) -> u64 {
    let mut h = DefaultHasher::new();
    format!("{v:?}").hash(&mut h);
    h.finish()
}

// Memo operation kinds (part of the key, so a forward step and an inverse
// pass over the same input never alias).
const OP_STEP: u64 = 0x5354_4550; // forward step: axis + node test
const OP_TSET: u64 = 0x5453_4554; // document-global T(t)
const OP_INV: u64 = 0x2049_4e56; // inverse axis pass χ⁻¹
const OP_PRED: u64 = 0x5052_4544; // document-global E1[[pred]]

/// The per-evaluation axis-result memo of a batch: maps
/// `(operation, axis, node-test, input-memo-key)` keys to finished
/// [`NodeSet`]s so each distinct application runs once per batch
/// evaluation. Thread-safe (`Mutex`-guarded map, atomic counters), so the
/// fan-out's workers share one; results are computed outside the lock.
#[derive(Debug, Default)]
pub struct AxisMemo {
    map: Mutex<HashMap<u64, NodeSet>>,
    /// Structural hashes of node tests / predicates, cached by address:
    /// the compiled structures are pinned by the batch's
    /// `Arc<CompiledQuery>` handles, which outlive every memo the set
    /// uses (the set's own memo lives as long as the `QuerySet` itself),
    /// so an address uniquely identifies one structure and
    /// repeat probes skip the `Debug`-render hash entirely.
    ptr_hashes: Mutex<HashMap<usize, u64>>,
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
    /// hit/miss counters. The structural ptr-hash cache survives — the
    /// structures it keys are pinned by the owning set's
    /// `Arc<CompiledQuery>` handles for the memo's whole life.
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

    /// [`hash_debug`] with the result cached by the value's address (see
    /// `ptr_hashes`): the render runs once per distinct structure per
    /// evaluation, not once per probe.
    fn structural_hash<T: std::fmt::Debug>(&self, v: &T) -> u64 {
        let addr = std::ptr::from_ref(v) as usize;
        if let Some(&h) = self.ptr_hashes.lock().expect("axis memo poisoned").get(&addr) {
            return h;
        }
        let h = hash_debug(v);
        self.ptr_hashes.lock().expect("axis memo poisoned").insert(addr, h);
        h
    }

    fn get_or(
        &self,
        key: u64,
        counters: &KernelCounters,
        compute: impl FnOnce() -> NodeSet,
    ) -> NodeSet {
        if let Some(hit) = self.map.lock().expect("axis memo poisoned").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            counters.record_memo_hit();
            return hit.clone();
        }
        // Compute outside the lock: passes can be long, and predicate
        // computation recurses back into the memo.
        let out = compute();
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.map.lock().expect("axis memo poisoned").insert(key, out.clone());
        out
    }

    pub(crate) fn step(
        &self,
        axis: Axis,
        test: &NodeTest,
        input: &NodeSet,
        counters: &KernelCounters,
        compute: impl FnOnce() -> NodeSet,
    ) -> NodeSet {
        let key = mix(mix(mix(OP_STEP, axis as u64), self.structural_hash(test)), input.memo_key());
        self.get_or(key, counters, compute)
    }

    pub(crate) fn t_set(
        &self,
        axis: Axis,
        test: &NodeTest,
        counters: &KernelCounters,
        compute: impl FnOnce() -> NodeSet,
    ) -> NodeSet {
        let key = mix(mix(OP_TSET, axis as u64), self.structural_hash(test));
        self.get_or(key, counters, compute)
    }

    pub(crate) fn inverse(
        &self,
        axis: Axis,
        input: &NodeSet,
        counters: &KernelCounters,
        compute: impl FnOnce() -> NodeSet,
    ) -> NodeSet {
        let key = mix(mix(OP_INV, axis as u64), input.memo_key());
        self.get_or(key, counters, compute)
    }

    pub(crate) fn pred(
        &self,
        pred: &CorePred,
        counters: &KernelCounters,
        compute: impl FnOnce() -> NodeSet,
    ) -> NodeSet {
        let key = mix(OP_PRED, self.structural_hash(pred));
        self.get_or(key, counters, compute)
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
        let mut h = hash_debug(&program.path.start);
        for step in &program.path.steps {
            h = mix(h, hash_debug(step));
            out.total_units += 1;
            if !seen_prefixes.insert(h) {
                out.shared_units += 1;
            }
            // Predicates are document-global (E1 ignores the context
            // set), so they dedupe across any position in any query.
            for pred in &step.preds {
                out.total_units += 1;
                if !seen_preds.insert(hash_debug(pred)) {
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
    /// The set's reusable memo: its map keeps its capacity (and its
    /// structural ptr-hash cache) across evaluations, so repeated
    /// [`QuerySet::evaluate_all`] calls reach an allocation-free steady
    /// state. Guarded by a `try_lock`: a concurrent evaluation (say, on
    /// another document) takes a fresh memo, so two evaluations never
    /// share entries.
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
    /// on a document of `universe` nodes: [`CostModel::pick_shards`] over
    /// the batch's divisible work, at most the thread budget and the
    /// query count. The work is one axis pass per fragment unit the memo
    /// will not serve, plus a CVT-row-scale estimate per general-engine
    /// query (their evaluators materialize per-node tables, far heavier
    /// than one pass).
    pub(crate) fn shards(&self, universe: u32) -> usize {
        let cost = CostModel::CALIBRATED;
        let unshared = self.sharing.total_units - self.sharing.shared_units;
        let fragment_ns = unshared as f64 * cost.shared_pass_ns(universe);
        let general = (self.len() - self.sharing.fragment_queries) as f64;
        let general_ns = general * cost.cvt_row_ns() * f64::from(universe);
        cost.pick_shards(fragment_ns + general_ns, resolve_threads(self.threads).min(self.len()))
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
    /// (see [`Plan::execute_with`](crate::plan::Plan::execute_with)).
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
            plan.execute_recording_with(doc, ctx, &self.kernels, budget, memo)
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
        // Large enough that `pick_shards` splits the batch at 4 threads.
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
