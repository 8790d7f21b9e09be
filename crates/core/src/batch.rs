//! Batched multi-query evaluation: compile N queries into one immutable
//! [`QuerySet`] and amortize a single document traversal over the whole
//! batch.
//!
//! The paper's set-at-a-time Core XPath algorithm (§10) amortizes one
//! traversal over a whole *context set*; a production engine serving many
//! concurrent queries amortizes the same traversal over *many queries at
//! once*. A [`QuerySetBuilder`] compiles raw strings (or adopts cached
//! [`Arc<CompiledQuery>`] handles from a
//! [`QueryCache`](crate::cache::QueryCache)) into a `Send + Sync`
//! [`QuerySet`]; [`QuerySet::evaluate_all`] then runs the batch in one of
//! three modes, picked per document from the fixed
//! [`CostModel::CALIBRATED`] constants (see [`CostModel::pick_batch_mode`]):
//!
//! * **lock-step shared** ([`BatchMode::LockStepShared`]) — every compiled
//!   Core XPath / XPatterns spine advances one step per round, and all
//!   axis applications go through a per-evaluation [`AxisMemo`] keyed by
//!   `(axis, node-test, input-set memo key)` ([`NodeSet::memo_key`]):
//!   identical applications across the batch run **once**. Equal inputs
//!   (in the same representation) key equally, so sharing cascades down
//!   shared spine prefixes step by step, and the document-global `T(t)`
//!   and predicate (`E1`) sets (value tests included) dedupe across every
//!   position in the batch.
//! * **per-query sharded** ([`BatchMode::PerQuerySharded`]) — nothing to
//!   share, but a multi-thread budget: the batch fans out one chunk of
//!   queries per scoped worker, each evaluated exactly as an independent
//!   evaluation would be. This fan-out is the only place query
//!   evaluation spawns threads: every single evaluation, a worker's
//!   included, runs on its calling thread.
//! * **serial** ([`BatchMode::Serial`]) — N independent evaluations on
//!   the caller's thread, the fallback when neither sharing nor spawning
//!   repays its overhead.
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
//! runs.
//!
//! # When sharing wins
//!
//! A memo hit saves a whole axis pass (`O(|D|/64)` words or worse); a
//! memo probe costs a hash-map lookup plus fingerprinting the input
//! (`O(|D|/64)` with a much smaller constant —
//! [`CostModel::memo_unit_ns`] vs [`CostModel::shared_pass_ns`]).
//! Lock-step sharing therefore pays once a few percent of the batch's
//! step units repeat ([`CostModel::batch_share_threshold`]); batches of
//! unrelated queries fall back to sharding or serial evaluation. The
//! decision — and the memo hit counts — surface in
//! [`BatchStats`], [`QuerySet::planner_stats`] and `xpq --explain`.
//!
//! # Thread budget
//!
//! The budget caps the per-query fan-out. It resolves as: explicit
//! request ([`QuerySetBuilder::threads`], [`Compiler::threads`], `xpq
//! --threads N`) > the [`THREADS_ENV`] environment variable >
//! [`std::thread::available_parallelism`] capped at [`MAX_AUTO_THREADS`]
//! (see [`resolve_threads`]). Whether the fan-out runs at all is
//! cost-gated per document by [`CostModel::pick_batch_mode`]: the work it
//! divides must repay [`CostModel::spawn_ns`] per extra worker.
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
use crate::corexpath::{CorePred, CoreQuery, CoreXPathEvaluator};
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

/// Split `[0, items)` into at most `shards` near-equal contiguous ranges:
/// the chunks of the query list a [`QuerySet`] fans out, one per worker.
fn chunk_ranges(items: u32, shards: usize) -> Vec<(u32, u32)> {
    if items == 0 || shards <= 1 {
        return vec![(0, items)];
    }
    let per_shard = items.div_ceil(shards as u32).max(1);
    let mut out = Vec::with_capacity(shards);
    let mut lo = 0u32;
    while lo < items {
        let hi = (lo + per_shard).min(items);
        out.push((lo, hi));
        lo = hi;
    }
    out
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

/// The per-evaluation axis-result memo behind
/// [`BatchMode::LockStepShared`]: maps
/// `(operation, axis, node-test, input-memo-key)` keys to finished
/// [`NodeSet`]s so each distinct application runs once per batch
/// evaluation. Thread-safe (`Mutex`-guarded map, atomic counters);
/// results are computed outside the lock.
#[derive(Debug, Default)]
pub struct AxisMemo {
    map: Mutex<HashMap<u64, NodeSet>>,
    /// Structural hashes of node tests / predicates, cached by address:
    /// the compiled structures are pinned by the batch's
    /// `Arc<CompiledQuery>` handles, which outlive every memo the set
    /// uses (the shared scratch memo lives as long as the `QuerySet`
    /// itself), so an address uniquely identifies one structure and
    /// repeat probes skip the `Debug`-render hash entirely.
    ptr_hashes: Mutex<HashMap<usize, u64>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl AxisMemo {
    /// An empty memo. [`QuerySet::evaluate_all`] reuses one per set
    /// (resetting it with [`AxisMemo::begin_evaluation`] each round) —
    /// entries are only valid for a single document.
    pub fn new() -> AxisMemo {
        AxisMemo::default()
    }

    /// Reset for a new evaluation round: drop the previous round's
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
    mode: Option<BatchMode>,
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
    /// compiler's budget. The budget caps the workers of
    /// [`BatchMode::PerQuerySharded`]; it never changes results.
    pub fn threads(mut self, threads: u32) -> QuerySetBuilder {
        self.threads = Some(threads);
        self
    }

    /// Pin the evaluation mode instead of letting
    /// [`CostModel::pick_batch_mode`] decide per document. Any mode is
    /// bit-identical to the others; pinning exists for tests, benchmarks
    /// and callers that know their workload.
    pub fn mode(mut self, mode: BatchMode) -> QuerySetBuilder {
        self.mode = Some(mode);
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
            mode: self.mode,
            sharing,
            kernels: Arc::new(KernelCounters::new()),
            scratch: Mutex::new(LockStepScratch::default()),
        })
    }
}

/// Reusable lock-step evaluation scratch, kept on the [`QuerySet`] so
/// repeated [`QuerySet::evaluate_all`] calls reach an allocation-free
/// steady state: the memo map keeps its capacity (and its structural
/// ptr-hash cache) across rounds, and the arena's slot vector replaces
/// the per-call `states` allocation. Guarded by a `try_lock` — a
/// concurrent evaluation on another thread simply takes a fresh scratch.
#[derive(Debug, Default)]
struct LockStepScratch {
    memo: Arc<AxisMemo>,
    arena: crate::pool::NodeSetArena,
}

/// Static sharing profile of a batch, computed once at build time: how
/// many spine-step and predicate units the batch contains, and how many
/// of them repeat across queries (identical spine prefixes, identical
/// predicate paths) — each repeat is an axis pass the lock-step memo
/// will serve without re-running.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchSharing {
    /// Step + predicate units across all fragment-engine queries' lifted
    /// paths (each pays one memo probe under lock-step evaluation).
    pub total_units: usize,
    /// Units duplicated across the batch (guaranteed memo hits).
    pub shared_units: usize,
    /// Queries running on the Core XPath / XPatterns fragment engines —
    /// whole paths and aggregates over lifted paths alike; the ones that
    /// can share axis passes.
    pub fragment_queries: usize,
}

/// Every lifted path of the batch's fragment-engine queries (only those
/// share axis passes), query-major: the order of the lock-step state
/// slots.
fn lifted_paths(queries: &[Arc<CompiledQuery>]) -> impl Iterator<Item = &CoreQuery> {
    queries.iter().filter_map(|q| q.plan().program()).flat_map(Program::paths).map(|lp| &lp.query)
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
        // included) repeats — which is when the lock-step memo is
        // guaranteed to hit it.
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
    mode: Option<BatchMode>,
    sharing: BatchSharing,
    /// Planner decisions accumulated across batch evaluations (batch
    /// evaluations record here, not into the member queries' per-handle
    /// tallies — shared passes cannot be attributed to one query).
    kernels: Arc<KernelCounters>,
    /// Reusable lock-step scratch (memo + arena), `try_lock`-guarded.
    scratch: Mutex<LockStepScratch>,
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

    /// The [`BatchMode`] [`QuerySet::evaluate_all`] will use on a
    /// document of `universe` nodes under the current thread budget — the
    /// cost model's decision, unless a mode was pinned at build time.
    pub fn plan_mode(&self, universe: u32) -> BatchMode {
        if let Some(pinned) = self.mode {
            return pinned;
        }
        let threads = resolve_threads(self.threads);
        // Divisible work estimate for the per-query fan-out: one axis
        // pass per fragment step unit, plus a CVT-row-scale estimate per
        // general-engine query (their evaluators materialize per-node
        // tables, far heavier than one pass).
        let cost = CostModel::CALIBRATED;
        let fragment_ns = self.sharing.total_units as f64 * cost.shared_pass_ns(universe);
        let general = (self.len() - self.sharing.fragment_queries) as f64;
        let general_ns = general * cost.cvt_row_ns() * f64::from(universe);
        cost.pick_batch_mode(
            self.len(),
            self.sharing.shared_units,
            self.sharing.total_units,
            fragment_ns + general_ns,
            universe,
            threads,
        )
    }

    /// Evaluate every query against `doc` from the document root, in one
    /// batch pass. Per-query results come back in input order, each
    /// exactly what [`CompiledQuery::evaluate_root`] would have returned
    /// (bit-identical across all modes and thread budgets).
    pub fn evaluate_all(&self, doc: &Document) -> BatchResult {
        self.evaluate_all_at(doc, Context::of(doc.root()))
    }

    /// [`QuerySet::evaluate_all`] from an explicit context.
    pub fn evaluate_all_at(&self, doc: &Document, ctx: Context) -> BatchResult {
        self.evaluate_all_with(doc, ctx, &EvalBudget::unlimited())
    }

    /// [`QuerySet::evaluate_all_at`] under an [`EvalBudget`]: the budget
    /// is polled between lock-step rounds and between per-query
    /// evaluations (and inside each member query's own evaluation). When
    /// it trips, every not-yet-finished query's slot carries the trip
    /// error ([`crate::EvalError::Cancelled`] /
    /// [`crate::EvalError::DeadlineExceeded`]); already-finished results
    /// are kept. The batch never hangs past one round.
    pub fn evaluate_all_with(
        &self,
        doc: &Document,
        ctx: Context,
        budget: &EvalBudget,
    ) -> BatchResult {
        let mode = self.plan_mode(doc.len() as u32);
        match mode {
            BatchMode::LockStepShared => self.run_lock_step(doc, ctx, budget),
            BatchMode::PerQuerySharded => self.run_sharded(doc, ctx, budget),
            BatchMode::Serial => self.run_serial(doc, ctx, budget),
        }
    }

    /// One independent evaluation, recording planner decisions into the
    /// batch tally.
    fn eval_one(
        &self,
        doc: &Document,
        ctx: Context,
        i: usize,
        budget: &EvalBudget,
    ) -> EvalResult<Value> {
        budget.check()?;
        self.queries[i].plan().execute_recording_with(doc, ctx, &self.kernels, budget)
    }

    fn run_serial(&self, doc: &Document, ctx: Context, budget: &EvalBudget) -> BatchResult {
        let mut results = crate::pool::take_results();
        results.extend((0..self.len()).map(|i| self.eval_one(doc, ctx, i, budget)));
        BatchResult {
            results,
            stats: BatchStats {
                mode: BatchMode::Serial,
                queries: self.len(),
                fragment_queries: self.sharing.fragment_queries,
                memo_hits: 0,
                memo_misses: 0,
                workers: 1,
            },
        }
    }

    /// The per-query fan-out: one chunk of queries per scoped worker, the
    /// caller's thread running the first chunk, so `k` chunks spawn
    /// `k − 1` workers. Results are collected in chunk order, i.e. input
    /// order; a panicking worker propagates after the scope joins.
    fn run_sharded(&self, doc: &Document, ctx: Context, budget: &EvalBudget) -> BatchResult {
        let threads = resolve_threads(self.threads).min(self.len()).max(1);
        let ranges = chunk_ranges(self.len() as u32, threads);
        let workers = ranges.len();
        let eval_chunk = |(lo, hi): (u32, u32)| -> Vec<EvalResult<Value>> {
            (lo..hi).map(|i| self.eval_one(doc, ctx, i as usize, budget)).collect()
        };
        let eval_chunk = &eval_chunk;
        let mut results = crate::pool::take_results();
        std::thread::scope(|scope| {
            let spawned: Vec<_> =
                ranges[1..].iter().map(|&r| scope.spawn(move || eval_chunk(r))).collect();
            results.extend(eval_chunk(ranges[0]));
            for worker in spawned {
                results.extend(worker.join().expect("batch worker panicked"));
            }
        });
        BatchResult {
            results,
            stats: BatchStats {
                mode: BatchMode::PerQuerySharded,
                queries: self.len(),
                fragment_queries: self.sharing.fragment_queries,
                memo_hits: 0,
                memo_misses: 0,
                workers,
            },
        }
    }

    fn run_lock_step(&self, doc: &Document, ctx: Context, budget: &EvalBudget) -> BatchResult {
        // Reuse the set's scratch (memo map + slot arena) when it is
        // free; a concurrent evaluation on another thread falls back to
        // a fresh one rather than waiting.
        let mut fallback = None;
        let mut guard = self.scratch.try_lock().ok();
        let scratch = match guard.as_deref_mut() {
            Some(s) => s,
            None => fallback.get_or_insert_with(LockStepScratch::default),
        };
        scratch.memo.begin_evaluation();
        let memo = Arc::clone(&scratch.memo);
        let ev = CoreXPathEvaluator::new(doc).with_memo(Arc::clone(&memo));
        let ctx_nodes = [ctx.node];
        // Every lifted path of every fragment query advances lock-step
        // (one state slot each, query-major); the rest run their normal
        // engines below.
        let states = scratch.arena.begin();
        states.extend(
            lifted_paths(&self.queries).map(|cq| Some(ev.start_set(&cq.path.start, &ctx_nodes))),
        );
        let rounds = lifted_paths(&self.queries).map(|cq| cq.path.steps.len()).max().unwrap_or(0);
        // Budget granularity: one lock-step round (a whole batch-wide
        // layer of axis passes). A trip poisons no state — every
        // unfinished slot just reports the trip error.
        let mut tripped = None;
        for k in 0..rounds {
            if let Err(e) = budget.check() {
                tripped = Some(e);
                break;
            }
            for (cq, state) in lifted_paths(&self.queries).zip(states.iter_mut()) {
                if let (Some(step), Some(n)) = (cq.path.steps.get(k), state.as_mut()) {
                    *n = ev.advance_step(step, n);
                }
            }
        }
        // Each fragment query folds over its own run of slots.
        let mut first_slot = 0;
        let mut results = crate::pool::take_results();
        results.extend(self.queries.iter().enumerate().map(|(i, q)| {
            let Some(program) = q.plan().program() else {
                return match &tripped {
                    Some(e) => Err(e.clone()),
                    None => self.eval_one(doc, ctx, i, budget),
                };
            };
            let slots = &mut states[first_slot..first_slot + program.paths().len()];
            first_slot += slots.len();
            if let Some(e) = &tripped {
                return Err(e.clone());
            }
            program.fold().eval(doc, &ctx, &mut |j| {
                Ok(slots[j].take().expect("a fold reads each lifted path once"))
            })
        }));
        self.kernels.merge(ev.kernel_counts());
        let stats = BatchStats {
            mode: BatchMode::LockStepShared,
            queries: self.len(),
            fragment_queries: self.sharing.fragment_queries,
            memo_hits: memo.hits(),
            memo_misses: memo.misses(),
            workers: 1,
        };
        // Hand the round's buffers back now, not at the next round's
        // start: evaluations between rounds then see every buffer on the
        // shelves, which keeps the steady state a function of the shelved
        // capacities alone (see `xpath_xml::pool`).
        memo.begin_evaluation();
        states.clear();
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

    /// Batch-level statistics: the mode taken and the sharing achieved.
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
    /// The evaluation mode the cost model picked (or the pinned one).
    pub mode: BatchMode,
    /// Queries in the batch.
    pub queries: usize,
    /// Queries that ran on the fragment engines (sharing-capable).
    pub fragment_queries: usize,
    /// Axis applications served from the shared memo (lock-step mode;
    /// zero elsewhere).
    pub memo_hits: u64,
    /// Axis applications that ran and seeded the memo (lock-step mode).
    pub memo_misses: u64,
    /// Scoped workers the batch fanned out across (sharded mode; 1
    /// elsewhere).
    pub workers: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Strategy;
    use xpath_xml::generate::{doc_bookstore, doc_figure8};

    #[test]
    fn batch_matches_independent_evaluation_in_every_mode() {
        let d = doc_bookstore();
        let queries = [
            "//book[author]",
            "//book[author]/title",
            "//book[author]",   // duplicate: full sharing
            "count(//book)",    // lifted: its path joins the lock-step rounds
            "count(//book[1])", // non-fragment: normal engine inside the batch
            "//section/book[title = 'XPath Processing']",
        ];
        let independent: Vec<Value> = queries
            .iter()
            .map(|q| Compiler::new().compile(q).unwrap().evaluate_root(&d).unwrap())
            .collect();
        for mode in [BatchMode::LockStepShared, BatchMode::PerQuerySharded, BatchMode::Serial] {
            for threads in [1u32, 4] {
                let set = QuerySetBuilder::new()
                    .queries(queries)
                    .mode(mode)
                    .threads(threads)
                    .build()
                    .unwrap();
                let out = set.evaluate_all(&d);
                assert_eq!(out.stats().mode, mode);
                assert_eq!(out.len(), queries.len());
                for (i, r) in out.results().iter().enumerate() {
                    assert_eq!(
                        r.as_ref().unwrap(),
                        &independent[i],
                        "{mode:?}/{threads}t diverges on {}",
                        queries[i]
                    );
                }
            }
        }
    }

    #[test]
    fn lock_step_shares_duplicate_prefixes() {
        let d = doc_figure8();
        let set = QuerySetBuilder::new()
            .query("//b/c")
            .query("//b/d")
            .query("//b/c") // exact duplicate
            .mode(BatchMode::LockStepShared)
            .build()
            .unwrap();
        assert!(set.sharing().shared_units > 0, "{:?}", set.sharing());
        let out = set.evaluate_all(&d);
        assert!(out.stats().memo_hits > 0, "{:?}", out.stats());
        // The duplicate shares everything: its step count in hits.
        assert_eq!(out.results()[0].as_ref().unwrap(), out.results()[2].as_ref().unwrap());
        // The batch tally surfaces the shared applications.
        assert_eq!(set.planner_stats().memo_hits, out.stats().memo_hits);
    }

    #[test]
    fn cost_model_falls_back_when_nothing_repeats() {
        // Disjoint single-step queries on a tiny document: sharing cannot
        // pay, and one thread rules out the fan-out.
        let set =
            QuerySetBuilder::new().query("//b").query("count(//c)").threads(1).build().unwrap();
        assert_eq!(set.plan_mode(100), BatchMode::Serial);
        // A single query is serial even when pinned sharing would win.
        let one = QuerySetBuilder::new().query("//b").build().unwrap();
        assert_eq!(one.plan_mode(1 << 20), BatchMode::Serial);
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
