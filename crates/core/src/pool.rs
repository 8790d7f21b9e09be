//! The "data pool" evaluator (paper §9): the naive recursive evaluation
//! strategy of existing processors, retrofitted with the context-value-table
//! principle via memoization — Algorithm 9.1.
//!
//! Before evaluating any subexpression `e` for a context `⟨x,k,n⟩`, the
//! retrieval procedure checks the pool for a triple `⟨e, c, v⟩`; after a
//! miss, the storage procedure records the computed value. Location-path
//! *suffixes* are additionally pooled per context node (`P[[π]]` depends on
//! the node only, §9.2), which removes the exponential recursion of
//! `process-location-step` entirely. Theorem 9.2: polynomial combined
//! complexity.
//!
//! This evaluator is the "Xalan + data pool" system of Table V / Figure 12;
//! [`crate::naive`] is "Xalan classic".
//!
//! The module also hosts [`NodeSetArena`], the *runtime* pooling facade:
//! a per-evaluation arena over the thread-local buffer shelves of
//! [`xpath_xml::pool`] that gives the fragment engines and the batch
//! layer an allocation-free steady state (reset-and-reuse slot storage
//! plus shelf-miss accounting).

use std::cell::{Cell, RefCell};
use std::collections::HashMap;

use xpath_syntax::{BinaryOp, Expr, LocationPath, PathStart, Step};
use xpath_xml::{Document, NodeId};

use crate::context::{Context, EvalBudget, EvalError, EvalResult};
use crate::eval_common::{apply_binary, position_of, predicate_holds, step_candidates};
use crate::functions;
use crate::nodeset::NodeSet;
use crate::value::Value;

/// Statistics about pool effectiveness (returned by
/// [`PoolEvaluator::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Pool hits (retrievals that avoided recomputation).
    pub hits: u64,
    /// Pool misses (evaluations that were stored).
    pub misses: u64,
    /// Location-step applications actually performed.
    pub steps_applied: u64,
}

/// The memoized recursive evaluator of §9.
pub struct PoolEvaluator<'d> {
    doc: &'d Document,
    /// ⟨e, c⟩ → v for general expressions; keyed by the subexpression's
    /// address within the query AST (stable for the evaluation's lifetime).
    expr_pool: RefCell<HashMap<(usize, Context), Value>>,
    /// ⟨π-suffix, x⟩ → node set for location-path suffixes.
    path_pool: RefCell<HashMap<(usize, usize, NodeId), NodeSet>>,
    hits: Cell<u64>,
    misses: Cell<u64>,
    steps_applied: Cell<u64>,
    budget: Option<Cell<u64>>,
    /// Deadline/cancellation budget, polled alongside the step budget.
    eval_budget: EvalBudget,
}

impl<'d> PoolEvaluator<'d> {
    /// Create a pool evaluator over `doc`.
    pub fn new(doc: &'d Document) -> Self {
        PoolEvaluator {
            doc,
            expr_pool: RefCell::new(HashMap::new()),
            path_pool: RefCell::new(HashMap::new()),
            hits: Cell::new(0),
            misses: Cell::new(0),
            steps_applied: Cell::new(0),
            budget: None,
            eval_budget: EvalBudget::unlimited(),
        }
    }

    /// Like [`PoolEvaluator::new`] with a location-step budget (to
    /// demonstrate that the budget is *not* hit where the naive evaluator
    /// exhausts it).
    pub fn with_budget(doc: &'d Document, budget: u64) -> Self {
        let mut e = Self::new(doc);
        e.budget = Some(Cell::new(budget));
        e
    }

    /// Attach a deadline/cancellation [`EvalBudget`], polled at every
    /// location-step application.
    #[must_use]
    pub fn with_eval_budget(mut self, budget: EvalBudget) -> Self {
        self.eval_budget = budget;
        self
    }

    /// Pool statistics.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            steps_applied: self.steps_applied.get(),
        }
    }

    /// Evaluate `query` in context `ctx`. The pool persists across calls on
    /// the same evaluator (same document), mirroring §9's per-query data
    /// pool when one evaluator is used per query.
    pub fn evaluate(&self, query: &Expr, ctx: Context) -> EvalResult<Value> {
        self.eval(query, ctx)
    }

    fn charge(&self) -> EvalResult<()> {
        self.steps_applied.set(self.steps_applied.get() + 1);
        self.eval_budget.check()?;
        if let Some(b) = &self.budget {
            if b.get() == 0 {
                return Err(EvalError::BudgetExhausted);
            }
            b.set(b.get() - 1);
        }
        Ok(())
    }

    /// Algorithm 9.1: `atomic-evaluation-CVT`.
    fn eval(&self, e: &Expr, ctx: Context) -> EvalResult<Value> {
        // Constants need no pooling.
        match e {
            Expr::Number(v) => return Ok(Value::Number(*v)),
            Expr::Literal(s) => return Ok(Value::String(s.clone())),
            Expr::Var(name) => return Err(EvalError::UnboundVariable(name.clone())),
            _ => {}
        }
        let key = (e as *const Expr as usize, ctx);
        if let Some(v) = self.expr_pool.borrow().get(&key) {
            self.hits.set(self.hits.get() + 1);
            return Ok(v.clone()); // retrieval procedure
        }
        self.misses.set(self.misses.get() + 1);
        let v = self.eval_uncached(e, ctx)?; // basic evaluation step
        self.expr_pool.borrow_mut().insert(key, v.clone()); // storage procedure
        Ok(v)
    }

    fn eval_uncached(&self, e: &Expr, ctx: Context) -> EvalResult<Value> {
        match e {
            Expr::Path(p) => Ok(Value::NodeSet(self.eval_path(p, ctx)?)),
            Expr::Filter { primary, predicates } => {
                let base = self.eval(primary, ctx)?;
                let Some(base_set) = base.into_node_set() else {
                    return Err(EvalError::TypeMismatch(
                        "predicates require a node-set primary expression".into(),
                    ));
                };
                let mut set = base_set.into_vec();
                for pred in predicates {
                    let len = set.len();
                    let mut kept = Vec::with_capacity(len);
                    for (j, &y) in set.iter().enumerate() {
                        let pos = (j + 1) as u32;
                        let v = self.eval(pred, Context::new(y, pos, len.max(1) as u32))?;
                        if predicate_holds(&v, pos) {
                            kept.push(y);
                        }
                    }
                    set = kept;
                }
                Ok(Value::NodeSet(NodeSet::from_sorted(set)))
            }
            Expr::Binary { op: BinaryOp::And, left, right } => {
                let l = self.eval(left, ctx)?;
                if !l.to_boolean() {
                    return Ok(Value::Boolean(false));
                }
                Ok(Value::Boolean(self.eval(right, ctx)?.to_boolean()))
            }
            Expr::Binary { op: BinaryOp::Or, left, right } => {
                let l = self.eval(left, ctx)?;
                if l.to_boolean() {
                    return Ok(Value::Boolean(true));
                }
                Ok(Value::Boolean(self.eval(right, ctx)?.to_boolean()))
            }
            Expr::Binary { op, left, right } => {
                let l = self.eval(left, ctx)?;
                let r = self.eval(right, ctx)?;
                apply_binary(self.doc, *op, l, r)
            }
            Expr::Neg(inner) => Ok(Value::Number(-self.eval(inner, ctx)?.to_number(self.doc))),
            Expr::Call { name, args } => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a, ctx)?);
                }
                functions::apply(self.doc, name, &vals, &ctx)
            }
            Expr::Number(_) | Expr::Literal(_) | Expr::Var(_) => unreachable!("handled in eval"),
        }
    }

    fn eval_path(&self, p: &LocationPath, ctx: Context) -> EvalResult<NodeSet> {
        let starts: NodeSet = match &p.start {
            PathStart::Root => NodeSet::singleton(self.doc.root()),
            PathStart::ContextNode => NodeSet::singleton(ctx.node),
            PathStart::Expr(e) => self.eval(e, ctx)?.into_node_set().ok_or_else(|| {
                EvalError::TypeMismatch("path start must evaluate to a node set".into())
            })?,
        };
        let pid = p as *const LocationPath as usize;
        let mut out = NodeSet::new();
        for x in starts {
            out.union_with(&self.eval_steps(pid, &p.steps, 0, x)?);
        }
        Ok(out)
    }

    /// `P[[π-suffix]](x)`, pooled per (suffix, context node) — §9.2's
    /// treatment of location paths.
    fn eval_steps(&self, pid: usize, steps: &[Step], idx: usize, x: NodeId) -> EvalResult<NodeSet> {
        if idx == steps.len() {
            return Ok(NodeSet::singleton(x));
        }
        let key = (pid, idx, x);
        if let Some(s) = self.path_pool.borrow().get(&key) {
            self.hits.set(self.hits.get() + 1);
            return Ok(s.clone());
        }
        self.misses.set(self.misses.get() + 1);
        self.charge()?;
        let step = &steps[idx];
        let mut s = step_candidates(self.doc, step.axis, &step.test, x);
        for pred in &step.predicates {
            let len = s.len();
            let mut kept = Vec::with_capacity(len);
            for (j, &y) in s.iter().enumerate() {
                let pos = position_of(step.axis, j, len);
                let v = self.eval(pred, Context::new(y, pos, len.max(1) as u32))?;
                if predicate_holds(&v, pos) {
                    kept.push(y);
                }
            }
            s = kept;
        }
        let mut out = NodeSet::new();
        for y in s {
            out.union_with(&self.eval_steps(pid, steps, idx + 1, y)?);
        }
        self.path_pool.borrow_mut().insert(key, out.clone());
        Ok(out)
    }
}

/// Convenience: evaluate a query string with the pool evaluator.
pub fn evaluate_str(doc: &Document, query: &str, ctx: Context) -> EvalResult<Value> {
    let e =
        xpath_syntax::parse_normalized(query).map_err(|err| EvalError::Parse(err.to_string()))?;
    PoolEvaluator::new(doc).evaluate(&e, ctx)
}

// ---------------------------------------------------------------------------
// NodeSetArena: the per-evaluation transient-set arena
// ---------------------------------------------------------------------------

/// A per-evaluation arena for transient [`NodeSet`]s and evaluation
/// scratch, built on the thread-local recycling shelves of
/// [`xpath_xml::pool`].
///
/// The engines churn through short-lived node sets — one per axis
/// application, per predicate pass, per lock-step batch round. Every
/// [`NodeSet`] already returns its buffer to the thread-local shelves on
/// drop; the arena adds the *evaluation-scoped* pieces on top:
///
/// * a reusable slot vector for the lock-step batch rounds —
///   [`NodeSetArena::begin`] recycles whatever the previous round left
///   behind and hands back the cleared vector, capacity retained;
/// * reset-and-reuse observability — [`NodeSetArena::shelf_misses`]
///   reports how many buffer requests since the last
///   [`begin`](NodeSetArena::begin) had to touch the system allocator.
///   Zero once the shelves are warm: that is the allocation-free steady
///   state the `alloc_steady_state` regression test pins.
///
/// The arena is owned by one evaluation at a time; the batch layer guards
/// its shared instance with a `Mutex` and falls back to a fresh arena
/// under contention (see `QuerySet::evaluate_all`).
#[derive(Debug, Default)]
pub struct NodeSetArena {
    slots: Vec<Option<NodeSet>>,
    baseline: xpath_xml::pool::PoolStats,
}

impl NodeSetArena {
    /// An empty arena.
    pub fn new() -> NodeSetArena {
        NodeSetArena::default()
    }

    /// Start an evaluation round: recycle any node sets still parked in
    /// the slot vector (their buffers return to the shelves), re-baseline
    /// the allocation stats, and hand the cleared vector — capacity
    /// retained across rounds — to the caller to fill.
    pub fn begin(&mut self) -> &mut Vec<Option<NodeSet>> {
        self.slots.clear();
        self.baseline = xpath_xml::pool::stats();
        &mut self.slots
    }

    /// A pooled transient set in the vector representation.
    pub fn transient(&self) -> NodeSet {
        NodeSet::new()
    }

    /// A pooled empty dense set over `[0, universe)`.
    pub fn dense(&self, universe: u32) -> NodeSet {
        NodeSet::empty_dense(universe)
    }

    /// Buffer requests since the last [`begin`](NodeSetArena::begin) that
    /// missed this thread's shelves and hit the system allocator. Zero in
    /// steady state.
    pub fn shelf_misses(&self) -> u64 {
        xpath_xml::pool::stats().misses.saturating_sub(self.baseline.misses)
    }
}

// Shelf of recycled per-query result vectors (the backing store of a
// `BatchResult`), so repeated `QuerySet::evaluate_all` calls reuse one
// buffer per thread instead of allocating a fresh vector per batch.
thread_local! {
    static RESULT_SHELF: RefCell<Vec<Vec<EvalResult<Value>>>> = const { RefCell::new(Vec::new()) };
}

/// How many result vectors a thread keeps (batches rarely nest).
const MAX_POOLED_RESULTS: usize = 8;

/// Take the largest recycled result vector, or a fresh (empty,
/// capacity-0) one.
pub(crate) fn take_results() -> Vec<EvalResult<Value>> {
    RESULT_SHELF.try_with(|s| s.borrow_mut().pop()).ok().flatten().unwrap_or_default()
}

/// Return a result vector for reuse. Elements are cleared *before* the
/// shelf borrow (dropping their values recycles node-set buffers into the
/// xml shelves); capacity-0 vectors are rejected.
pub(crate) fn give_results(mut v: Vec<EvalResult<Value>>) {
    v.clear();
    if v.capacity() == 0 {
        return;
    }
    let _ = RESULT_SHELF.try_with(|s| {
        // Sorted by capacity, largest taken first, as in `xpath_xml::pool`.
        let mut shelf = s.borrow_mut();
        let at = shelf.partition_point(|b| b.capacity() <= v.capacity());
        shelf.insert(at, v);
        if shelf.len() > MAX_POOLED_RESULTS {
            shelf.remove(0);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::NaiveEvaluator;
    use xpath_syntax::parse_normalized;
    use xpath_xml::generate::{doc_bookstore, doc_figure8, doc_flat, doc_flat_text};

    #[test]
    fn agrees_with_naive_on_corpus() {
        let docs = [doc_flat(4), doc_flat_text(3), doc_figure8(), doc_bookstore()];
        let queries = [
            "//a/b",
            "//b[1]",
            "//*[parent::a/child::* = 'c']",
            "//a/b[count(parent::a/b) > 1]",
            "(//c | //d)[last()]",
            "id('12 24')/parent::*",
            "//*[@id = '22']",
            "sum(//d) + count(//c)",
            "//section/book[2]/title",
            "//d/ancestor::b",
            "//b[preceding-sibling::b][following-sibling::b]",
        ];
        for d in &docs {
            for q in queries {
                let e = parse_normalized(q).unwrap();
                let naive = NaiveEvaluator::new(d).evaluate(&e, Context::of(d.root())).unwrap();
                let pool = PoolEvaluator::new(d).evaluate(&e, Context::of(d.root())).unwrap();
                assert!(naive.semantically_equal(&pool), "query {q}: {naive:?} vs {pool:?}");
            }
        }
    }

    #[test]
    fn pool_makes_experiment1_linear() {
        // Experiment 1 family: exponential for naive, polynomial with the
        // pool. Compare step counts at the same depth.
        let d = doc_flat(2);
        let mut q = String::from("//a/b");
        for _ in 0..12 {
            q.push_str("/parent::a/b");
        }
        let e = parse_normalized(&q).unwrap();

        let naive = NaiveEvaluator::new(&d);
        naive.evaluate(&e, Context::of(d.root())).unwrap();
        let naive_steps = naive.steps_applied();

        let pool = PoolEvaluator::new(&d);
        pool.evaluate(&e, Context::of(d.root())).unwrap();
        let pool_steps = pool.stats().steps_applied;

        assert!(
            naive_steps > 50 * pool_steps,
            "expected exponential vs linear gap: naive={naive_steps}, pool={pool_steps}"
        );
    }

    #[test]
    fn pool_makes_experiment3_polynomial() {
        // The IE6 count-nesting family of Experiment 3 / Table V.
        let d = doc_flat(10);
        let mut q = String::from("count(parent::a/b) > 1");
        for _ in 0..4 {
            q = format!("count(parent::a/b[{q}]) > 1");
        }
        let q = format!("//a/b[{q}]");
        let e = parse_normalized(&q).unwrap();

        let pool = PoolEvaluator::new(&d);
        let v = pool.evaluate(&e, Context::of(d.root())).unwrap();
        assert_eq!(v.as_node_set().unwrap().len(), 10);
        let stats = pool.stats();
        assert!(stats.hits > 0, "pool should see repeated contexts: {stats:?}");

        let naive = NaiveEvaluator::new(&d);
        naive.evaluate(&e, Context::of(d.root())).unwrap();
        assert!(
            naive.steps_applied() > 10 * stats.steps_applied,
            "naive {} vs pool {}",
            naive.steps_applied(),
            stats.steps_applied
        );
    }

    #[test]
    fn budget_not_hit_with_pool() {
        let d = doc_flat(2);
        let mut q = String::from("//a/b");
        for _ in 0..20 {
            q.push_str("/parent::a/b");
        }
        let e = parse_normalized(&q).unwrap();
        // Budget that the naive evaluator blows through immediately.
        let naive = NaiveEvaluator::with_budget(&d, 1000);
        assert_eq!(naive.evaluate(&e, Context::of(d.root())), Err(EvalError::BudgetExhausted));
        let pool = PoolEvaluator::with_budget(&d, 1000);
        assert!(pool.evaluate(&e, Context::of(d.root())).is_ok());
    }

    #[test]
    fn positional_queries_with_pool() {
        let d = doc_flat(6);
        for q in ["//b[3]", "//b[last()]", "//b[position() != last()]"] {
            let e = parse_normalized(q).unwrap();
            let naive = NaiveEvaluator::new(&d).evaluate(&e, Context::of(d.root())).unwrap();
            let pool = PoolEvaluator::new(&d).evaluate(&e, Context::of(d.root())).unwrap();
            assert!(naive.semantically_equal(&pool), "{q}");
        }
    }
}
