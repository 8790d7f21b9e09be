//! Lazy pull-based evaluation: [`NodeCursor`] and [`QueryCursor`].
//!
//! The materialized evaluators compute the whole answer set before the
//! caller sees a single node. For `exists`/`first`/`take(k)` workloads
//! that wastes the entire tail of the document: the answer is determined
//! by a prefix, and the paper's set-at-a-time passes cannot stop early.
//! This module adds a pull-based layer over the Core XPath algebra that
//! can.
//!
//! # How it works
//!
//! Every forward axis is *preorder-monotone* (outputs never precede
//! inputs in document order), so a spine of forward steps evaluates
//! **block-synchronously** over the id space: the pipeline advances a
//! window `[lo, hi)` of [`CostModel::LAZY_BLOCK`] ids at a time, feeds
//! each step's [`StepStreamer`] the upstream nodes accepted inside the
//! window, and filters that step's own window of raw axis output down to
//! accepted nodes — node test per candidate, then each predicate by the
//! witness equivalence `x ∈ S←[[π]] ⇔ S→[[π]]({x}) ≠ ∅` (Definition
//! 10.2), which short-circuits on the first witness instead of computing
//! the document-global predicate set. The witness walk runs per
//! candidate only when its frontier is structurally bounded; a predicate
//! whose walk could touch Ω(|D|) nodes per candidate (`descendant`,
//! `following`, the sibling axes, …) instead probes a document-global
//! `E1` set computed once per cursor, so a window of candidates never
//! costs more than one set-at-a-time predicate pass. Once every input `< hi` has been
//! fed, outputs `< hi` are final, so a finished window is emitted and
//! never revisited — a caller that stops pulling never pays for the
//! document past its last window.
//!
//! Which queries take the pipeline is decided once, at compile time, by
//! the analyzer's lazy verdict ([`crate::analyze::laziness`]). Queries
//! it rules out (reverse axes, `parent`, `id`, non-path queries,
//! const-folded plans) fall back to a *materializing* cursor: the first
//! pull runs the plan's ordinary evaluation under the cursor's
//! [`EvalBudget`] and subsequent pulls serve slices of the finished set.
//! [`CostModel::pick_lazy`] arbitrates between the two routes even for
//! streamable spines — an unbounded drain of a small document is cheaper
//! word-parallel.
//!
//! # Cursor invariants
//!
//! Every [`NodeCursor`] implementation guarantees:
//!
//! 1. **Document order, no duplicates**: emitted ids are strictly
//!    ascending across the cursor's whole lifetime.
//! 2. **Finality**: an emitted block is never amended; the concatenation
//!    of all blocks equals the materialized answer set exactly.
//! 3. **Budget**: the [`EvalBudget`] is polled at least once per block
//!    boundary; a tripped budget surfaces as
//!    [`EvalError::Cancelled`](crate::EvalError::Cancelled) /
//!    [`EvalError::DeadlineExceeded`](crate::EvalError::DeadlineExceeded)
//!    and the cursor stays valid (pull again after clearing the cancel
//!    flag, or drop it — no poisoned state, nothing leaks).
//! 4. **Cheap clone**: cloning forks the iteration state; the clone
//!    continues independently from the same position.

use std::collections::HashMap;
use std::sync::Arc;

use xpath_axes::{CostModel, StepStreamer};
use xpath_xml::{Document, NodeId};

use crate::context::{Context, EvalBudget, EvalResult};
use crate::corexpath::{CorePath, CorePred, CoreStart, CoreStep, CoreXPathEvaluator};
use crate::node_test;
use crate::nodeset::NodeSet;
use crate::plan::Plan;

/// A pull-based node iterator in document order.
///
/// See the [module docs](self) for the invariants every implementation
/// upholds (strict doc order, block finality, budget polling, cheap
/// clone).
pub trait NodeCursor: Clone {
    /// Pull up to `max` more nodes into `out`, returning how many were
    /// added. `Ok(0)` means the cursor is exhausted (and will keep
    /// returning `Ok(0)`); an `Err` reports a tripped budget or an
    /// evaluation error and leaves the cursor re-pollable.
    fn next_block(&mut self, out: &mut NodeSet, max: usize) -> EvalResult<usize>;

    /// Bounds on the number of nodes still to come, `(lower, upper)` with
    /// `upper = None` meaning unknown — same contract as
    /// [`Iterator::size_hint`].
    fn size_hint(&self) -> (usize, Option<usize>);

    /// Pull the single next node in document order.
    fn next(&mut self) -> EvalResult<Option<NodeId>> {
        let mut one = NodeSet::new();
        if self.next_block(&mut one, 1)? == 0 {
            return Ok(None);
        }
        Ok(one.first())
    }
}

/// The cursor behind [`CompiledQuery::select_lazy`](crate::query::CompiledQuery::select_lazy):
/// either a lazy block-synchronous pipeline over a streamable Core XPath
/// spine, or a budgeted materializing fallback (see the
/// [module docs](self) for the dispatch rules).
#[derive(Clone, Debug)]
pub struct QueryCursor<'q, 'd> {
    doc: &'d Document,
    budget: EvalBudget,
    state: State<'q, 'd>,
}

#[derive(Clone, Debug)]
enum State<'q, 'd> {
    /// Lazy block-synchronous pipeline (boxed: the pipeline is much
    /// larger than the other variants).
    Lazy(Box<LazyPipeline<'q, 'd>>),
    /// Materializing fallback, not yet run: the first pull evaluates the
    /// plan under the cursor's budget.
    Pending { plan: &'q Plan, kernels: Arc<xpath_axes::KernelCounters>, ctx: Context },
    /// Materialized: serving slices of the finished answer. `Arc` makes
    /// clones O(1).
    Drained { ids: Arc<Vec<NodeId>>, pos: usize },
}

impl<'q, 'd> QueryCursor<'q, 'd> {
    /// Build the lazy pipeline cursor (caller has checked the query's
    /// [`Laziness`](crate::analyze::Laziness) verdict).
    pub(crate) fn lazy(
        doc: &'d Document,
        path: &'q CorePath,
        ctx: Context,
        budget: EvalBudget,
    ) -> QueryCursor<'q, 'd> {
        QueryCursor { doc, budget, state: State::Lazy(Box::new(LazyPipeline::new(doc, path, ctx))) }
    }

    /// Build the materializing fallback cursor.
    pub(crate) fn materializing(
        doc: &'d Document,
        plan: &'q Plan,
        kernels: Arc<xpath_axes::KernelCounters>,
        ctx: Context,
        budget: EvalBudget,
    ) -> QueryCursor<'q, 'd> {
        QueryCursor { doc, budget, state: State::Pending { plan, kernels, ctx } }
    }

    /// Is this cursor on the lazy (early-exit) route? Exposed so tests
    /// and `--explain` can assert the dispatch.
    pub fn is_lazy(&self) -> bool {
        matches!(self.state, State::Lazy(_))
    }

    /// Drain the remainder into one set (respecting the budget).
    pub fn collect_set(&mut self) -> EvalResult<NodeSet> {
        let mut out = NodeSet::new();
        while self.next_block(&mut out, usize::MAX)? > 0 {}
        Ok(out.adapt())
    }
}

impl Drop for QueryCursor<'_, '_> {
    fn drop(&mut self) {
        // The drained id vector came off the recycling shelves
        // (`into_vec`); hand it back when this cursor is the last owner
        // so repeated cursor churn stays allocation-free.
        if let State::Drained { ids, .. } = &mut self.state {
            if let Some(v) = Arc::get_mut(ids) {
                xpath_xml::pool::give_ids(std::mem::take(v));
            }
        }
    }
}

impl NodeCursor for QueryCursor<'_, '_> {
    fn next_block(&mut self, out: &mut NodeSet, max: usize) -> EvalResult<usize> {
        if max == 0 {
            return Ok(0);
        }
        match &mut self.state {
            State::Lazy(p) => p.next_block(self.doc, &self.budget, out, max),
            State::Pending { plan, kernels, ctx } => {
                let v = plan.execute_recording_with(self.doc, *ctx, kernels, &self.budget)?;
                let ids = Arc::new(crate::query::into_node_set(v)?.into_vec());
                self.state = State::Drained { ids, pos: 0 };
                self.next_block(out, max)
            }
            State::Drained { ids, pos } => {
                self.budget.check()?;
                let take = max.min(ids.len() - *pos);
                for &x in &ids[*pos..*pos + take] {
                    out.insert(x);
                }
                *pos += take;
                Ok(take)
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.state {
            State::Lazy(p) => p.size_hint(),
            State::Pending { .. } => (0, None),
            State::Drained { ids, pos } => {
                let left = ids.len() - pos;
                (left, Some(left))
            }
        }
    }
}

/// The lazy block-synchronous pipeline: one [`StepStreamer`] per spine
/// step, advanced window-by-window (see the [module docs](self)).
struct LazyPipeline<'q, 'd> {
    doc: &'d Document,
    /// Backs the per-candidate predicate walks ([`CoreXPathEvaluator::pred_holds`]).
    ev: CoreXPathEvaluator<'d>,
    steps: &'q [CoreStep],
    stages: Vec<StepStreamer>,
    /// Sorted start ids; `start_pos` marks the first not yet fed.
    start_ids: Vec<NodeId>,
    start_pos: usize,
    /// Next window is `[lo, min(lo + LAZY_BLOCK, n))`.
    lo: u32,
    n: u32,
    /// Window output not yet handed to the caller.
    buf: Vec<NodeId>,
    buf_pos: usize,
    /// Document-global predicate verdicts (a predicate path starting at
    /// `/` or `id(c)` does not depend on the candidate), keyed by the
    /// predicate's address inside the compiled query.
    globals: HashMap<usize, bool>,
    /// Materialized `E1` sets for context-dependent predicates whose
    /// per-candidate witness walk is *unbounded* (see
    /// [`witness_walk_is_bounded`]): computed once per cursor, then each
    /// candidate is a membership probe. Keyed like `globals`.
    pred_sets: HashMap<usize, NodeSet>,
}

/// Can `S→[[p]]({x})` stay cheap for a single candidate?
///
/// True when every step's frontier is bounded by local structure
/// (`self`/`child`/`parent`/`ancestor(-or-self)`/`attribute`/`namespace`
/// — at most a fanout or a root path per step), no step carries nested
/// predicates (those route through a document-global `E1` pass *inside*
/// the walk). A value test on the path is one string-value test per node
/// the walk reaches, so it keeps the walk bounded: the walk for
/// `[@qty > 5]` is one attribute hop plus one test. An element's string
/// value is built once and cached by the document, so an ancestor that
/// many candidates reach (`[parent::* != 'x']`) is not rescanned per
/// candidate. Everything else
/// — `descendant`, the sibling axes, `following`/`preceding`, `id` — can
/// materialize an Ω(|D|) frontier **per candidate**, so a window of
/// candidates would cost Ω(|D|·window) and a lazy `first()` would come
/// out slower than full evaluation; for those the pipeline computes the
/// document-global predicate set once and probes it instead.
fn witness_walk_is_bounded(p: &CorePath) -> bool {
    use xpath_syntax::Axis;
    p.steps.iter().all(|s| {
        s.preds.is_empty()
            && matches!(
                s.axis,
                Axis::SelfAxis
                    | Axis::Child
                    | Axis::Parent
                    | Axis::Ancestor
                    | Axis::AncestorOrSelf
                    | Axis::Attribute
                    | Axis::Namespace
            )
    })
}

impl std::fmt::Debug for LazyPipeline<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LazyPipeline")
            .field("stages", &self.stages.len())
            .field("lo", &self.lo)
            .field("n", &self.n)
            .finish_non_exhaustive()
    }
}

impl Clone for LazyPipeline<'_, '_> {
    fn clone(&self) -> Self {
        LazyPipeline {
            doc: self.doc,
            // The evaluator is stateless apart from its planner tally;
            // clones get a fresh one over the same document.
            ev: CoreXPathEvaluator::new(self.doc),
            steps: self.steps,
            stages: self.stages.clone(),
            start_ids: self.start_ids.clone(),
            start_pos: self.start_pos,
            lo: self.lo,
            n: self.n,
            buf: self.buf.clone(),
            buf_pos: self.buf_pos,
            globals: self.globals.clone(),
            pred_sets: self.pred_sets.clone(),
        }
    }
}

impl Drop for LazyPipeline<'_, '_> {
    fn drop(&mut self) {
        // `start_ids` and `buf` are shelf buffers (`into_vec` / recycled
        // window output); return them so cancelled or abandoned cursors
        // don't bleed the thread-local shelves dry.
        xpath_xml::pool::give_ids(std::mem::take(&mut self.start_ids));
        xpath_xml::pool::give_ids(std::mem::take(&mut self.buf));
    }
}

impl<'q, 'd> LazyPipeline<'q, 'd> {
    fn new(doc: &'d Document, path: &'q CorePath, ctx: Context) -> LazyPipeline<'q, 'd> {
        let ev = CoreXPathEvaluator::new(doc);
        let start_ids = ev.start_set(&path.start, &[ctx.node]).into_vec();
        let stages = path
            .steps
            .iter()
            .map(|s| {
                StepStreamer::new(doc, s.axis)
                    .expect("caller checked the lazy verdict before building the pipeline")
            })
            .collect();
        LazyPipeline {
            doc,
            ev,
            steps: &path.steps,
            stages,
            start_ids,
            start_pos: 0,
            lo: 0,
            n: doc.len() as u32,
            buf: Vec::new(),
            buf_pos: 0,
            globals: HashMap::new(),
            pred_sets: HashMap::new(),
        }
    }

    fn next_block(
        &mut self,
        doc: &Document,
        budget: &EvalBudget,
        out: &mut NodeSet,
        max: usize,
    ) -> EvalResult<usize> {
        let mut emitted = 0;
        loop {
            while self.buf_pos < self.buf.len() && emitted < max {
                out.insert(self.buf[self.buf_pos]);
                self.buf_pos += 1;
                emitted += 1;
            }
            if emitted >= max || self.lo >= self.n {
                return Ok(emitted);
            }
            self.buf.clear();
            self.buf_pos = 0;
            self.pull_window(doc, budget)?;
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let buffered = self.buf.len() - self.buf_pos;
        (buffered, Some(buffered + (self.n - self.lo) as usize))
    }

    /// Advance one window `[lo, hi)` through every stage, appending the
    /// final stage's accepted nodes to `buf`. The budget is polled once
    /// per window plus inside every predicate witness walk, so a trip
    /// costs at most one window of work.
    fn pull_window(&mut self, doc: &Document, budget: &EvalBudget) -> EvalResult<()> {
        budget.check()?;
        let hi = self.lo.saturating_add(CostModel::LAZY_BLOCK).min(self.n);
        // The stage scratch is a shelf buffer; hand it back on every exit
        // path (including a budget trip inside a predicate walk).
        let mut accepted = xpath_xml::pool::take_ids();
        let r = self.fill_window(doc, budget, hi, &mut accepted);
        xpath_xml::pool::give_ids(accepted);
        r
    }

    /// The body of [`LazyPipeline::pull_window`], with the stage scratch
    /// owned by the caller so it survives `?` exits.
    fn fill_window(
        &mut self,
        doc: &Document,
        budget: &EvalBudget,
        hi: u32,
        accepted: &mut Vec<NodeId>,
    ) -> EvalResult<()> {
        let steps = self.steps;
        let ix = doc.axis_index();

        // Stage-0 inputs: start ids inside the window (earlier ones were
        // fed in earlier windows; start ids are sorted).
        while self.start_pos < self.start_ids.len() && self.start_ids[self.start_pos].0 < hi {
            accepted.push(self.start_ids[self.start_pos]);
            self.start_pos += 1;
        }

        for (i, step) in steps.iter().enumerate() {
            // The stage borrow ends before the predicate walks below need
            // `&mut self`: candidates is an owned window of the output.
            let stage = &mut self.stages[i];
            // Feed the upstream window (ascending — within a window the
            // candidate scan is ascending, and windows only move right).
            for &x in &*accepted {
                stage.push(doc, x);
            }
            let axis = stage.axis();
            let strip = stage.needs_type_strip();
            // All upstream inputs < hi are in, so this window of raw axis
            // output is final (block-synchronous invariant).
            let candidates = stage.expanded().restrict_range(self.lo, hi);

            accepted.clear();
            for c in &candidates {
                // §4 type strip, per candidate (`child` filtered specials
                // inline; `attribute`/`namespace` *produce* them).
                if strip && ix.is_special(c.0) {
                    continue;
                }
                if !node_test::matches(doc, axis, &step.test, c) {
                    continue;
                }
                let mut ok = true;
                for pred in &step.preds {
                    if !self.pred_holds_cached(pred, c, budget)? {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    accepted.push(c);
                }
            }
        }

        self.buf.extend_from_slice(accepted);
        self.lo = hi;
        Ok(())
    }

    /// Per-candidate predicate check with short-circuiting connectives.
    /// Document-global predicate paths (non-`Context` start) are cached by
    /// address: their verdict is candidate-independent, so one witness
    /// walk serves the whole cursor. Connectives recurse here (not into
    /// the evaluator) so globals nested under `and`/`or`/`not` cache too.
    /// Context-dependent paths split on [`witness_walk_is_bounded`]:
    /// bounded walks run per candidate, unbounded ones probe a
    /// once-per-cursor `E1` set cached in `pred_sets`.
    fn pred_holds_cached(
        &mut self,
        pred: &CorePred,
        x: NodeId,
        budget: &EvalBudget,
    ) -> EvalResult<bool> {
        match pred {
            CorePred::And(l, r) => {
                Ok(self.pred_holds_cached(l, x, budget)? && self.pred_holds_cached(r, x, budget)?)
            }
            CorePred::Or(l, r) => {
                Ok(self.pred_holds_cached(l, x, budget)? || self.pred_holds_cached(r, x, budget)?)
            }
            CorePred::Not(inner) => Ok(!self.pred_holds_cached(inner, x, budget)?),
            CorePred::Path(p, _) if !matches!(p.start, CoreStart::Context) => {
                let key = pred as *const CorePred as usize;
                if let Some(&v) = self.globals.get(&key) {
                    return Ok(v);
                }
                let v = self.ev.pred_holds(pred, x, budget)?;
                self.globals.insert(key, v);
                Ok(v)
            }
            CorePred::Path(p, _) if witness_walk_is_bounded(p) => {
                self.ev.pred_holds(pred, x, budget)
            }
            CorePred::Path(..) => {
                let key = pred as *const CorePred as usize;
                if let Some(s) = self.pred_sets.get(&key) {
                    return Ok(s.contains(x));
                }
                let s = self.ev.try_pred_set(pred, budget)?;
                let v = s.contains(x);
                self.pred_sets.insert(key, s);
                Ok(v)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::EvalError;
    use crate::query::CompiledQuery;
    use std::sync::atomic::{AtomicBool, Ordering};
    use xpath_xml::generate::{doc_bookstore, doc_figure8};

    fn lazy_cursor<'q, 'd>(q: &'q CompiledQuery, doc: &'d Document) -> QueryCursor<'q, 'd> {
        let c = q.select_lazy_with(doc, Context::of(doc.root()), EvalBudget::unlimited(), Some(1));
        assert!(c.is_lazy(), "{} should take the lazy route", q.text());
        c
    }

    #[test]
    fn lazy_drain_matches_evaluate() {
        let d = doc_bookstore();
        for qs in ["//book[author]/title", "//book", "/descendant::*[following::price]"] {
            let q = CompiledQuery::compile(qs).unwrap();
            let want = q.select(&d).unwrap();
            let mut c = lazy_cursor(&q, &d);
            assert_eq!(c.collect_set().unwrap(), want, "{qs}");
        }
    }

    #[test]
    fn next_yields_document_order_prefix() {
        let d = doc_figure8();
        let q = CompiledQuery::compile("//b").unwrap();
        let want = q.select(&d).unwrap().into_vec();
        let mut c = lazy_cursor(&q, &d);
        let first = c.next().unwrap();
        assert_eq!(first, want.first().copied());
        let second = c.next().unwrap();
        assert_eq!(second, want.get(1).copied());
    }

    #[test]
    fn value_tested_predicates_walk_per_candidate() {
        let pred_path = |q: &str| {
            let c =
                crate::corexpath::compile_xpatterns(&xpath_syntax::parse_normalized(q).unwrap())
                    .unwrap();
            match &c.path.steps.last().unwrap().preds[0] {
                CorePred::Path(p, _) => p.clone(),
                other => panic!("{q}: {other:?}"),
            }
        };
        assert!(witness_walk_is_bounded(&pred_path("//book[@price > 30]")));
        assert!(witness_walk_is_bounded(&pred_path("//book[author/last != 'Hull']")));
        assert!(!witness_walk_is_bounded(&pred_path("//book[.//last < 3]")));
        let d = doc_bookstore();
        let q = CompiledQuery::compile("//book[@price > 30]/title").unwrap();
        let want = q.select(&d).unwrap();
        assert_eq!(want.len(), 3);
        assert_eq!(lazy_cursor(&q, &d).collect_set().unwrap(), want);
    }

    #[test]
    fn materializing_fallback_serves_blocks() {
        let d = doc_bookstore();
        // `parent` is not streamable: the cursor must fall back.
        let q = CompiledQuery::compile("//title/parent::book").unwrap();
        let mut c = q.select_lazy_with(&d, Context::of(d.root()), EvalBudget::unlimited(), Some(1));
        assert!(!c.is_lazy());
        let want = q.select(&d).unwrap();
        assert_eq!(c.collect_set().unwrap(), want);
    }

    #[test]
    fn cancelled_cursor_reports_and_stays_usable() {
        let d = doc_bookstore();
        let q = CompiledQuery::compile("//book").unwrap();
        let flag = Arc::new(AtomicBool::new(true));
        let budget = EvalBudget::unlimited().with_cancel(flag.clone());
        let mut c = q.select_lazy_with(&d, Context::of(d.root()), budget, None);
        let mut out = NodeSet::new();
        assert!(matches!(c.next_block(&mut out, usize::MAX), Err(EvalError::Cancelled)));
        // Clearing the flag lets the same cursor finish.
        flag.store(false, Ordering::Relaxed);
        assert_eq!(c.collect_set().unwrap(), q.select(&d).unwrap());
    }
}
