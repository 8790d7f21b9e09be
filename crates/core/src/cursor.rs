//! Lazy pull-based evaluation: [`NodeCursor`] and [`QueryCursor`].
//!
//! The materialized evaluators compute the whole answer set before the
//! caller sees a single node. For `exists`/`first`/`take(k)` workloads
//! that wastes the entire tail of the document: the answer is determined
//! by a prefix, and the paper's set-at-a-time passes cannot stop early.
//! This module runs the same §10 operators one window of the id space at
//! a time, so it can.
//!
//! # How it works
//!
//! Every forward axis is *preorder-monotone* (outputs never precede
//! inputs in document order), so a spine of forward steps evaluates
//! **block-synchronously** over the id space: the pipeline advances a
//! window `[lo, hi)` of `LAZY_BLOCK` (4096) ids at a time and computes
//! each step's share of Definition 10.2's `χ(N) ∩ T(t) ∩ E1[[e1]] ∩ …`
//! on the window's words: the step's [`StepStreamer`] image (typed by
//! the §4 strip), `T(t)` from the window's slice of the kind and name
//! columns, and one intersection per predicate. A predicate path that
//! only moves down from its candidates runs one forward and one inverse
//! pass from the window's candidates; any other predicate is its
//! document-global `E1` set, built once per cursor the first time a
//! window has candidates.
//!
//! Once every input `< hi` has been fed, outputs `< hi` are final, so a
//! finished window is emitted and never revisited: a caller that stops
//! pulling never pays for the document past its last window, and a full
//! drain costs the set-at-a-time passes plus a per-window overhead.
//!
//! Which queries can take the pipeline is decided once, at compile time,
//! by the analyzer's lazy verdict ([`crate::analyze::laziness`]). Queries
//! it rules out (reverse axes, `parent`, `id`, non-path queries,
//! const-folded plans) fall back to a *materializing* cursor: the first
//! pull runs the plan's ordinary evaluation under the cursor's
//! [`EvalBudget`] and subsequent pulls serve slices of the finished set.
//! An eligible query streams when the caller passes a take hint
//! ([`CompiledQuery::select_lazy_with`](crate::query::CompiledQuery::select_lazy_with));
//! a hint-less cursor is a full drain and materializes.
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

use xpath_axes::{KernelCounters, StepStreamer};
use xpath_xml::nodeset::each_window_id;
use xpath_xml::{Document, NodeId};

use crate::context::{Context, EvalBudget, EvalResult};
use crate::corexpath::{CorePath, CorePred, CoreStart, CoreStep, CoreXPathEvaluator};
use crate::node_test::ResolvedTest;
use crate::nodeset::NodeSet;
use crate::plan::Plan;

/// Ids per window: the pipeline polls the budget once per window, and a
/// lazy evaluation pays at least one window of work before its first
/// early exit can fire.
const LAZY_BLOCK: u32 = 4096;

/// One window of the id space, one bit per id from the window's `lo`.
type Window = [u64; LAZY_BLOCK as usize / 64];

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
    Pending { plan: &'q Plan, kernels: Arc<KernelCounters>, ctx: Context },
    /// Materialized: serving slices of the finished answer. `Arc` makes
    /// clones O(1).
    Drained { ids: Arc<Vec<NodeId>>, pos: usize },
}

impl<'q, 'd> QueryCursor<'q, 'd> {
    /// Build the lazy pipeline cursor (caller has checked the query's
    /// [`Laziness`](crate::analyze::Laziness) verdict). The pipeline's
    /// axis passes are tallied into `kernels`.
    pub(crate) fn lazy(
        doc: &'d Document,
        path: &'q CorePath,
        kernels: Arc<KernelCounters>,
        ctx: Context,
        budget: EvalBudget,
    ) -> QueryCursor<'q, 'd> {
        let pipeline = LazyPipeline::new(doc, path, kernels, ctx);
        QueryCursor { doc, budget, state: State::Lazy(Box::new(pipeline)) }
    }

    /// Build the materializing fallback cursor.
    pub(crate) fn materializing(
        doc: &'d Document,
        plan: &'q Plan,
        kernels: Arc<KernelCounters>,
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
            State::Lazy(p) => {
                // Polled on every pull, finished windows included.
                self.budget.check()?;
                p.next_block(&self.budget, out, max)
            }
            State::Pending { plan, kernels, ctx } => {
                let v = plan.execute(self.doc, *ctx, kernels, &self.budget, None)?;
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
    /// Runs the predicate passes: the window-local forward and inverse
    /// passes and the document-global `E1` sets.
    ev: CoreXPathEvaluator<'d>,
    /// The query's planner tally: `ev`'s passes are merged in when the
    /// pipeline drops. The streamed spine steps are not among them.
    kernels: Arc<KernelCounters>,
    steps: &'q [CoreStep],
    /// One axis streamer per step, beside the step's node test resolved
    /// against the document once.
    stages: Vec<(StepStreamer, ResolvedTest<'q>)>,
    /// Sorted start ids; `start_pos` marks the first not yet fed.
    start_ids: Vec<NodeId>,
    start_pos: usize,
    /// Next window is `[lo, min(lo + LAZY_BLOCK, n))`.
    lo: u32,
    n: u32,
    /// Window output not yet handed to the caller.
    buf: Vec<NodeId>,
    buf_pos: usize,
    /// The document-global `E1` sets of the predicates that are not
    /// [`window_local`], keyed by the predicate's address inside the
    /// compiled query and built on first use.
    pred_sets: HashMap<usize, NodeSet>,
}

/// Is predicate path `p` window-local: a relative path that only moves
/// down (`self`/`child`/`attribute`/`namespace`) with no nested
/// predicate? Its forward passes reach each node from one ancestor only,
/// so all windows together visit a node at most once per step, and each
/// inverse pass is `parent` of what was reached; a value test reads each
/// node reached once. Any other path reads its `E1` set, built once per
/// cursor: `descendant`, the sibling axes, `following`/`preceding`, `id`
/// and an absolute path can reach Ω(|D|) nodes from one window, and the
/// inverse of `parent`/`ancestor` (`child`/`descendant`) fans out again,
/// in every window, over the children or the subtree of an ancestor that
/// many windows share.
fn window_local(p: &CorePath) -> bool {
    use xpath_syntax::Axis;
    matches!(p.start, CoreStart::Context)
        && p.steps.iter().all(|s| {
            s.preds.is_empty()
                && matches!(
                    s.axis,
                    Axis::SelfAxis | Axis::Child | Axis::Attribute | Axis::Namespace
                )
        })
}

/// `f` applied word by word to two windows.
fn zip_with(a: &Window, b: &Window, f: impl Fn(u64, u64) -> u64) -> Window {
    std::array::from_fn(|i| f(a[i], b[i]))
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
            // clones get a fresh one over the same document, so no pass
            // is merged into `kernels` twice.
            ev: CoreXPathEvaluator::new(self.doc),
            kernels: self.kernels.clone(),
            steps: self.steps,
            stages: self.stages.clone(),
            start_ids: self.start_ids.clone(),
            start_pos: self.start_pos,
            lo: self.lo,
            n: self.n,
            buf: self.buf.clone(),
            buf_pos: self.buf_pos,
            pred_sets: self.pred_sets.clone(),
        }
    }
}

impl Drop for LazyPipeline<'_, '_> {
    fn drop(&mut self) {
        self.kernels.merge(self.ev.kernel_counts());
        // `start_ids` and `buf` are shelf buffers (`into_vec` / recycled
        // window output); return them so cancelled or abandoned cursors
        // don't bleed the thread-local shelves dry.
        xpath_xml::pool::give_ids(std::mem::take(&mut self.start_ids));
        xpath_xml::pool::give_ids(std::mem::take(&mut self.buf));
    }
}

impl<'q, 'd> LazyPipeline<'q, 'd> {
    fn new(
        doc: &'d Document,
        path: &'q CorePath,
        kernels: Arc<KernelCounters>,
        ctx: Context,
    ) -> LazyPipeline<'q, 'd> {
        let ev = CoreXPathEvaluator::new(doc);
        let start_ids = ev.start_set(&path.start, &[ctx.node]).into_vec();
        let stages = path
            .steps
            .iter()
            .map(|s| {
                let streamer = StepStreamer::new(doc, s.axis)
                    .expect("caller checked the lazy verdict before building the pipeline");
                (streamer, ResolvedTest::new(doc, s.axis, &s.test))
            })
            .collect();
        LazyPipeline {
            doc,
            ev,
            kernels,
            steps: &path.steps,
            stages,
            start_ids,
            start_pos: 0,
            lo: 0,
            n: doc.len() as u32,
            buf: xpath_xml::pool::take_ids(),
            buf_pos: 0,
            pred_sets: HashMap::new(),
        }
    }

    fn next_block(
        &mut self,
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
            budget.check()?;
            self.pull_window(budget)?;
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let buffered = self.buf.len() - self.buf_pos;
        (buffered, Some(buffered + (self.n - self.lo) as usize))
    }

    /// Advance one window `[lo, hi)` through every stage, appending the
    /// final stage's accepted nodes to `buf`. The caller polls the budget
    /// before each window and the predicate passes poll it before each
    /// pass, so a trip costs at most one window of work. A window that
    /// trips part-way runs again on the next pull: its start ids and the
    /// stages already fed stay fed, and feeding a streamer an input twice
    /// adds nothing.
    fn pull_window(&mut self, budget: &EvalBudget) -> EvalResult<()> {
        let (doc, lo, steps) = (self.doc, self.lo, self.steps);
        let hi = lo.saturating_add(LAZY_BLOCK).min(self.n);
        // Stage-0 inputs: the start ids inside the window (earlier ones
        // were fed in earlier windows; start ids are sorted).
        let mut window: Window = [0; _];
        while let Some(x) = self.start_ids.get(self.start_pos).filter(|x| x.0 < hi) {
            let i = x.0 - lo;
            window[(i / 64) as usize] |= 1 << (i % 64);
            self.start_pos += 1;
        }
        for (i, step) in steps.iter().enumerate() {
            let (stage, test) = &mut self.stages[i];
            // All upstream inputs < hi are in once this window's are fed,
            // so the image below hi is final (block-synchronous invariant).
            let live = &mut window[..(hi - lo).div_ceil(64) as usize];
            stage.push_window(doc, lo, live);
            stage.read_window(doc, lo, live);
            test.retain_window(doc, lo, live);
            for pred in &step.preds {
                window = self.pred_window(pred, &window, budget)?;
            }
        }
        each_window_id(lo, &window, |x| self.buf.push(x));
        self.lo = hi;
        Ok(())
    }

    /// The candidates in `cand` at which `pred` holds: `E1[[pred]] ∩ cand`
    /// over the window. Connectives combine the windows of their
    /// operands, each operand seeing only the candidates still open.
    fn pred_window(
        &mut self,
        pred: &'q CorePred,
        cand: &Window,
        budget: &EvalBudget,
    ) -> EvalResult<Window> {
        if cand.iter().all(|&w| w == 0) {
            return Ok(*cand);
        }
        let lo = self.lo;
        let mut held: Window = [0; _];
        match pred {
            CorePred::And(l, r) => {
                let left = self.pred_window(l, cand, budget)?;
                return self.pred_window(r, &left, budget);
            }
            CorePred::Or(l, r) => {
                let left = self.pred_window(l, cand, budget)?;
                let right = self.pred_window(r, &zip_with(cand, &left, |c, l| c & !l), budget)?;
                return Ok(zip_with(&left, &right, |l, r| l | r));
            }
            CorePred::Not(inner) => {
                let held = self.pred_window(inner, cand, budget)?;
                return Ok(zip_with(cand, &held, |c, h| c & !h));
            }
            CorePred::Path(p, test) if window_local(p) => {
                let cands = NodeSet::from_window(lo, cand);
                let set = self.ev.s_backward_from(&p.steps, test.as_ref(), &cands, budget)?;
                set.read_window(lo, &mut held);
            }
            CorePred::Path(..) => {
                let key = pred as *const CorePred as usize;
                if !self.pred_sets.contains_key(&key) {
                    let set = self.ev.pred_set(pred, budget)?;
                    self.pred_sets.insert(key, set);
                }
                self.pred_sets[&key].read_window(lo, &mut held);
            }
        }
        Ok(zip_with(&held, cand, |h, c| h & c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::EvalError;
    use crate::query::CompiledQuery;
    use std::sync::atomic::{AtomicBool, Ordering};
    use xpath_xml::generate::{doc_balanced, doc_bookstore, doc_figure8};

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
    fn value_tested_predicates_are_window_local() {
        let pred_path = |q: &str| {
            let c =
                crate::corexpath::compile_xpatterns(&xpath_syntax::parse_normalized(q).unwrap())
                    .unwrap();
            match &c.path.steps.last().unwrap().preds[0] {
                CorePred::Path(p, _) => p.clone(),
                other => panic!("{q}: {other:?}"),
            }
        };
        assert!(window_local(&pred_path("//book[@price > 30]")));
        assert!(window_local(&pred_path("//book[author/last != 'Hull']")));
        assert!(!window_local(&pred_path("//book[.//last < 3]")));
        assert!(!window_local(&pred_path("//book[/bookstore]")));
        // Upward steps read `E1`.
        assert!(!window_local(&pred_path("//title[parent::book]")));
        assert!(!window_local(&pred_path("//title[../@price > 30]")));
        assert!(!window_local(&pred_path("//last[ancestor-or-self::book]")));
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

    #[test]
    fn a_window_that_trips_part_way_runs_again() {
        // Six windows.
        let d = doc_balanced(4, 7, &["a", "b", "c", "d"]);
        let tripped = EvalBudget::unlimited().with_cancel(Arc::new(AtomicBool::new(true)));
        // Trips while the `E1` set is built, and in every window-local pass.
        for qs in ["//b[following::c]", "//c[d]"] {
            let q = CompiledQuery::compile(qs).unwrap();
            let mut c = lazy_cursor(&q, &d);
            let State::Lazy(p) = &mut c.state else { unreachable!() };
            let (mut got, mut trips) = (NodeSet::new(), 0);
            while p.lo < p.n {
                // The trip leaves the window's start ids consumed and the
                // stages up to the tripping predicate fed.
                if p.pull_window(&tripped).is_err() {
                    trips += 1;
                    p.pull_window(&EvalBudget::unlimited()).unwrap();
                }
                p.buf.drain(..).for_each(|x| got.insert(x));
            }
            assert!(trips > 0, "{qs}: no window tripped");
            assert_eq!(got, q.select(&d).unwrap(), "{qs}");
        }
    }
}
