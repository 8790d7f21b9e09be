//! **Core XPath** (paper §10.1): the clean logical core of XPath, evaluated
//! in `O(|D|·|Q|)` time (Theorem 10.5).
//!
//! Queries are compiled to the algebra over `∩`, `∪`, `−`, the axis
//! functions `χ`, and the operation
//! `dom/root(S) = dom if root ∈ S else ∅`, with semantics `S→` (forward,
//! for the query spine), `S←` (backward, for predicate paths) and `E1`
//! (boolean connectives on node sets) of Definition 10.2.
//!
//! The same compiled representation also serves **XPatterns** (§10.2):
//! Core XPath extended with
//! * the `id` axis (`π1/id(π2)/π3 ≡ π1/π2/id/π3`, Lemma 10.6), evaluated in
//!   linear time via the `ref` relation (Theorem 10.7);
//! * `id(c)` path heads;
//! * the `=s` string-comparison feature of Table VI, generalized to the
//!   **value tests** `π op c` and `c op π` (`op ∈ = != < <= > >=`, `c` a
//!   string, a number or a negated number; XPath 1.0 comparison rules).
//!
//! The paper realizes `=s` as the precomputed unary predicate
//! `{x | strval(x) = s}`; any fixed test on one node's string value, such
//! as `{x | number(strval(x)) > c}`, is a unary predicate of the same
//! kind, so a value test keeps the `O(|D|·|Q|)` bound of Theorems
//! 10.7/10.8. Instead of filling the predicate for the whole document,
//! the evaluator applies it as a filter to the candidates that reach it:
//! the last step's `T(t) ∩ E1[[…]]` in `S←` before the inverse pass, and
//! the nodes a predicate path reaches in the per-candidate witness walk.
//! Each candidate is tested once. An attribute, text or other leaf
//! candidate reads its stored text, so a pass over such candidates costs
//! one `O(|D|)` sweep. An element candidate's string value concatenates
//! its subtree's text; [`Document::string_value`] builds it once and
//! caches it, so all value tests together never pay more than building
//! every element's string value once, which is exactly what precomputing
//! the predicate for the whole document costs. Only predicate paths
//! carry a test ([`CorePred::Path`]); a query's spine never does.
//!
//! [`compile`] accepts the pure Core XPath fragment;
//! [`compile_xpatterns`] additionally accepts the XPatterns features and
//! value tests. [`is_xpatterns`] keeps Figure 1's label: only the `=`
//! tests of Table VI count towards it.

use xpath_syntax::{Axis, BinaryOp, Expr, LocationPath, NodeTest, PathStart};
use xpath_xml::{Document, NodeId};

use crate::compare::{mirror, num_cmp, str_cmp};
use crate::context::{EvalBudget, EvalError, EvalResult};
use crate::node_test;
use crate::nodeset::NodeSet;
use crate::value::str_to_number;

/// A compiled Core XPath / XPatterns query.
#[derive(Clone, Debug, PartialEq)]
pub struct CoreQuery {
    /// The query spine.
    pub path: CorePath,
}

/// Where a compiled path starts.
#[derive(Clone, Debug, PartialEq)]
pub enum CoreStart {
    /// Relative: the input context nodes.
    Context,
    /// Absolute: the document root.
    Root,
    /// `id('c')/…` — XPatterns only ("id(c) may only occur at the beginning
    /// of a path", §10.2).
    Ids(String),
}

/// A compiled location path.
#[derive(Clone, Debug, PartialEq)]
pub struct CorePath {
    /// Start point.
    pub start: CoreStart,
    /// Steps in order.
    pub steps: Vec<CoreStep>,
}

/// One compiled step.
#[derive(Clone, Debug, PartialEq)]
pub struct CoreStep {
    /// The axis, possibly [`Axis::Id`] after the Lemma 10.6 rewriting.
    pub axis: Axis,
    /// The node test.
    pub test: NodeTest,
    /// The predicates (each with ∃-semantics, `E1`).
    pub preds: Vec<CorePred>,
}

/// A compiled predicate (Definition 10.2 `pred`).
#[derive(Clone, Debug, PartialEq)]
pub enum CorePred {
    /// `pred and pred`
    And(Box<CorePred>, Box<CorePred>),
    /// `pred or pred`
    Or(Box<CorePred>, Box<CorePred>),
    /// `not(pred)`
    Not(Box<CorePred>),
    /// A location path with ∃-semantics, optionally restricted by a value
    /// test on the nodes it reaches (XPatterns). Only predicate paths
    /// carry a test, so a query's spine never has one.
    Path(CorePath, Option<ValueTest>),
}

/// A value test `π op c`: Table VI's `=s` generalized to every comparison
/// operator. The predicate holds at a node of `π` iff its string value
/// compares true against the constant under XPath 1.0 rules (existential
/// over the nodes of `π`, like every node-set comparison).
#[derive(Clone, Debug, PartialEq)]
pub struct ValueTest {
    /// One of `= != < <= > >=`, oriented as `strval(x) op constant`.
    pub op: BinaryOp,
    /// The constant side.
    pub constant: Constant,
}

/// The constant side of a [`ValueTest`].
#[derive(Clone, Debug, PartialEq)]
pub enum Constant {
    /// A string literal: `=`/`!=` compare strings, the other operators
    /// compare `number(strval)` with `number(literal)`.
    Str(String),
    /// A number: every operator compares `number(strval)` with it.
    Num(f64),
}

impl ValueTest {
    /// Does a node with string value `strval` pass the test? NaN fails
    /// `= < <= > >=` and passes `!=`.
    pub fn holds(&self, strval: &str) -> bool {
        match &self.constant {
            Constant::Str(s) => str_cmp(self.op, strval, s),
            Constant::Num(v) => num_cmp(self.op, str_to_number(strval), *v),
        }
    }
}

/// Which language the compiler accepts.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CoreDialect {
    /// Pure Core XPath (Definition 10.2).
    CoreXPath,
    /// XPatterns: Core XPath + id axis + value tests (§10.2; `=s`
    /// generalized to every comparison operator).
    XPatterns,
}

/// Compile a (normalized or raw) expression into pure Core XPath, or report
/// why it is outside the fragment.
pub fn compile(e: &Expr) -> EvalResult<CoreQuery> {
    compile_dialect(e, CoreDialect::CoreXPath)
}

/// Compile into XPatterns.
pub fn compile_xpatterns(e: &Expr) -> EvalResult<CoreQuery> {
    compile_dialect(e, CoreDialect::XPatterns)
}

/// Compile with an explicit dialect.
pub fn compile_dialect(e: &Expr, dialect: CoreDialect) -> EvalResult<CoreQuery> {
    match e {
        Expr::Path(p) => Ok(CoreQuery { path: compile_path(p, dialect)? }),
        // A bare `id(...)` call is a step-less path in XPatterns.
        Expr::Call { name, .. } if name == "id" && dialect == CoreDialect::XPatterns => {
            let p = LocationPath { start: PathStart::Expr(Box::new(e.clone())), steps: Vec::new() };
            Ok(CoreQuery { path: compile_path(&p, dialect)? })
        }
        _ => Err(unsupported("query must be a location path")),
    }
}

fn unsupported(msg: &str) -> EvalError {
    EvalError::UnsupportedFragment(msg.to_string())
}

fn compile_path(p: &LocationPath, dialect: CoreDialect) -> EvalResult<CorePath> {
    let (start, mut steps) = match &p.start {
        PathStart::Root => (CoreStart::Root, Vec::new()),
        PathStart::ContextNode => (CoreStart::Context, Vec::new()),
        PathStart::Expr(head) => {
            if dialect != CoreDialect::XPatterns {
                return Err(unsupported("filter-expression path heads are not Core XPath"));
            }
            match &**head {
                Expr::Call { name, args } if name == "id" && args.len() == 1 => {
                    match &args[0] {
                        // id('c')/π.
                        Expr::Literal(s) => (CoreStart::Ids(s.clone()), Vec::new()),
                        // id(π2)/π3 ≡ π2/id/π3 (Lemma 10.6).
                        Expr::Path(p2) => {
                            let inner = compile_path(p2, dialect)?;
                            let mut steps = inner.steps;
                            steps.push(CoreStep {
                                axis: Axis::Id,
                                test: NodeTest::Kind(xpath_syntax::KindTest::Node),
                                preds: Vec::new(),
                            });
                            (
                                match inner.start {
                                    CoreStart::Context => CoreStart::Context,
                                    CoreStart::Root => CoreStart::Root,
                                    ids @ CoreStart::Ids(_) => ids,
                                },
                                steps,
                            )
                        }
                        _ => return Err(unsupported("id() argument must be a literal or path")),
                    }
                }
                _ => return Err(unsupported("only id(...) path heads are in XPatterns")),
            }
        }
    };
    for s in &p.steps {
        let preds =
            s.predicates.iter().map(|e| compile_pred(e, dialect)).collect::<Result<Vec<_>, _>>()?;
        steps.push(CoreStep { axis: s.axis, test: s.test.clone(), preds });
    }
    Ok(CorePath { start, steps })
}

fn compile_pred(e: &Expr, dialect: CoreDialect) -> EvalResult<CorePred> {
    match e {
        Expr::Binary { op: BinaryOp::And, left, right } => Ok(CorePred::And(
            Box::new(compile_pred(left, dialect)?),
            Box::new(compile_pred(right, dialect)?),
        )),
        Expr::Binary { op: BinaryOp::Or, left, right } => Ok(CorePred::Or(
            Box::new(compile_pred(left, dialect)?),
            Box::new(compile_pred(right, dialect)?),
        )),
        Expr::Call { name, args } if name == "not" && args.len() == 1 => {
            Ok(CorePred::Not(Box::new(compile_pred(&args[0], dialect)?)))
        }
        // The normalizer wraps node-set predicates as boolean(π).
        Expr::Call { name, args } if name == "boolean" && args.len() == 1 => {
            compile_pred(&args[0], dialect)
        }
        Expr::Path(p) => Ok(CorePred::Path(compile_path(p, dialect)?, None)),
        // XPatterns value tests: π op c, or c op π with the operator
        // mirrored.
        Expr::Binary { op, left, right }
            if op.is_relational() && dialect == CoreDialect::XPatterns =>
        {
            let (path, scalar, op) = match (&**left, &**right) {
                (Expr::Path(p), s) => (p, s, *op),
                (s, Expr::Path(p)) => (p, s, mirror(*op)),
                _ => return Err(unsupported("comparison is not π op constant")),
            };
            let constant = match scalar {
                Expr::Literal(s) => Constant::Str(s.clone()),
                Expr::Number(v) => Constant::Num(*v),
                Expr::Neg(inner) => match &**inner {
                    Expr::Number(v) => Constant::Num(-v),
                    _ => return Err(unsupported("value test requires a literal or number")),
                },
                _ => return Err(unsupported("value test requires a literal or number")),
            };
            Ok(CorePred::Path(compile_path(path, dialect)?, Some(ValueTest { op, constant })))
        }
        _ => Err(unsupported("predicate outside Core XPath / XPatterns")),
    }
}

/// Which axis-evaluation technique drives the forward steps. §3: "the
/// actual techniques for evaluating axes in our efficient XPath processing
/// algorithms will be interchangeable" — all three produce identical
/// results (property-tested in `xpath-axes`) within the same `O(|D|)`
/// per-step bound.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum AxisBackend {
    /// Cost-based adaptive planner ([`xpath_axes::cost`]): per axis
    /// application, run the cheapest of the per-node loop, the sparse
    /// staircase and the dense word-parallel kernel, picked from input
    /// density × axis shape × document size — the default.
    #[default]
    Adaptive,
    /// Set-at-a-time staircase/word-parallel axes over the
    /// structure-of-arrays index and the hybrid [`NodeSet`]
    /// (`xpath_axes::bulk`), always materializing dense-first.
    Bulk,
    /// Direct per-node set algorithms over the preorder/subtree-interval
    /// encoding.
    Direct,
    /// Algorithm 3.2: the Table I regular expressions over the primitive
    /// relations (the paper's reference formulation).
    Alg32,
    /// Pre/post-plane windows (Grust et al. 2004), built on first use.
    Plane,
}

/// The linear-time evaluator for compiled queries (Theorems 10.5 / 10.8).
pub struct CoreXPathEvaluator<'d> {
    doc: &'d Document,
    all: NodeSet,
    backend: AxisBackend,
    /// Cost model driving [`AxisBackend::Adaptive`] kernel picks.
    cost: xpath_axes::CostModel,
    /// Tally of adaptive kernel decisions made during evaluations.
    kernels: xpath_axes::KernelCounters,
    /// Lazily-built pre/post plane for [`AxisBackend::Plane`].
    plane: std::sync::OnceLock<xpath_axes::PrePostPlane>,
    /// Optional name index accelerating `T(t)` lookups in `S←`.
    index: Option<xpath_xml::index::NameIndex>,
    /// Optional shared axis-result memo for batched evaluation
    /// ([`crate::batch`]): when present, step expansions, `T(t)` scans,
    /// inverse passes and predicate sets are served from the memo on
    /// repeat applications. Never changes results — only whether a
    /// pass re-runs.
    memo: Option<std::sync::Arc<crate::batch::AxisMemo>>,
}

impl<'d> CoreXPathEvaluator<'d> {
    /// Create an evaluator over `doc` with the default (adaptive) axis
    /// backend.
    pub fn new(doc: &'d Document) -> Self {
        Self::with_backend(doc, AxisBackend::default())
    }

    /// Create an evaluator with an explicit axis backend (§3
    /// interchangeability; see [`AxisBackend`]).
    pub fn with_backend(doc: &'d Document, backend: AxisBackend) -> Self {
        CoreXPathEvaluator {
            doc,
            all: NodeSet::full(doc.len() as u32),
            backend,
            cost: *xpath_axes::CostModel::global(),
            kernels: xpath_axes::KernelCounters::new(),
            plane: std::sync::OnceLock::new(),
            index: None,
            memo: None,
        }
    }

    /// Override the adaptive planner's cost model (tests, calibration).
    pub fn with_cost_model(mut self, model: xpath_axes::CostModel) -> Self {
        self.cost = model;
        self
    }

    /// Attach a shared axis-result memo ([`crate::batch::AxisMemo`]):
    /// repeat `(axis, node-test, input-fingerprint)` applications — and
    /// the document-global `T(t)` and predicate sets — are then
    /// served from the memo instead of re-running their passes. This is
    /// how [`crate::batch::QuerySet`] amortizes one document traversal
    /// over a whole batch of queries; results are unchanged.
    pub fn with_memo(mut self, memo: std::sync::Arc<crate::batch::AxisMemo>) -> Self {
        self.memo = Some(memo);
        self
    }

    /// The adaptive kernel decisions recorded so far on this evaluator
    /// (all zero under the non-adaptive backends).
    pub fn kernel_counts(&self) -> xpath_axes::KernelCounts {
        self.kernels.snapshot()
    }

    /// Build a [`NameIndex`](xpath_xml::index::NameIndex) (one `O(|D|)`
    /// pass) so every `T(t)` lookup of backward evaluation (`S←`) becomes
    /// `O(1)` instead of an `O(|D|)` scan. Same results, same asymptotic
    /// bounds, smaller constants when a query has many predicate steps or
    /// the evaluator is reused across queries.
    pub fn with_name_index(mut self) -> Self {
        self.index = Some(xpath_xml::index::NameIndex::new(self.doc));
        self
    }

    /// `T(t)` relative to an axis, through the name index when present
    /// and the batch memo when attached (the scan is document-global, so
    /// one memo entry serves every query in a batch using the same test).
    fn t_set(&self, axis: Axis, test: &NodeTest) -> NodeSet {
        let compute = || {
            NodeSet::from_sorted(match &self.index {
                Some(ix) => node_test::matching_set_indexed(self.doc, ix, axis, test),
                None => node_test::matching_set(self.doc, axis, test),
            })
        };
        match &self.memo {
            Some(m) => m.t_set(axis, test, &self.kernels, compute),
            None => compute(),
        }
    }

    /// Evaluate a compiled query with semantics `S→[[π]](N0)`.
    pub fn evaluate(&self, q: &CoreQuery, context_nodes: &[NodeId]) -> NodeSet {
        self.s_forward(&q.path, context_nodes)
    }

    /// [`CoreXPathEvaluator::evaluate`] under an [`EvalBudget`]: the
    /// budget is polled before every axis pass (forward expansions,
    /// inverse passes, predicate sets) — the paper's per-pass `O(|D|)`
    /// unit is the cancellation granularity, so a trip costs at most one
    /// more pass, never whole-query time. An unlimited budget takes the
    /// exact infallible path.
    pub fn try_evaluate(
        &self,
        q: &CoreQuery,
        context_nodes: &[NodeId],
        budget: &EvalBudget,
    ) -> EvalResult<NodeSet> {
        if budget.is_unlimited() {
            return Ok(self.evaluate(q, context_nodes));
        }
        let p = &q.path;
        let mut n = self.start_set(&p.start, context_nodes);
        for step in &p.steps {
            budget.check()?;
            n = self.try_advance_step(step, &n, budget)?;
        }
        budget.check()?;
        Ok(n)
    }

    /// Compile and evaluate a query string.
    pub fn evaluate_str(
        &self,
        query: &str,
        dialect: CoreDialect,
        context_nodes: &[NodeId],
    ) -> EvalResult<NodeSet> {
        let e = xpath_syntax::parse_normalized(query)
            .map_err(|err| EvalError::Parse(err.to_string()))?;
        let q = compile_dialect(&e, dialect)?;
        Ok(self.evaluate(&q, context_nodes))
    }

    fn axis_forward(&self, axis: Axis, set: &NodeSet) -> NodeSet {
        match axis {
            Axis::Id => NodeSet::from_sorted(xpath_axes::id::id_set_ref(self.doc, &set.to_vec())),
            _ => match self.backend {
                AxisBackend::Adaptive => {
                    let (out, kernel) =
                        xpath_axes::bulk::axis_set_planned(self.doc, axis, set, &self.cost);
                    self.kernels.record(kernel);
                    out
                }
                AxisBackend::Bulk => xpath_axes::bulk::axis_set(self.doc, axis, set),
                AxisBackend::Direct => {
                    NodeSet::from_sorted(xpath_axes::eval_axis(self.doc, axis, &set.to_vec()))
                }
                AxisBackend::Alg32 => {
                    NodeSet::from_sorted(xpath_axes::eval_axis_alg32(self.doc, axis, &set.to_vec()))
                }
                AxisBackend::Plane => {
                    NodeSet::from_sorted(
                        self.plane
                            .get_or_init(|| xpath_axes::PrePostPlane::new(self.doc))
                            .eval_axis(self.doc, axis, &set.to_vec()),
                    )
                }
            },
        }
    }

    /// Backward steps (`S←`, §10.1) go through the inverse-axis functions:
    /// Lemma 10.1 reduces `χ⁻¹` to the forward axes, so backend
    /// interchangeability is already exercised above. The bulk backend has
    /// its own set-at-a-time inverse; the others share the per-node one.
    fn axis_backward(&self, axis: Axis, set: &NodeSet) -> NodeSet {
        match self.backend {
            AxisBackend::Adaptive => {
                let (out, kernel) =
                    xpath_axes::bulk::inverse_axis_set_planned(self.doc, axis, set, &self.cost);
                self.kernels.record(kernel);
                out
            }
            AxisBackend::Bulk => xpath_axes::bulk::inverse_axis_set(self.doc, axis, set),
            _ => NodeSet::from_sorted(xpath_axes::inverse_axis_set(self.doc, axis, &set.to_vec())),
        }
    }

    pub(crate) fn start_set(&self, start: &CoreStart, context_nodes: &[NodeId]) -> NodeSet {
        match start {
            CoreStart::Context => {
                // Copy through the recycling pool: `S→` runs once per
                // evaluation, and a plain `to_vec` here would be the one
                // heap allocation left on the steady-state path.
                let mut v = xpath_xml::pool::take_ids();
                v.extend_from_slice(context_nodes);
                NodeSet::from_unsorted(v)
            }
            CoreStart::Root => NodeSet::singleton(self.doc.root()),
            CoreStart::Ids(s) => NodeSet::from_sorted(self.doc.deref_ids(s)),
        }
    }

    /// `S→` (Definition 10.2): forward evaluation of the query spine.
    fn s_forward(&self, p: &CorePath, context_nodes: &[NodeId]) -> NodeSet {
        let mut n = self.start_set(&p.start, context_nodes);
        for step in &p.steps {
            n = self.advance_step(step, &n);
        }
        n
    }

    /// Advance one spine step: `χ(N) ∩ T(t) ∩ E1[[e1]] ∩ …` — the
    /// lock-step unit the batched evaluator ([`crate::batch`]) drives one
    /// step at a time across a whole batch of spines.
    pub(crate) fn advance_step(&self, step: &CoreStep, n: &NodeSet) -> NodeSet {
        let mut next = self.expand_axis_test(step.axis, &step.test, n);
        // π[e] ↦ S→[[π]] ∩ E1[[e]].
        for pred in &step.preds {
            next = next.intersect(&self.pred_set(pred));
        }
        next
    }

    /// [`CoreXPathEvaluator::advance_step`] with the budget polled before
    /// every predicate pass.
    pub(crate) fn try_advance_step(
        &self,
        step: &CoreStep,
        n: &NodeSet,
        budget: &EvalBudget,
    ) -> EvalResult<NodeSet> {
        let mut next = self.expand_axis_test(step.axis, &step.test, n);
        for pred in &step.preds {
            budget.check()?;
            next = next.intersect(&self.try_pred_set(pred, budget)?);
        }
        Ok(next)
    }

    /// Budgeted [`CoreXPathEvaluator::pred_set`]. With a batch memo
    /// attached, the memoized (infallible) computation runs whole — the
    /// outer per-predicate check still bounds cancellation latency by one
    /// predicate pass.
    pub(crate) fn try_pred_set(&self, pred: &CorePred, budget: &EvalBudget) -> EvalResult<NodeSet> {
        budget.check()?;
        match &self.memo {
            Some(m) => Ok(m.pred(pred, &self.kernels, || self.e1(pred))),
            None => match pred {
                CorePred::And(l, r) => {
                    Ok(self.try_pred_set(l, budget)?.intersect(&self.try_pred_set(r, budget)?))
                }
                CorePred::Or(l, r) => {
                    Ok(self.try_pred_set(l, budget)?.union(&self.try_pred_set(r, budget)?))
                }
                CorePred::Not(inner) => {
                    Ok(self.try_pred_set(inner, budget)?.complement(self.doc.len() as u32))
                }
                CorePred::Path(p, test) => self.try_s_backward(p, test.as_ref(), budget),
            },
        }
    }

    /// Budgeted [`CoreXPathEvaluator::s_backward`]: polls before each
    /// step's `T(t)`/inverse pass.
    fn try_s_backward(
        &self,
        p: &CorePath,
        test: Option<&ValueTest>,
        budget: &EvalBudget,
    ) -> EvalResult<NodeSet> {
        let mut acc: Option<NodeSet> = None;
        for step in p.steps.iter().rev() {
            budget.check()?;
            let mut base = self.t_set(step.axis, &step.test);
            for pred in &step.preds {
                base = base.intersect(&self.try_pred_set(pred, budget)?);
            }
            base = match acc {
                Some(a) => base.intersect(&a),
                None => self.value_filter(test, base),
            };
            acc = Some(self.inverse_expand(step.axis, &base));
        }
        Ok(self.backward_start(p, test, acc))
    }

    /// Witness-only predicate check for one candidate node: does `pred`
    /// hold at `x`?
    ///
    /// Where the set-at-a-time `E1`/`S←` route computes the
    /// document-global predicate set (one `T(t)` + inverse pass per
    /// step), this walks the predicate path **forward from `{x}` alone**
    /// — `x ∈ S←[[π]] ⇔ S→[[π]]({x}) ≠ ∅` (Definition 10.2) — so a
    /// quantified predicate like `[following::c]` touches only the
    /// frontier reachable from `x` and stops at the first witness (or the
    /// first empty frontier). The cursor layer uses this per candidate,
    /// short-circuiting `and`/`or`/`not` along the way; the materialized
    /// evaluators keep the set-at-a-time route, which stays the source of
    /// truth for differential testing.
    pub(crate) fn pred_holds(
        &self,
        pred: &CorePred,
        x: NodeId,
        budget: &EvalBudget,
    ) -> EvalResult<bool> {
        match pred {
            CorePred::And(l, r) => {
                Ok(self.pred_holds(l, x, budget)? && self.pred_holds(r, x, budget)?)
            }
            CorePred::Or(l, r) => {
                Ok(self.pred_holds(l, x, budget)? || self.pred_holds(r, x, budget)?)
            }
            CorePred::Not(inner) => Ok(!self.pred_holds(inner, x, budget)?),
            CorePred::Path(p, test) => self.path_holds_from(p, test.as_ref(), x, budget),
        }
    }

    /// `S→[[π]]({x}) ≠ ∅` with empty-frontier early exit.
    fn path_holds_from(
        &self,
        p: &CorePath,
        test: Option<&ValueTest>,
        x: NodeId,
        budget: &EvalBudget,
    ) -> EvalResult<bool> {
        let ctx = [x];
        let mut n = self.start_set(&p.start, &ctx);
        for step in &p.steps {
            if n.is_empty() {
                return Ok(false);
            }
            budget.check()?;
            n = self.try_advance_step(step, &n, budget)?;
        }
        Ok(!self.value_filter(test, n).is_empty())
    }

    /// Keep the candidates that pass a predicate path's value test (all
    /// of them when it has none): in `S→` the nodes the path reaches, in
    /// `S←` the last step's base before its inverse pass. The test reads
    /// each candidate's string value once: an attribute's or a text
    /// node's straight from the document, an element's through the
    /// document's per-node cache, so no element string is built twice.
    fn value_filter(&self, test: Option<&ValueTest>, mut candidates: NodeSet) -> NodeSet {
        if let Some(test) = test {
            candidates.retain(|n| test.holds(self.doc.string_value(n)));
        }
        candidates
    }

    /// `χ(N) ∩ T(t)` — the axis application plus node test of one step,
    /// memoized under `(axis, test, fingerprint(N))` when a batch memo is
    /// attached: identical spine prefixes across a batch collapse to one
    /// pass (equal inputs fingerprint equally, so sharing cascades down
    /// shared prefixes step by step).
    fn expand_axis_test(&self, axis: Axis, test: &NodeTest, n: &NodeSet) -> NodeSet {
        let compute = || {
            let mut next = self.axis_forward(axis, n);
            node_test::filter_set(self.doc, axis, test, &mut next);
            next
        };
        match &self.memo {
            Some(m) => m.step(axis, test, n, &self.kernels, compute),
            None => compute(),
        }
    }

    /// `E1[[pred]]` through the batch memo when attached: predicate sets
    /// are document-global (independent of the context set), so one entry
    /// serves every occurrence of a predicate across the whole batch.
    fn pred_set(&self, pred: &CorePred) -> NodeSet {
        match &self.memo {
            Some(m) => m.pred(pred, &self.kernels, || self.e1(pred)),
            None => self.e1(pred),
        }
    }

    /// `E1` (Definition 10.2): the set of nodes satisfying a predicate.
    fn e1(&self, pred: &CorePred) -> NodeSet {
        match pred {
            CorePred::And(l, r) => self.pred_set(l).intersect(&self.pred_set(r)),
            CorePred::Or(l, r) => self.pred_set(l).union(&self.pred_set(r)),
            CorePred::Not(inner) => self.pred_set(inner).complement(self.doc.len() as u32),
            CorePred::Path(p, test) => self.s_backward(p, test.as_ref()),
        }
    }

    /// `S←` (Definition 10.2): the set of context nodes from which the path
    /// matches at least one node.
    fn s_backward(&self, p: &CorePath, test: Option<&ValueTest>) -> NodeSet {
        let mut acc: Option<NodeSet> = None;
        for step in p.steps.iter().rev() {
            // base = T(t) ∩ E1[[e1]] ∩ … ∩ S←[[rest]]; the last step's
            // base is filtered by the value test instead.
            let mut base = self.t_set(step.axis, &step.test);
            for pred in &step.preds {
                base = base.intersect(&self.pred_set(pred));
            }
            base = match acc {
                Some(a) => base.intersect(&a),
                None => self.value_filter(test, base),
            };
            acc = Some(self.inverse_expand(step.axis, &base));
        }
        self.backward_start(p, test, acc)
    }

    /// Close `S←[[p]]` at the path's start, given `acc` = `S←` of its
    /// steps (`None` for a step-less path, whose value test then filters
    /// the start nodes themselves).
    fn backward_start(
        &self,
        p: &CorePath,
        test: Option<&ValueTest>,
        acc: Option<NodeSet>,
    ) -> NodeSet {
        let start = match (&p.start, acc) {
            (CoreStart::Context, Some(acc)) => return acc,
            (CoreStart::Context, None) => return self.value_filter(test, self.all.clone()),
            (_, Some(acc)) => self.start_set(&p.start, &[]).intersect(&acc),
            (_, None) => self.value_filter(test, self.start_set(&p.start, &[])),
        };
        // S←[[/π]] := dom/root(S←[[π]]); id(c)/π matches from anywhere
        // iff some id target survives.
        if start.is_empty() {
            NodeSet::new()
        } else {
            self.all.clone()
        }
    }

    /// The set of context nodes from which the compiled query matches at
    /// least one node — `S←[[π]]` (Definition 10.2), exposed for the XSLT
    /// pattern-matching use case: "which nodes does this template pattern
    /// apply to?" in one `O(|D|·|Q|)` pass.
    pub fn matching_contexts(&self, q: &CoreQuery) -> NodeSet {
        self.s_backward(&q.path, None)
    }

    /// `χ⁻¹(X)` through the batch memo when attached, keyed on
    /// `(axis, fingerprint(X))` like the forward expansions.
    fn inverse_expand(&self, axis: Axis, set: &NodeSet) -> NodeSet {
        match &self.memo {
            Some(m) => m.inverse(axis, set, &self.kernels, || self.axis_backward(axis, set)),
            None => self.axis_backward(axis, set),
        }
    }
}

/// Is the expression in the Core XPath fragment?
pub fn is_core_xpath(e: &Expr) -> bool {
    compile(e).is_ok()
}

/// Is the expression in the XPatterns fragment of Figure 1? Its value
/// tests are Table VI's `=s` only; the other comparison operators compile
/// to the same algebra ([`compile_xpatterns`]) but keep the query's
/// Figure 1 label.
pub fn is_xpatterns(e: &Expr) -> bool {
    compile_xpatterns(e).is_ok_and(|q| only_eq_tests(&q.path))
}

fn only_eq_tests(p: &CorePath) -> bool {
    fn pred_ok(pred: &CorePred) -> bool {
        match pred {
            CorePred::And(l, r) | CorePred::Or(l, r) => pred_ok(l) && pred_ok(r),
            CorePred::Not(inner) => pred_ok(inner),
            CorePred::Path(p, test) => {
                test.as_ref().is_none_or(|t| t.op == BinaryOp::Eq) && only_eq_tests(p)
            }
        }
    }
    p.steps.iter().all(|s| s.preds.iter().all(pred_ok))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Context;
    use crate::naive::NaiveEvaluator;
    use crate::value::Value;
    use xpath_syntax::parse_normalized;
    use xpath_xml::generate::{doc_bookstore, doc_figure8, doc_flat, doc_idref_chain};

    fn core_eval(doc: &Document, q: &str) -> NodeSet {
        let ev = CoreXPathEvaluator::new(doc);
        ev.evaluate_str(q, CoreDialect::XPatterns, &[doc.root()])
            .unwrap_or_else(|e| panic!("{q}: {e}"))
    }

    fn naive_eval(doc: &Document, q: &str) -> NodeSet {
        let e = parse_normalized(q).unwrap();
        match NaiveEvaluator::new(doc).evaluate(&e, Context::of(doc.root())).unwrap() {
            Value::NodeSet(s) => s,
            other => panic!("expected node set, got {other:?}"),
        }
    }

    #[test]
    fn example_10_3_query() {
        // /descendant::a/child::b[child::c/child::d or not(following::*)].
        let d = doc_bookstore();
        let q = "/descendant::section/child::book[child::author/child::last or not(following::*)]";
        assert_eq!(core_eval(&d, q), naive_eval(&d, q));
    }

    #[test]
    fn agrees_with_naive_on_core_corpus() {
        let docs = [doc_flat(5), doc_figure8(), doc_bookstore()];
        let queries = [
            "//a/b",
            "/descendant::a/child::b",
            "//b[child::c]",
            "//b[not(child::c)]",
            "//*[child::c and child::d]",
            "//*[child::c or following-sibling::b]",
            "//d/ancestor::b",
            "//c/following::d",
            "//b[descendant::d]/preceding-sibling::*",
            "//*[not(ancestor::b)]/c",
            "//book[author]",
            "//section[book[author[last]]]",
            "//*[attribute::id]",
            "child::a/child::b",
            "//*[self::b]",
            "//b[following::*[child::d]]",
        ];
        for d in &docs {
            for q in queries {
                assert_eq!(core_eval(d, q), naive_eval(d, q), "query {q} on {d:?}");
            }
        }
    }

    #[test]
    fn absolute_predicate_paths() {
        let d = doc_figure8();
        // [/descendant::zzz] is false everywhere; [//c] true everywhere.
        assert_eq!(core_eval(&d, "//b[/descendant::zzz]"), naive_eval(&d, "//b[/descendant::zzz]"));
        assert_eq!(core_eval(&d, "//b[//c]"), naive_eval(&d, "//b[//c]"));
    }

    #[test]
    fn xpatterns_eq_feature() {
        let d = doc_figure8();
        for q in [
            "//*[child::* = '100']",
            "//*[self::* = 100]",
            "//b[child::d = '100']/child::c",
            "//*[descendant::d = 100 and child::c]",
        ] {
            assert_eq!(core_eval(&d, q), naive_eval(&d, q), "{q}");
        }
    }

    #[test]
    fn value_tests_agree_with_naive() {
        let d = doc_figure8();
        for q in [
            "//*[child::d > 50]",
            "//*[50 < child::d]",
            "//*[child::* != '100']",
            "//*[child::c <= 'x']",
            "//*[self::d >= -1]",
            "//b[not(child::d < 100)]/child::c",
            "//*[/ != 'x']",
        ] {
            assert_eq!(core_eval(&d, q), naive_eval(&d, q), "{q}");
        }
    }

    #[test]
    fn value_tests_compile_to_xpatterns_but_keep_the_figure_1_label() {
        let e = parse_normalized("//b[100 < d]").unwrap();
        let q = compile_xpatterns(&e).unwrap();
        let CorePred::Path(_, test) = &q.path.steps[1].preds[0] else { panic!("{q:?}") };
        assert_eq!(
            *test,
            Some(ValueTest { op: BinaryOp::Gt, constant: Constant::Num(100.0) }),
            "c op π mirrors the operator"
        );
        assert!(!is_xpatterns(&e));
        assert!(is_xpatterns(&parse_normalized("//b[100 = d]").unwrap()));
        assert!(compile_xpatterns(&parse_normalized("//b[d > -(1)]").unwrap()).is_ok());
        for q in ["//b[d > c]", "//b[d > 1 + 1]", "//b[d > true()]", "//b[d > --1]"] {
            assert!(compile_xpatterns(&parse_normalized(q).unwrap()).is_err(), "{q}");
        }
    }

    #[test]
    fn value_test_semantics() {
        let t = |op, constant| ValueTest { op, constant };
        let num = Constant::Num;
        let s = |v: &str| Constant::Str(v.to_string());
        assert!(t(BinaryOp::Gt, num(5.0)).holds(" 7 "));
        assert!(!t(BinaryOp::Gt, num(5.0)).holds("abc"));
        assert!(t(BinaryOp::Ne, num(5.0)).holds("abc"), "NaN passes !=");
        assert!(!t(BinaryOp::Eq, num(f64::NAN)).holds("NaN"));
        assert!(!t(BinaryOp::Lt, s("abc")).holds("1"), "relational string compares numbers");
        assert!(t(BinaryOp::Le, s("2")).holds("2.0"));
        assert!(!t(BinaryOp::Eq, s("2")).holds("2.0"), "= against a string compares strings");
        assert!(t(BinaryOp::Ne, s("x")).holds(""));
    }

    #[test]
    fn xpatterns_id_head() {
        let d = doc_figure8();
        for q in ["id('11')/child::c", "id('11 21')/child::d"] {
            assert_eq!(core_eval(&d, q), naive_eval(&d, q), "{q}");
        }
    }

    #[test]
    fn xpatterns_id_axis_lemma_10_6() {
        // id(π)/π3 ≡ π/id/π3 on a document where the ref encoding is exact.
        let d = doc_idref_chain(6);
        // "first item" expressed without position(): no preceding sibling.
        let q = "id(//item[not(preceding-sibling::*)])/self::*";
        let got = core_eval(&d, q);
        let want = naive_eval(&d, q);
        assert_eq!(got, want);
        assert_eq!(got.len(), 2, "item 0 references items 1 and 2");
    }

    #[test]
    fn fragment_rejections() {
        let core = |q: &str| compile(&parse_normalized(q).unwrap());
        // Arithmetic, position(), count() are not Core XPath.
        assert!(core("//a[position() = 2]").is_err());
        assert!(core("//a[count(b) > 1]").is_err());
        assert!(core("count(//a)").is_err());
        assert!(core("//a[b = 'x']").is_err(), "=s is XPatterns, not Core XPath");
        assert!(core("id('x')/a").is_err(), "id heads are XPatterns, not Core XPath");
        // But they are fine structurally in XPatterns where applicable.
        assert!(compile_xpatterns(&parse_normalized("//a[b = 'x']").unwrap()).is_ok());
        assert!(compile_xpatterns(&parse_normalized("id('x')/a").unwrap()).is_ok());
        assert!(compile_xpatterns(&parse_normalized("//a[position() = 2]").unwrap()).is_err());
        // Plain Core XPath accepts the full axis set and boolean closure.
        assert!(core("//a[not(b) and (c or descendant::d)]").is_ok());
    }

    #[test]
    fn name_index_is_transparent() {
        // The indexed T(t) lookup changes nothing observable.
        let docs = [doc_flat(5), doc_figure8(), doc_bookstore()];
        let queries = [
            "//b[child::c]",
            "//*[not(descendant::d)]",
            "//b[following::*[child::d]]",
            "//*[attribute::id]",
            "//section[book[author[last]]]",
        ];
        for d in &docs {
            let plain = CoreXPathEvaluator::new(d);
            let indexed = CoreXPathEvaluator::new(d).with_name_index();
            for q in queries {
                let e = parse_normalized(q).unwrap();
                let c = compile(&e).unwrap();
                assert_eq!(
                    indexed.evaluate(&c, &[d.root()]),
                    plain.evaluate(&c, &[d.root()]),
                    "{q}"
                );
            }
        }
    }

    #[test]
    fn axis_backends_agree() {
        // §3 interchangeability at the evaluator level: all three backends
        // produce identical results on a mixed corpus.
        let docs = [doc_flat(5), doc_figure8(), doc_bookstore()];
        let queries = [
            "//a/b",
            "//b[child::c]",
            "//d/ancestor::b",
            "//c/following::d",
            "//b[descendant::d]/preceding-sibling::*",
            "//*[attribute::id]",
        ];
        for d in &docs {
            let direct = CoreXPathEvaluator::with_backend(d, AxisBackend::Direct);
            let alg32 = CoreXPathEvaluator::with_backend(d, AxisBackend::Alg32);
            let plane = CoreXPathEvaluator::with_backend(d, AxisBackend::Plane);
            let bulk = CoreXPathEvaluator::with_backend(d, AxisBackend::Bulk);
            let adaptive = CoreXPathEvaluator::new(d);
            for q in queries {
                let e = parse_normalized(q).unwrap();
                let c = compile(&e).unwrap();
                let want = direct.evaluate(&c, &[d.root()]);
                assert_eq!(alg32.evaluate(&c, &[d.root()]), want, "alg32 {q}");
                assert_eq!(plane.evaluate(&c, &[d.root()]), want, "plane {q}");
                assert_eq!(bulk.evaluate(&c, &[d.root()]), want, "bulk {q}");
                assert_eq!(adaptive.evaluate(&c, &[d.root()]), want, "adaptive {q}");
            }
            assert!(
                adaptive.kernel_counts().total() > 0,
                "the adaptive backend records its kernel decisions"
            );
        }
    }

    #[test]
    fn adaptive_agrees_under_forced_cost_models() {
        // Extreme models force every axis application onto one kernel
        // class; results must not change, only the route taken.
        use xpath_axes::CostModel;
        let sparse = CostModel { dense_word_ns: 1e9, ..CostModel::CALIBRATED };
        let dense = CostModel { dense_word_ns: 1e-9, chain_ns: 1e9, ..CostModel::CALIBRATED };
        let d = doc_bookstore();
        let queries =
            ["//a/b", "//b[child::c]", "//d/ancestor::b", "//c/following::d", "//book[author]"];
        let reference = CoreXPathEvaluator::with_backend(&d, AxisBackend::Direct);
        for model in [sparse, dense] {
            let ev = CoreXPathEvaluator::new(&d).with_cost_model(model);
            for q in queries {
                let c = compile(&parse_normalized(q).unwrap()).unwrap();
                assert_eq!(
                    ev.evaluate(&c, &[d.root()]),
                    reference.evaluate(&c, &[d.root()]),
                    "{q} under {model:?}"
                );
            }
        }
    }

    #[test]
    fn relative_queries() {
        let d = doc_figure8();
        let ev = CoreXPathEvaluator::new(&d);
        let x11 = d.element_by_id("11").unwrap();
        let out = ev.evaluate_str("child::c", CoreDialect::CoreXPath, &[x11]).unwrap();
        assert_eq!(out.len(), 2);
        let out = ev
            .evaluate_str("following-sibling::b/child::d", CoreDialect::CoreXPath, &[x11])
            .unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn linear_scaling_smoke() {
        // Informal Theorem 10.5 check: 4x data → roughly ≤ 8x time
        // (allowing noise), far from the naive blowup.
        use std::time::Instant;
        let q = "//b[not(following::*)]";
        let d1 = doc_flat(4000);
        let d2 = doc_flat(16000);
        let e = parse_normalized(q).unwrap();
        let c1 = compile(&e).unwrap();
        let ev1 = CoreXPathEvaluator::new(&d1);
        let ev2 = CoreXPathEvaluator::new(&d2);
        // Warm up.
        ev1.evaluate(&c1, &[d1.root()]);
        let t1 = Instant::now();
        for _ in 0..10 {
            ev1.evaluate(&c1, &[d1.root()]);
        }
        let t1 = t1.elapsed();
        let t2 = Instant::now();
        for _ in 0..10 {
            ev2.evaluate(&c1, &[d2.root()]);
        }
        let t2 = t2.elapsed();
        assert!(t2 < t1 * 40, "expected near-linear scaling, got {t1:?} → {t2:?}");
    }
}
