//! The **MinContext** algorithm (paper §8, Appendix A).
//!
//! MinContext keeps context information as small as possible by combining
//! three ideas (§8.2):
//!
//! 1. **Restriction to the relevant context** — tables are only built for
//!    parse-tree nodes `N` with `Relev(N) ⊆ {cn}`, keyed by the context
//!    node, and only for *reachable* context nodes (top-down restriction);
//! 2. **Special treatment of location paths on the outermost level** —
//!    propagated as plain node sets `⊆ dom` instead of relations
//!    `⊆ dom × 2^dom`;
//! 3. **Treating position and size in a loop** — predicates that depend on
//!    `cp`/`cs` are evaluated in a loop over the pairs of previous/current
//!    context node rather than materialized in tables. The loop is one
//!    helper, `filter_candidates`, shared by outermost steps, inner paths
//!    and filter expressions. It decides a predicate of the closed form
//!    `position() op R` (`R` a constant, `last()`, or a sum or difference
//!    of the two; see `position_test`) once per candidate list, by
//!    index, instead of once per candidate: `=` picks one node, the order
//!    comparisons keep a slice, `!=` drops at most one node. Such
//!    predicates read no table, so a step whose predicates all have that
//!    form skips the frontier-wide `eval_by_cnode_only` pass.
//!
//! The four procedures below mirror the Appendix A pseudocode:
//! `eval_outermost_locpath`, `eval_by_cnode_only`, `eval_single_context`
//! and `eval_inner_locpath`. Theorem 8.6: time `O(|D|⁴·|Q|²)`, space
//! `O(|D|²·|Q|²)`.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::HashMap;

use xpath_syntax::{Axis, BinaryOp, Expr, LocationPath, PathStart, Step};
use xpath_xml::{Document, NodeId};

use crate::bottomup::CvTable;
use crate::compare::{mirror, num_cmp};
use crate::context::{Context, EvalBudget, EvalError, EvalResult};
use crate::eval_common::{
    apply_binary, position_of, predicate_holds, step_candidates, step_candidates_set,
};
use crate::functions;
use crate::nodeset::NodeSet;
use crate::relev::{relev, Relev};
use crate::value::Value;

/// The MinContext evaluator (Algorithm 8.5).
pub struct MinContextEvaluator<'d> {
    doc: &'d Document,
    /// `table(N)` for parse-tree nodes with `Relev(N) ⊆ {cn}`, keyed by the
    /// subexpression's address. Reset per `evaluate` call.
    tables: RefCell<HashMap<usize, CvTable>>,
    /// Deadline/cancellation budget, polled before every outermost step,
    /// table build and inner-path pass.
    eval_budget: EvalBudget,
}

fn key_of(e: &Expr) -> usize {
    e as *const Expr as usize
}

impl<'d> MinContextEvaluator<'d> {
    /// Create a MinContext evaluator over `doc`.
    pub fn new(doc: &'d Document) -> Self {
        MinContextEvaluator {
            doc,
            tables: RefCell::new(HashMap::new()),
            eval_budget: EvalBudget::unlimited(),
        }
    }

    /// Attach a deadline/cancellation [`EvalBudget`], polled before every
    /// outermost step, context-value table build and inner-path pass.
    #[must_use]
    pub fn with_eval_budget(mut self, budget: EvalBudget) -> Self {
        self.eval_budget = budget;
        self
    }

    /// Algorithm 8.5 (MinContext): top-level dispatch.
    pub fn evaluate(&self, query: &Expr, ctx: Context) -> EvalResult<Value> {
        self.tables.borrow_mut().clear();
        let start = NodeSet::singleton(ctx.node);
        if let Expr::Path(p) = query {
            let out = self.eval_outermost_locpath(p, &start, ctx)?;
            return Ok(Value::NodeSet(out));
        }
        self.eval_by_cnode_only(query, &start)?;
        self.eval_single_context(query, ctx)
    }

    /// Appendix A `eval_outermost_locpath`: propagate plain node sets
    /// through the outermost location path (§8.2 idea 2).
    fn eval_outermost_locpath(
        &self,
        p: &LocationPath,
        x: &NodeSet,
        ctx: Context,
    ) -> EvalResult<NodeSet> {
        let start: NodeSet = match &p.start {
            PathStart::Root => NodeSet::singleton(self.doc.root()),
            PathStart::ContextNode => x.clone(),
            PathStart::Expr(head) => {
                // Extension beyond the appendix: FilterExpr heads evaluate
                // per context node, and their results are unioned.
                self.eval_by_cnode_only(head, x)?;
                let mut acc = NodeSet::new();
                for n in x {
                    let v = self.eval_single_context(head, Context::of(n))?;
                    let set = v.into_node_set().ok_or_else(|| {
                        EvalError::TypeMismatch("path start must evaluate to a node set".into())
                    })?;
                    acc.union_with(&set);
                }
                acc
            }
        };
        let mut cur = start;
        for step in &p.steps {
            cur = self.outermost_step(step, &cur, ctx)?;
        }
        Ok(cur)
    }

    /// One outermost location step: set-at-a-time expansion through the
    /// bulk axis engine, then predicates either over the whole candidate
    /// set (cn-only) or in the (p, s) loop.
    fn outermost_step(&self, step: &Step, x: &NodeSet, _ctx: Context) -> EvalResult<NodeSet> {
        self.eval_budget.check()?;
        let preds = &step.predicates;
        if preds.iter().all(|p| !relev(p).has_pos_or_size()) {
            // Fast path: no predicate inspects cp/cs — filter
            // Y := χ::t(X) as one list.
            let y = step_candidates_set(self.doc, step.axis, &step.test, x);
            if preds.is_empty() {
                return Ok(y);
            }
            self.tabulate_predicates(preds, &y)?;
            let kept = self.filter_candidates(step.axis, preds, y.into_vec())?;
            return Ok(NodeSet::from_sorted(kept));
        }
        if !by_position_only(preds) {
            let y = step_candidates_set(self.doc, step.axis, &step.test, x);
            self.tabulate_predicates(preds, &y)?;
        }
        // (p, s) loop over pairs of previous/current context node.
        let mut r: Vec<NodeId> = Vec::new();
        for src in x {
            let z = step_candidates(self.doc, step.axis, &step.test, src);
            r.extend(self.filter_candidates(step.axis, preds, z)?);
        }
        Ok(NodeSet::from_unsorted(r))
    }

    /// MinContext's one predicate loop (§8.2 idea 3): keep the nodes of
    /// `z`, one candidate list in document order whose positions count
    /// along `axis`, that pass every predicate of `preds` in turn. A
    /// closed-form position test ([`position_test`]) is decided once for
    /// the list; any other predicate is evaluated per candidate at
    /// `⟨node, position, size⟩`, reading the tables that
    /// [`MinContextEvaluator::tabulate_predicates`] built.
    pub(crate) fn filter_candidates(
        &self,
        axis: Axis,
        preds: &[Expr],
        mut z: Vec<NodeId>,
    ) -> EvalResult<Vec<NodeId>> {
        for pred in preds {
            if z.is_empty() {
                break;
            }
            if let Some(test) = position_test(pred) {
                test.retain(axis, &mut z);
                continue;
            }
            let m = z.len();
            let mut kept = Vec::with_capacity(m);
            for (j, &node) in z.iter().enumerate() {
                let pos = position_of(axis, j, m);
                let v = self.eval_single_context(pred, Context::new(node, pos, m as u32))?;
                if predicate_holds(&v, pos) {
                    kept.push(node);
                }
            }
            z = kept;
        }
        Ok(z)
    }

    /// Build the `{cn}` tables [`MinContextEvaluator::filter_candidates`]
    /// reads for `preds` over `cover`, a superset of every candidate list
    /// the loop will see. Closed-form position tests read no table and
    /// are skipped; callers skip building `cover` at all when
    /// [`by_position_only`] holds.
    pub(crate) fn tabulate_predicates(&self, preds: &[Expr], cover: &NodeSet) -> EvalResult<()> {
        for pred in preds.iter().filter(|p| position_test(p).is_none()) {
            self.eval_by_cnode_only(pred, cover)?;
        }
        Ok(())
    }

    /// Appendix A `eval_by_cnode_only`: for every node `M` in the subtree
    /// rooted at `N` whose expression does not depend on the current
    /// position/size, compute `table(M)` over the possible context nodes.
    pub(crate) fn eval_by_cnode_only(&self, e: &Expr, x: &NodeSet) -> EvalResult<()> {
        if self.tables.borrow().contains_key(&key_of(e)) {
            return Ok(());
        }
        self.eval_budget.check()?;
        let rel = relev(e);
        if rel.has_pos_or_size() {
            // Recurse; N itself is evaluated later per single context.
            match e {
                Expr::Binary { left, right, .. } => {
                    self.eval_by_cnode_only(left, x)?;
                    self.eval_by_cnode_only(right, x)?;
                }
                Expr::Neg(inner) => self.eval_by_cnode_only(inner, x)?,
                Expr::Call { args, .. } => {
                    for a in args {
                        self.eval_by_cnode_only(a, x)?;
                    }
                }
                // position()/last() leaves and constants have no children.
                _ => {}
            }
            return Ok(());
        }
        // Relev(N) ⊆ {cn}: build table(N) over its domain — `X`, or the
        // one dummy row when N ignores the context node (an absolute path
        // must be covered even when `X` is empty).
        let dom = self.domain(rel, x);
        let mut table = CvTable::new(rel);
        match e {
            Expr::Path(p) => {
                let rel_map = self.eval_inner_locpath(p, dom.as_ref())?;
                for (node, set) in rel_map {
                    table.insert(Context::of(node), Value::NodeSet(set));
                }
            }
            Expr::Filter { primary, predicates } => {
                self.eval_by_cnode_only(primary, x)?;
                // The primary's value at every domain node, evaluated once.
                let values = dom
                    .iter()
                    .map(|n| Ok((n, self.eval_single_context(primary, Context::of(n))?)))
                    .collect::<EvalResult<Vec<_>>>()?;
                if !by_position_only(predicates) {
                    // Predicates see the nodes of the primary's results.
                    let mut all_targets = NodeSet::new();
                    for (_, v) in &values {
                        if let Some(s) = v.as_node_set() {
                            all_targets.union_with(s);
                        }
                    }
                    self.tabulate_predicates(predicates, &all_targets)?;
                }
                for (n, v) in values {
                    let Some(set) = v.into_node_set() else {
                        return Err(EvalError::TypeMismatch(
                            "predicates require a node-set primary expression".into(),
                        ));
                    };
                    // Filter predicates count positions in document
                    // order, as a forward axis does.
                    let s = self.filter_candidates(Axis::Child, predicates, set.into_vec())?;
                    table.insert(Context::of(n), Value::NodeSet(NodeSet::from_sorted(s)));
                }
            }
            Expr::Number(v) => table.insert(Context::of(NodeId(0)), Value::Number(*v)),
            Expr::Literal(s) => table.insert(Context::of(NodeId(0)), Value::String(s.clone())),
            Expr::Var(name) => return Err(EvalError::UnboundVariable(name.clone())),
            Expr::Neg(inner) => {
                self.eval_by_cnode_only(inner, x)?;
                for n in dom.as_ref() {
                    let v = self.eval_single_context(inner, Context::of(n))?;
                    table.insert(Context::of(n), Value::Number(-v.to_number(self.doc)));
                }
            }
            Expr::Binary { op, left, right } => {
                self.eval_by_cnode_only(left, x)?;
                self.eval_by_cnode_only(right, x)?;
                for n in dom.as_ref() {
                    let l = self.eval_single_context(left, Context::of(n))?;
                    let r = self.eval_single_context(right, Context::of(n))?;
                    let v = match op {
                        BinaryOp::And => Value::Boolean(l.to_boolean() && r.to_boolean()),
                        BinaryOp::Or => Value::Boolean(l.to_boolean() || r.to_boolean()),
                        _ => apply_binary(self.doc, *op, l, r)?,
                    };
                    table.insert(Context::of(n), v);
                }
            }
            Expr::Call { name, args } => {
                for a in args {
                    self.eval_by_cnode_only(a, x)?;
                }
                for n in dom.as_ref() {
                    let ctx = Context::of(n);
                    let mut argv = Vec::with_capacity(args.len());
                    for a in args {
                        argv.push(self.eval_single_context(a, ctx)?);
                    }
                    table.insert(ctx, functions::apply(self.doc, name, &argv, &ctx)?);
                }
            }
        }
        self.tables.borrow_mut().insert(key_of(e), table);
        Ok(())
    }

    /// The context nodes a `{cn}`-relevant table must cover: `X` itself, or
    /// a single dummy row for expressions that ignore the context node.
    fn domain<'x>(&self, rel: Relev, x: &'x NodeSet) -> Cow<'x, NodeSet> {
        if rel.has_cn() {
            Cow::Borrowed(x)
        } else {
            Cow::Owned(NodeSet::singleton(NodeId(0)))
        }
    }

    /// Appendix A `eval_single_context`: value of `expr(N)` at one context.
    /// Requires `eval_by_cnode_only(N, X)` to have run with the context
    /// node covered by `X`.
    pub(crate) fn eval_single_context(&self, e: &Expr, ctx: Context) -> EvalResult<Value> {
        let rel = relev(e);
        if !rel.has_pos_or_size() {
            let tables = self.tables.borrow();
            let t = tables
                .get(&key_of(e))
                .unwrap_or_else(|| panic!("eval_by_cnode_only must precede eval_single_context"));
            return t
                .value_at(ctx)
                .cloned()
                .ok_or_else(|| EvalError::Capacity(format!("context {ctx} not covered by table")));
        }
        match e {
            Expr::Binary { op, left, right } => {
                let l = self.eval_single_context(left, ctx)?;
                let r = self.eval_single_context(right, ctx)?;
                match op {
                    BinaryOp::And => Ok(Value::Boolean(l.to_boolean() && r.to_boolean())),
                    BinaryOp::Or => Ok(Value::Boolean(l.to_boolean() || r.to_boolean())),
                    _ => apply_binary(self.doc, *op, l, r),
                }
            }
            Expr::Neg(inner) => {
                Ok(Value::Number(-self.eval_single_context(inner, ctx)?.to_number(self.doc)))
            }
            Expr::Call { name, args } => {
                let mut argv = Vec::with_capacity(args.len());
                for a in args {
                    argv.push(self.eval_single_context(a, ctx)?);
                }
                functions::apply(self.doc, name, &argv, &ctx)
            }
            // Paths/filters/constants are cn-only and handled above.
            _ => unreachable!("cp/cs-relevant expression of unexpected shape"),
        }
    }

    /// Appendix A `eval_inner_locpath`: the relation
    /// `{(x, y) | x ∈ X, y reachable via the path}` as a per-source map.
    fn eval_inner_locpath(
        &self,
        p: &LocationPath,
        x: &NodeSet,
    ) -> EvalResult<Vec<(NodeId, NodeSet)>> {
        let (starts, shared): (Vec<(NodeId, NodeSet)>, bool) = match &p.start {
            // expr(N) = /π: all sources map to the root's result.
            PathStart::Root => (vec![(self.doc.root(), NodeSet::singleton(self.doc.root()))], true),
            PathStart::ContextNode => {
                (x.iter().map(|n| (n, NodeSet::singleton(n))).collect(), false)
            }
            PathStart::Expr(head) => {
                self.eval_by_cnode_only(head, x)?;
                let mut v = Vec::with_capacity(x.len());
                for n in x {
                    let val = self.eval_single_context(head, Context::of(n))?;
                    let set = val.into_node_set().ok_or_else(|| {
                        EvalError::TypeMismatch("path start must evaluate to a node set".into())
                    })?;
                    v.push((n, set));
                }
                (v, false)
            }
        };
        let mut rel_map = starts;
        for step in &p.steps {
            self.eval_budget.check()?;
            // Frontier: the distinct target nodes.
            let mut frontier = NodeSet::new();
            for (_, set) in &rel_map {
                frontier.union_with(set);
            }
            if !by_position_only(&step.predicates) {
                let y = step_candidates_set(self.doc, step.axis, &step.test, &frontier);
                self.tabulate_predicates(&step.predicates, &y)?;
            }
            // Expand the step once per distinct frontier node.
            let mut expansion: HashMap<NodeId, NodeSet> = HashMap::new();
            for src in &frontier {
                let z = step_candidates(self.doc, step.axis, &step.test, src);
                let z = self.filter_candidates(step.axis, &step.predicates, z)?;
                expansion.insert(src, NodeSet::from_sorted(z));
            }
            // Compose.
            rel_map = rel_map
                .into_iter()
                .map(|(xsrc, set)| {
                    let mut acc = NodeSet::new();
                    for y in &set {
                        if let Some(t) = expansion.get(&y) {
                            acc.union_with(t);
                        }
                    }
                    (xsrc, acc)
                })
                .collect();
        }
        if shared {
            // Absolute path: duplicate the root's result for every source.
            let result = rel_map.first().map(|(_, s)| s.clone()).unwrap_or_default();
            return Ok(x.iter().map(|n| (n, result.clone())).collect());
        }
        Ok(rel_map)
    }
}

/// One side of a closed-form position bound: a number constant or
/// `last()`.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Term {
    Const(f64),
    Last,
}

impl Term {
    fn of(e: &Expr) -> Option<Term> {
        match e {
            Expr::Call { name, args } if name == "last" && args.is_empty() => Some(Term::Last),
            _ => constant(e).map(Term::Const),
        }
    }

    fn value(self, size: u32) -> f64 {
        match self {
            Term::Const(c) => c,
            Term::Last => f64::from(size),
        }
    }
}

/// A number literal, possibly negated.
fn constant(e: &Expr) -> Option<f64> {
    match e {
        Expr::Number(v) => Some(*v),
        Expr::Neg(inner) => constant(inner).map(|v| -v),
        _ => None,
    }
}

/// A predicate of the closed form `position() op R`: `op` one of
/// `= != < <= > >=` (either operand order) and `R` a [`Term`] or the sum
/// or difference of two. Its value depends only on the candidate's
/// position and the list's size, so [`PositionTest::retain`] decides it
/// for a whole candidate list at once.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct PositionTest {
    /// The comparison, oriented as `position() op R`.
    op: BinaryOp,
    /// `R`'s first term, and the `+`/`-` and second term if any.
    left: Term,
    right: Option<(BinaryOp, Term)>,
}

/// Classify `pred` as a closed-form position test. MinContext's predicate
/// loop and `--explain`'s `[by position]` tag both read this one
/// definition. Anything else, such as `position() mod 2 = 1`, is `None`
/// and runs per candidate.
pub(crate) fn position_test(pred: &Expr) -> Option<PositionTest> {
    let Expr::Binary { op, left, right } = pred else {
        return None;
    };
    if !op.is_relational() {
        return None;
    }
    let is_position =
        |e: &Expr| matches!(e, Expr::Call { name, args } if name == "position" && args.is_empty());
    let (op, bound) = if is_position(left) {
        (*op, right)
    } else if is_position(right) {
        (mirror(*op), left)
    } else {
        return None;
    };
    let (left, right) = match bound.as_ref() {
        Expr::Binary { op: arith @ (BinaryOp::Add | BinaryOp::Sub), left, right } => {
            (Term::of(left)?, Some((*arith, Term::of(right)?)))
        }
        other => (Term::of(other)?, None),
    };
    Some(PositionTest { op, left, right })
}

/// Whether every predicate of `preds` is a closed-form position test, so
/// the predicate loop reads no `{cn}` table and the candidate cover need
/// not be built.
pub(crate) fn by_position_only(preds: &[Expr]) -> bool {
    preds.iter().all(|p| position_test(p).is_some())
}

impl PositionTest {
    /// `R` for a candidate list of `size` nodes, computed as the
    /// interpreter computes it.
    fn bound(&self, size: u32) -> f64 {
        let l = self.left.value(size);
        match self.right {
            None => l,
            Some((BinaryOp::Add, r)) => l + r.value(size),
            Some((_, r)) => l - r.value(size),
        }
    }

    /// Keep the nodes of `z` (one non-empty candidate list in document
    /// order, positions counted along `axis`) whose position passes the
    /// test. The kept positions are found with `num_cmp` by binary
    /// search, so a fractional, zero, negative, out-of-range or NaN bound
    /// keeps exactly what per-candidate evaluation keeps.
    fn retain(&self, axis: Axis, z: &mut Vec<NodeId>) {
        let m = z.len() as u32;
        let r = self.bound(m);
        let holds = |op: BinaryOp, p: u32| num_cmp(op, f64::from(p), r);
        // The passing positions lo+1 ..= hi (`!=`: all but those).
        let (lo, hi) = match self.op {
            BinaryOp::Lt | BinaryOp::Le => (0, leading(m, |p| holds(self.op, p))),
            BinaryOp::Gt | BinaryOp::Ge => (leading(m, |p| !holds(self.op, p)), m),
            _ => (leading(m, |p| !holds(BinaryOp::Ge, p)), leading(m, |p| holds(BinaryOp::Le, p))),
        };
        let hi = hi.max(lo);
        // The same positions as indices into `z`: the inverse of
        // `position_of`, which counts reverse axes from the back.
        let (a, b) = if axis.is_forward() { (lo, hi) } else { (m - hi, m - lo) };
        let (a, b) = (a as usize, b as usize);
        debug_assert!(
            a == b || {
                let ends = [position_of(axis, a, z.len()), position_of(axis, b - 1, z.len())];
                ends.contains(&(lo + 1)) && ends.contains(&hi)
            }
        );
        if self.op == BinaryOp::Ne {
            z.drain(a..b);
        } else {
            z.truncate(b);
            z.drain(..a);
        }
    }
}

/// The number of leading positions of `1..=m` for which `f` holds, `f`
/// being true up to some position and false after it.
fn leading(m: u32, f: impl Fn(u32) -> bool) -> u32 {
    let (mut lo, mut hi) = (0, m);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if f(mid + 1) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Convenience: evaluate a query string with MinContext.
pub fn evaluate_str(doc: &Document, query: &str, ctx: Context) -> EvalResult<Value> {
    let e =
        xpath_syntax::parse_normalized(query).map_err(|err| EvalError::Parse(err.to_string()))?;
    MinContextEvaluator::new(doc).evaluate(&e, ctx)
}

impl<'d> MinContextEvaluator<'d> {
    /// Install `table` for subexpression `e` — OptMinContext's hook
    /// ("subexpressions that have already been evaluated bottom-up are not
    /// evaluated again", Algorithm 11.1).
    pub(crate) fn seed_table(&self, e: &Expr, table: CvTable) {
        self.tables.borrow_mut().insert(key_of(e), table);
    }

    /// Like [`MinContextEvaluator::evaluate`] but without clearing the
    /// table store, so bottom-up seeds survive.
    pub(crate) fn evaluate_with_seeds(&self, query: &Expr, ctx: Context) -> EvalResult<Value> {
        let start = NodeSet::singleton(ctx.node);
        if let Expr::Path(p) = query {
            let out = self.eval_outermost_locpath(p, &start, ctx)?;
            return Ok(Value::NodeSet(out));
        }
        self.eval_by_cnode_only(query, &start)?;
        self.eval_single_context(query, ctx)
    }

    /// The document this evaluator runs over.
    pub(crate) fn document(&self) -> &'d Document {
        self.doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::NaiveEvaluator;
    use xpath_syntax::parse_normalized;
    use xpath_xml::generate::{doc_bookstore, doc_figure8, doc_flat, doc_flat_text};

    #[test]
    fn example_8_1_query() {
        // The §8 running example: Q over the Figure 8 document for context
        // ⟨x10, 1, 1⟩ = {x13, x14, x21, x22, x23, x24}.
        let d = doc_figure8();
        let v = evaluate_str(
            &d,
            "/descendant::*/descendant::*[position() > last() * 0.5 or string(self::*) = '100']",
            Context::of(d.element_by_id("10").unwrap()),
        )
        .unwrap();
        let expect: Vec<NodeId> = ["13", "14", "21", "22", "23", "24"]
            .iter()
            .map(|i| d.element_by_id(i).unwrap())
            .collect();
        assert_eq!(v, Value::NodeSet(expect.into()));
    }

    #[test]
    fn example_8_4_candidate_narrowing() {
        // §8.4: after /descendant::*/descendant::*, the candidate set is
        // {x11..x24}; predicate E5 keeps 6 of the 8.
        let d = doc_figure8();
        let v = evaluate_str(&d, "/descendant::*/descendant::*", Context::of(d.root())).unwrap();
        assert_eq!(v.as_node_set().unwrap().len(), 8);
    }

    #[test]
    fn agrees_with_naive_on_corpus() {
        let docs = [doc_flat(4), doc_flat_text(3), doc_figure8(), doc_bookstore()];
        let queries = [
            "//a/b",
            "//b[2]",
            "//b[last()]",
            "//*[parent::a/child::* = 'c']",
            "//a/b[count(parent::a/b) > 1]",
            "count(//b/following::b)",
            "(//c | //d)[2]",
            "id('12 24')/parent::*",
            "//*[@id = '22']",
            "sum(//d) + count(//c)",
            "//section/book[2]/title",
            "//book[author/last = 'Koch']/@id",
            "//d/ancestor::b",
            "//b[preceding-sibling::b][following-sibling::b]",
            "//*[position() = last()]",
            "string(//book[1]/title)",
            "//d[not(following-sibling::*)]",
            "//c/following::d",
        ];
        for d in &docs {
            for q in queries {
                let e = parse_normalized(q).unwrap();
                let naive = NaiveEvaluator::new(d).evaluate(&e, Context::of(d.root())).unwrap();
                let mc = MinContextEvaluator::new(d).evaluate(&e, Context::of(d.root())).unwrap();
                assert!(naive.semantically_equal(&mc), "query {q} on {d:?}: {naive:?} vs {mc:?}");
            }
        }
    }

    #[test]
    fn polynomial_on_antagonist_queries() {
        let d = doc_flat(2);
        let mut q = String::from("//a/b");
        for _ in 0..40 {
            q.push_str("/parent::a/b");
        }
        let v = evaluate_str(&d, &q, Context::of(d.root())).unwrap();
        assert_eq!(v.as_node_set().unwrap().len(), 2);
    }

    #[test]
    fn scalar_query() {
        let d = doc_flat(7);
        let v = evaluate_str(&d, "count(//b) * 2", Context::of(d.root())).unwrap();
        assert_eq!(v, Value::Number(14.0));
    }

    #[test]
    fn position_loop_inside_inner_path() {
        // Inner location path whose predicate needs the (p, s) loop.
        let d = doc_flat(5);
        let q = "//b[count(parent::a/b[position() != last()]) = 4]";
        let e = parse_normalized(q).unwrap();
        let naive = NaiveEvaluator::new(&d).evaluate(&e, Context::of(d.root())).unwrap();
        let mc = MinContextEvaluator::new(&d).evaluate(&e, Context::of(d.root())).unwrap();
        assert!(naive.semantically_equal(&mc));
        assert_eq!(mc.as_node_set().unwrap().len(), 5);
    }

    /// The predicate of `/child::a[p]` as the compiler rewrites it.
    fn predicate(p: &str) -> Expr {
        let e = crate::query::Compiler::new().parse(&format!("/child::a[{p}]")).unwrap();
        let Expr::Path(path) = e else { panic!("{p}: not a path") };
        path.steps[0].predicates[0].clone()
    }

    #[test]
    fn closed_form_position_tests_are_classified() {
        for p in [
            "3",
            "-1",
            "1.5",
            "last()",
            "last() - 1",
            "position() = last() + 1",
            "1 + last() > position()",
            "position() < 2.5",
            "position() != last()",
            "2 >= position()",
        ] {
            assert!(position_test(&predicate(p)).is_some(), "{p} is closed-form");
        }
        for p in [
            "position() mod 2 = 1",
            "position() = last() div 2",
            "position() = count(b)",
            "position() = position()",
            "@x",
            "position() = 1 and @x",
            "last() = 3",
        ] {
            assert!(position_test(&predicate(p)).is_none(), "{p} runs per candidate");
        }
    }

    #[test]
    fn closed_form_matches_per_candidate_evaluation() {
        // Every comparison against edge-case bounds, decided by index,
        // against the same predicate run through the interpreter per
        // candidate (a `{cp,cs}` conjunct that always holds hides the
        // closed form from the classifier).
        let d = doc_flat(6);
        let ops = ["=", "!=", "<", "<=", ">", ">="];
        let bounds = ["0", "-2", "1", "3.5", "6", "7", "0 div 0", "1 div 0", "last() - 1.5"];
        for op in ops {
            for r in bounds {
                for axis in ["child::b", "preceding-sibling::b"] {
                    let base = if axis == "child::b" { "/a" } else { "/a/b[last()]" };
                    let fast = format!("{base}/{axis}[position() {op} {r}]");
                    let slow = format!("{base}/{axis}[position() {op} {r} and last() > 0]");
                    let run = |q: &str| {
                        let e = crate::query::Compiler::new().parse(q).unwrap();
                        MinContextEvaluator::new(&d).evaluate(&e, Context::of(d.root())).unwrap()
                    };
                    assert_eq!(run(&fast), run(&slow), "{fast}");
                }
            }
        }
    }
}
