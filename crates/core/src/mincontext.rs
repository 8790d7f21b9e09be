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
//!    context node rather than materialized in tables.
//!
//! The four procedures below mirror the Appendix A pseudocode:
//! `eval_outermost_locpath`, `eval_by_cnode_only`, `eval_single_context`
//! and `eval_inner_locpath`. Theorem 8.6: time `O(|D|⁴·|Q|²)`, space
//! `O(|D|²·|Q|²)`.

use std::cell::RefCell;
use std::collections::HashMap;

use xpath_syntax::{BinaryOp, Expr, LocationPath, PathStart, Step};
use xpath_xml::{Document, NodeId};

use crate::bottomup::CvTable;
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
    /// bulk axis engine, then predicates either per node (cn-only) or in
    /// the (p, s) loop.
    fn outermost_step(&self, step: &Step, x: &NodeSet, _ctx: Context) -> EvalResult<NodeSet> {
        self.eval_budget.check()?;
        // Y := nodes reachable from X via χ::t.
        let y = step_candidates_set(self.doc, step.axis, &step.test, x);
        for pred in &step.predicates {
            self.eval_by_cnode_only(pred, &y)?;
        }
        if step.predicates.iter().all(|p| !relev(p).has_pos_or_size()) {
            // Fast path: no predicate inspects cp/cs — filter Y directly.
            let mut r = Vec::with_capacity(y.len());
            'outer: for node in &y {
                for pred in &step.predicates {
                    let v = self.eval_single_context(pred, Context::of(node))?;
                    if !predicate_holds(&v, 1) {
                        continue 'outer;
                    }
                }
                r.push(node);
            }
            Ok(NodeSet::from_sorted(r))
        } else {
            // (p, s) loop over pairs of previous/current context node.
            let mut r: Vec<NodeId> = Vec::new();
            for src in x {
                let mut z = step_candidates(self.doc, step.axis, &step.test, src);
                for pred in &step.predicates {
                    let m = z.len();
                    let mut kept = Vec::with_capacity(m);
                    for (j, &node) in z.iter().enumerate() {
                        let pos = position_of(step.axis, j, m);
                        let v = self
                            .eval_single_context(pred, Context::new(node, pos, m.max(1) as u32))?;
                        if predicate_holds(&v, pos) {
                            kept.push(node);
                        }
                    }
                    z = kept;
                }
                r.extend(z);
            }
            Ok(NodeSet::from_unsorted(r))
        }
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
        // Relev(N) ⊆ {cn}: build table(N).
        let mut table = CvTable::new(rel);
        match e {
            Expr::Path(p) => {
                let rel_map = self.eval_inner_locpath(p, x)?;
                for (node, set) in rel_map {
                    table.insert(Context::of(node), Value::NodeSet(set));
                }
            }
            Expr::Filter { primary, predicates } => {
                self.eval_by_cnode_only(primary, x)?;
                // Predicates see the nodes of the primary's results.
                let mut all_targets = NodeSet::new();
                for n in x {
                    let v = self.eval_single_context(primary, Context::of(n))?;
                    if let Some(s) = v.as_node_set() {
                        all_targets.union_with(s);
                    }
                }
                for pred in predicates {
                    self.eval_by_cnode_only(pred, &all_targets)?;
                }
                for n in x {
                    let v = self.eval_single_context(primary, Context::of(n))?;
                    let Some(set) = v.into_node_set() else {
                        return Err(EvalError::TypeMismatch(
                            "predicates require a node-set primary expression".into(),
                        ));
                    };
                    let mut s = set.into_vec();
                    for pred in predicates {
                        let m = s.len();
                        let mut kept = Vec::with_capacity(m);
                        for (j, &node) in s.iter().enumerate() {
                            let pos = (j + 1) as u32;
                            let v = self.eval_single_context(
                                pred,
                                Context::new(node, pos, m.max(1) as u32),
                            )?;
                            if predicate_holds(&v, pos) {
                                kept.push(node);
                            }
                        }
                        s = kept;
                    }
                    table.insert(Context::of(n), Value::NodeSet(NodeSet::from_sorted(s)));
                }
            }
            Expr::Number(v) => table.insert(Context::of(NodeId(0)), Value::Number(*v)),
            Expr::Literal(s) => table.insert(Context::of(NodeId(0)), Value::String(s.clone())),
            Expr::Var(name) => return Err(EvalError::UnboundVariable(name.clone())),
            Expr::Neg(inner) => {
                self.eval_by_cnode_only(inner, x)?;
                for n in self.domain(rel, x) {
                    let v = self.eval_single_context(inner, Context::of(n))?;
                    table.insert(Context::of(n), Value::Number(-v.to_number(self.doc)));
                }
            }
            Expr::Binary { op, left, right } => {
                self.eval_by_cnode_only(left, x)?;
                self.eval_by_cnode_only(right, x)?;
                for n in self.domain(rel, x) {
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
                for n in self.domain(rel, x) {
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
    /// a single dummy row for constant expressions.
    fn domain(&self, rel: Relev, x: &NodeSet) -> NodeSet {
        if rel.has_cn() {
            x.clone()
        } else {
            NodeSet::singleton(NodeId(0))
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
            // Expand the step once per distinct frontier node.
            let mut expansion: HashMap<NodeId, NodeSet> = HashMap::new();
            for pred in &step.predicates {
                let y = step_candidates_set(self.doc, step.axis, &step.test, &frontier);
                self.eval_by_cnode_only(pred, &y)?;
            }
            for src in &frontier {
                let mut z = step_candidates(self.doc, step.axis, &step.test, src);
                for pred in &step.predicates {
                    let m = z.len();
                    let mut kept = Vec::with_capacity(m);
                    for (j, &node) in z.iter().enumerate() {
                        let pos = position_of(step.axis, j, m);
                        let v = self
                            .eval_single_context(pred, Context::new(node, pos, m.max(1) as u32))?;
                        if predicate_holds(&v, pos) {
                            kept.push(node);
                        }
                    }
                    z = kept;
                }
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
}
