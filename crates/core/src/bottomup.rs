//! Bottom-up evaluation of XPath (paper §6): the **context-value table
//! principle** and Algorithm 6.3.
//!
//! For every subexpression of the query — traversing the parse tree from
//! the leaves to the root — the evaluator materializes a *context-value
//! table* holding the expression's value for **every** context, so no
//! subexpression is ever evaluated twice for the same context. This gives
//! the polynomial combined-complexity bound of Theorem 6.6
//! (`O(|D|⁵·|Q|²)` time, improvable per Remark 6.7).
//!
//! Tables are keyed by the *relevant* projection of the context (footnote 8
//! / §8.2): a table for `position() != last()` has `O(|D|²)` rows keyed by
//! `(k, n)`; a table for a relative location path has `O(|D|)` rows keyed
//! by the context node. This is exactly the reduction the paper applies in
//! Example 6.4 ("the k and n columns have been omitted ... full tables are
//! obtained by computing the Cartesian product").
//!
//! The hallmark of the bottom-up strategy — and why §7 then derives the
//! top-down algorithm — is that tables are computed for all of `dom` even
//! where only a few contexts are reachable.

use std::collections::HashMap;

use xpath_syntax::{BinaryOp, Expr, LocationPath, PathStart, Step};
use xpath_xml::{Document, NodeId};

use crate::context::{Context, EvalBudget, EvalError, EvalResult};
use crate::eval_common::{apply_binary, position_of, predicate_holds, step_candidates};
use crate::functions;
use crate::nodeset::NodeSet;
use crate::relev::{relev, Relev};
use crate::value::Value;

/// A context-value table: the relation `E↑[[e]]` restricted to the relevant
/// context components (Definition 6.1, Table IV).
///
/// Tables whose relevance is a subset of `{cn}` — the overwhelming
/// majority after the footnote-8 reduction — are stored as a **dense
/// vector indexed by the projected node key** (`x + 1`, with slot 0 for
/// constant rows), so lookups on the hot path are an array access instead
/// of a hash probe. The bottom-up evaluator enumerates all of `dom`, so
/// its tables fill that vector contiguously; if a minimal-context caller
/// populates only a sparse subset of nodes (MinContext covers reachable
/// candidates only), the table spills back to the keyed map rather than
/// allocating `O(|dom|)` slots — preserving the §8 space behaviour.
/// Tables that depend on `cp`/`cs` always use the keyed map.
#[derive(Clone, Debug)]
pub struct CvTable {
    relev: Relev,
    rows: Rows,
}

#[derive(Clone, Debug)]
enum Rows {
    /// `Relev ⊆ {cn}` and densely filled: indexed by `project(ctx).0`.
    ByNode { slots: Vec<Option<Value>>, filled: usize },
    /// `cp`/`cs`-relevant tables, and sparse cn-only tables after a
    /// spill: keyed by the full projection.
    Keyed(HashMap<(u32, u32, u32), Value>),
}

/// Spill policy for cn-only tables, with **hysteresis**. The dense layout
/// is clearly winning while ≥ ~1/4 of the slots are filled, but spilling
/// is one-way (a spilled table never re-densifies — flipping back would
/// re-copy every row and invite thrash), so the spill trigger is set much
/// looser: a table spills to the keyed map only when growing to `i + 1`
/// slots would leave **less than ~1/16** of them filled (beyond a flat
/// 64-slot allowance). A minimal-context caller filling rows in ascending
/// id order at a moderate stride — the MinContext frontier pattern, which
/// hovers near the 1/4 mark — therefore settles into the dense layout
/// instead of spilling the table it just grew (the spill→re-densify
/// thrash this guard exists for); only genuinely sparse fills (< 1/16)
/// pay the one-time spill.
fn spill_to_keyed(i: usize, filled: usize) -> bool {
    i >= 16 * (filled + 1) + 64
}

impl CvTable {
    /// An empty table keyed by the given relevance projection.
    pub fn new(relev: Relev) -> CvTable {
        let rows = if relev.is_cn_only() {
            Rows::ByNode { slots: Vec::new(), filled: 0 }
        } else {
            Rows::Keyed(HashMap::new())
        };
        CvTable { relev, rows }
    }

    /// Record the value at (the relevant projection of) `ctx`.
    pub fn insert(&mut self, ctx: Context, v: Value) {
        let key = self.relev.project(ctx);
        self.insert_key(key, v);
    }

    fn insert_key(&mut self, key: (u32, u32, u32), v: Value) {
        if let Rows::ByNode { slots, filled } = &mut self.rows {
            let i = key.0 as usize;
            if i >= slots.len() && spill_to_keyed(i, *filled) {
                // Sparse fill pattern: spill to the keyed map so table
                // size tracks rows, not the largest node id.
                let spilled: HashMap<(u32, u32, u32), Value> = slots
                    .drain(..)
                    .enumerate()
                    .filter_map(|(j, v)| v.map(|v| ((j as u32, 0, 0), v)))
                    .collect();
                self.rows = Rows::Keyed(spilled);
            }
        }
        match &mut self.rows {
            Rows::ByNode { slots, filled } => {
                let i = key.0 as usize;
                if i >= slots.len() {
                    slots.resize(i + 1, None);
                }
                if slots[i].is_none() {
                    *filled += 1;
                }
                slots[i] = Some(v);
            }
            Rows::Keyed(m) => {
                m.insert(key, v);
            }
        }
    }

    /// The value of the expression at `ctx`, if the context was enumerated.
    pub fn value_at(&self, ctx: Context) -> Option<&Value> {
        let key = self.relev.project(ctx);
        match &self.rows {
            Rows::ByNode { slots, .. } => slots.get(key.0 as usize).and_then(Option::as_ref),
            Rows::Keyed(m) => m.get(&key),
        }
    }

    /// Iterate the materialized `(projected key, value)` rows.
    fn iter_rows(&self) -> RowIter<'_> {
        match &self.rows {
            Rows::ByNode { slots, .. } => Box::new(
                slots
                    .iter()
                    .enumerate()
                    .filter_map(|(i, v)| v.as_ref().map(|v| ((i as u32, 0, 0), v))),
            ),
            Rows::Keyed(m) => Box::new(m.iter().map(|(&k, v)| (k, v))),
        }
    }

    /// Number of materialized rows.
    pub fn len(&self) -> usize {
        match &self.rows {
            Rows::ByNode { filled, .. } => *filled,
            Rows::Keyed(m) => m.len(),
        }
    }

    /// Tables always have at least one row.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The relevance set this table is keyed by.
    pub fn relevance(&self) -> Relev {
        self.relev
    }

    /// Is the table currently in the dense slot layout? (Exposed for the
    /// spill-policy regression tests and table-size diagnostics.)
    pub fn rows_dense(&self) -> bool {
        matches!(self.rows, Rows::ByNode { .. })
    }
}

/// Iterator over a table's materialized rows (see [`CvTable::iter_rows`]).
type RowIter<'a> = Box<dyn Iterator<Item = ((u32, u32, u32), &'a Value)> + 'a>;

/// The bottom-up evaluator (Algorithm 6.3).
pub struct BottomUpEvaluator<'d> {
    doc: &'d Document,
    /// Maximum rows per context-value table; exceeded → [`EvalError::Capacity`].
    row_cap: usize,
    /// Deadline/cancellation budget, polled before every table pass.
    eval_budget: EvalBudget,
}

impl<'d> BottomUpEvaluator<'d> {
    /// Default row cap: 2 million rows per table.
    pub fn new(doc: &'d Document) -> Self {
        BottomUpEvaluator { doc, row_cap: 2_000_000, eval_budget: EvalBudget::unlimited() }
    }

    /// Attach a deadline/cancellation [`EvalBudget`], polled before every
    /// context-value table pass (each an `O(|D|·…)` unit, so a trip costs
    /// at most one more pass).
    #[must_use]
    pub fn with_eval_budget(mut self, budget: EvalBudget) -> Self {
        self.eval_budget = budget;
        self
    }

    /// Evaluator with a custom per-table row cap.
    pub fn with_row_cap(doc: &'d Document, row_cap: usize) -> Self {
        BottomUpEvaluator { row_cap, ..BottomUpEvaluator::new(doc) }
    }

    /// Evaluate `query` at `ctx` by building the full context-value tables
    /// bottom-up and reading the result out of the root table
    /// (Theorem 6.2: the value at `ctx` is the unique `v` with
    /// `⟨x,k,n,v⟩ ∈ E↑[[e]]`).
    pub fn evaluate(&self, query: &Expr, ctx: Context) -> EvalResult<Value> {
        let t = self.table(query)?;
        t.value_at(ctx)
            .cloned()
            .ok_or_else(|| EvalError::Capacity(format!("context {ctx} not enumerated")))
    }

    /// Compute `E↑[[e]]` — public so tests can replicate the tables of
    /// Example 6.4 and Figure 9.
    pub fn table(&self, e: &Expr) -> EvalResult<CvTable> {
        match e {
            Expr::Number(v) => Ok(self.const_table(Value::Number(*v))),
            Expr::Literal(s) => Ok(self.const_table(Value::String(s.clone()))),
            Expr::Var(name) => Err(EvalError::UnboundVariable(name.clone())),
            Expr::Path(p) => self.path_table(p),
            Expr::Filter { primary, predicates } => self.filter_table(primary, predicates),
            Expr::Neg(inner) => {
                let t = self.table(inner)?;
                let mut out = CvTable::new(t.relev);
                for (k, v) in t.iter_rows() {
                    out.insert_key(k, Value::Number(-v.to_number(self.doc)));
                }
                Ok(out)
            }
            Expr::Binary { op, left, right } => {
                let lt = self.table(left)?;
                let rt = self.table(right)?;
                let rel = relev(e);
                let contexts = self.contexts_for(rel)?;
                self.fill_table(rel, &contexts, |ctx| {
                    let l = lt.value_at(ctx).expect("child table covers context").clone();
                    let r = rt.value_at(ctx).expect("child table covers context").clone();
                    match op {
                        BinaryOp::And => Ok(Value::Boolean(l.to_boolean() && r.to_boolean())),
                        BinaryOp::Or => Ok(Value::Boolean(l.to_boolean() || r.to_boolean())),
                        _ => apply_binary(self.doc, *op, l, r),
                    }
                })
            }
            Expr::Call { name, args } => {
                let arg_tables: Vec<CvTable> =
                    args.iter().map(|a| self.table(a)).collect::<Result<_, _>>()?;
                let rel = relev(e);
                let contexts = self.contexts_for(rel)?;
                self.fill_table(rel, &contexts, |ctx| {
                    let argv: Vec<Value> = arg_tables
                        .iter()
                        .map(|t| t.value_at(ctx).expect("child table covers context").clone())
                        .collect();
                    functions::apply(self.doc, name, &argv, &ctx)
                })
            }
        }
    }

    /// Fill a table over `contexts` by evaluating `row` per context, in
    /// context order.
    fn fill_table(
        &self,
        rel: Relev,
        contexts: &[Context],
        row: impl Fn(Context) -> EvalResult<Value>,
    ) -> EvalResult<CvTable> {
        self.eval_budget.check()?;
        let mut out = CvTable::new(rel);
        for &ctx in contexts {
            out.insert(ctx, row(ctx)?);
        }
        Ok(out)
    }

    fn const_table(&self, v: Value) -> CvTable {
        let mut t = CvTable::new(Relev::NONE);
        t.insert_key((0, 0, 0), v);
        t
    }

    /// Enumerate the contexts spanning the relevant components: all of
    /// `dom` for `cn`, all `1 ≤ k ≤ n ≤ |dom|` for `cp`/`cs`.
    fn contexts_for(&self, rel: Relev) -> EvalResult<Vec<Context>> {
        let n = self.doc.len() as u32;
        let nodes: Vec<NodeId> =
            if rel.has_cn() { self.doc.all_nodes().collect() } else { vec![NodeId(0)] };
        let positions: Vec<(u32, u32)> = match (rel.has_cp(), rel.has_cs()) {
            (false, false) => vec![(1, 1)],
            (true, false) => (1..=n).map(|k| (k, n)).collect(),
            (false, true) => (1..=n).map(|s| (1, s)).collect(),
            (true, true) => {
                let mut v = Vec::with_capacity((n * (n + 1) / 2) as usize);
                for s in 1..=n {
                    for k in 1..=s {
                        v.push((k, s));
                    }
                }
                v
            }
        };
        let count = nodes.len() * positions.len();
        if count > self.row_cap {
            return Err(EvalError::Capacity(format!(
                "table would need {count} rows (cap {}); |D| = {}",
                self.row_cap,
                self.doc.len()
            )));
        }
        let mut out = Vec::with_capacity(count);
        for &x in &nodes {
            for &(k, s) in &positions {
                out.push(Context::new(x, k, s));
            }
        }
        Ok(out)
    }

    /// `E↑` for location paths (Table IV): compute, for **every** node of
    /// the document, the set reachable via the path — the bottom-up
    /// hallmark.
    fn path_table(&self, p: &LocationPath) -> EvalResult<CvTable> {
        // Per-step tables S_i : dom → 2^dom with predicates already applied
        // (positional per-node lists; see `step_table`).
        let step_tables: Vec<Vec<Vec<NodeId>>> =
            p.steps.iter().map(|s| self.step_table(s)).collect::<Result<_, _>>()?;
        // Fold right-to-left: R_i(x) = ∪_{y ∈ S_i(x)} R_{i+1}(y). `None`
        // stands for the identity frontier R(x) = {x}, so the first folded
        // step materializes its per-node lists directly instead of
        // unioning singletons one at a time.
        let n = self.doc.len();
        let mut reach: Option<Vec<NodeSet>> = None;
        for st in step_tables.iter().rev() {
            self.eval_budget.check()?;
            let prev = reach.take();
            let next: Vec<NodeSet> = (0..n)
                .map(|x| match &prev {
                    None => {
                        // Copy through the recycling shelves: the
                        // frontier sets churn once per fold pass.
                        let mut v = xpath_xml::pool::take_ids();
                        v.extend_from_slice(&st[x]);
                        NodeSet::from_sorted(v)
                    }
                    Some(r) => {
                        // Pre-size the accumulator: when the summed
                        // input sizes clear the dense threshold, start
                        // dense so the unions are word-parallel
                        // instead of repeated vector merges
                        // (quadratic on wide step results).
                        let bound: usize = st[x].iter().map(|&y| r[y.index()].len()).sum();
                        let mut acc =
                            if bound as u64 * NodeSet::DENSE_DEN >= n as u64 * NodeSet::DENSE_NUM {
                                NodeSet::empty_dense(n as u32)
                            } else {
                                NodeSet::new()
                            };
                        for &y in &st[x] {
                            acc.union_with(&r[y.index()]);
                        }
                        acc.adapt()
                    }
                })
                .collect();
            reach = Some(next);
        }
        // The per-step candidate lists are dead once the fold finishes:
        // recycle them so the next pass (or evaluation) reuses the
        // buffers instead of reallocating per row.
        for st in step_tables {
            for row in st {
                xpath_xml::pool::give_ids(row);
            }
        }
        match &p.start {
            PathStart::Root => {
                // E↑[[/π]] = C × {S | ⟨root, k, n, S⟩ ∈ E↑[[π]]}.
                let root = self.doc.root();
                let at_root = match &reach {
                    Some(r) => r[root.index()].clone(),
                    None => NodeSet::singleton(root),
                };
                Ok(self.const_table(Value::NodeSet(at_root)))
            }
            PathStart::ContextNode => {
                let mut t = CvTable::new(Relev::CN);
                match reach {
                    // Move each reach set into its row instead of cloning
                    // (the frontier is dead after this loop).
                    Some(r) => {
                        for (i, set) in r.into_iter().enumerate() {
                            t.insert(Context::of(NodeId(i as u32)), Value::NodeSet(set));
                        }
                    }
                    None => {
                        for x in self.doc.all_nodes() {
                            t.insert(Context::of(x), Value::NodeSet(NodeSet::singleton(x)));
                        }
                    }
                }
                Ok(t)
            }
            PathStart::Expr(head) => {
                let ht = self.table(head)?;
                let mut t = CvTable::new(ht.relev);
                for (key, v) in ht.iter_rows() {
                    let Some(set) = v.as_node_set() else {
                        return Err(EvalError::TypeMismatch(
                            "path start must evaluate to a node set".into(),
                        ));
                    };
                    let acc = match &reach {
                        Some(r) => {
                            let mut acc = NodeSet::new();
                            for y in set {
                                acc.union_with(&r[y.index()]);
                            }
                            acc
                        }
                        None => set.clone(),
                    };
                    t.insert_key(key, Value::NodeSet(acc));
                }
                Ok(t)
            }
        }
    }

    /// The table of one location step `χ::t[e1]…[em]`: for every node `x`,
    /// the candidate set with all predicates applied (Table IV's
    /// "location step E[e] over axis χ" row, iterated over the predicates).
    /// Per-node lists stay plain vectors: predicate evaluation is
    /// positional (`<doc,χ` indexing).
    fn step_table(&self, step: &Step) -> EvalResult<Vec<Vec<NodeId>>> {
        self.eval_budget.check()?;
        let pred_tables: Vec<CvTable> =
            step.predicates.iter().map(|e| self.table(e)).collect::<Result<_, _>>()?;
        self.doc.all_nodes().map(|x| self.step_row(step, &pred_tables, x)).collect()
    }

    /// One row of [`BottomUpEvaluator::step_table`]: the candidate set of
    /// `x` with every predicate applied positionally.
    fn step_row(&self, step: &Step, pred_tables: &[CvTable], x: NodeId) -> EvalResult<Vec<NodeId>> {
        let mut s = step_candidates(self.doc, step.axis, &step.test, x);
        for pt in pred_tables {
            let len = s.len();
            let mut kept = xpath_xml::pool::take_ids();
            kept.reserve(len);
            for (j, &y) in s.iter().enumerate() {
                let pos = position_of(step.axis, j, len);
                let ctx = Context::new(y, pos, len.max(1) as u32);
                let v = pt
                    .value_at(ctx)
                    .ok_or_else(|| EvalError::Capacity(format!("missing context {ctx}")))?;
                if predicate_holds(v, pos) {
                    kept.push(y);
                }
            }
            xpath_xml::pool::give_ids(std::mem::replace(&mut s, kept));
        }
        Ok(s)
    }

    /// Filter expressions `(e)[p1]…[pm]` evaluated table-wise.
    fn filter_table(&self, primary: &Expr, predicates: &[Expr]) -> EvalResult<CvTable> {
        let base = self.table(primary)?;
        let pred_tables: Vec<CvTable> =
            predicates.iter().map(|e| self.table(e)).collect::<Result<_, _>>()?;
        let mut out = CvTable::new(base.relev);
        for (key, v) in base.iter_rows() {
            let Some(set) = v.as_node_set() else {
                return Err(EvalError::TypeMismatch(
                    "predicates require a node-set primary expression".into(),
                ));
            };
            // Positional filtering over the document-ordered list.
            let mut s: Vec<NodeId> = set.to_vec();
            for pt in &pred_tables {
                let len = s.len();
                let mut kept = xpath_xml::pool::take_ids();
                kept.reserve(len);
                for (j, &y) in s.iter().enumerate() {
                    let pos = (j + 1) as u32;
                    let ctx = Context::new(y, pos, len.max(1) as u32);
                    let v = pt
                        .value_at(ctx)
                        .ok_or_else(|| EvalError::Capacity(format!("missing context {ctx}")))?;
                    if predicate_holds(v, pos) {
                        kept.push(y);
                    }
                }
                xpath_xml::pool::give_ids(std::mem::replace(&mut s, kept));
            }
            out.insert_key(key, Value::NodeSet(NodeSet::from_sorted(s)));
        }
        Ok(out)
    }
}

/// Convenience: evaluate a query string bottom-up.
pub fn evaluate_str(doc: &Document, query: &str, ctx: Context) -> EvalResult<Value> {
    let e =
        xpath_syntax::parse_normalized(query).map_err(|err| EvalError::Parse(err.to_string()))?;
    BottomUpEvaluator::new(doc).evaluate(&e, ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::NaiveEvaluator;
    use xpath_syntax::parse_normalized;
    use xpath_xml::generate::{doc_figure8, doc_flat, doc_flat_text};

    #[test]
    fn example_6_4_tables_and_result() {
        // DOC(4): dom = {r, a, b1..b4}; query
        // descendant::b/following-sibling::*[position() != last()].
        let d = doc_flat(4);
        let a = d.document_element().unwrap();
        let bs: Vec<NodeId> = d.children(a).collect();
        let ev = BottomUpEvaluator::new(&d);

        // E1 = descendant::b : at r and a the full {b1..b4}, at b's ∅.
        let e1 = parse_normalized("descendant::b").unwrap();
        let t1 = ev.table(&e1).unwrap();
        assert_eq!(t1.value_at(Context::of(d.root())).unwrap(), &Value::NodeSet(bs.clone().into()));
        assert_eq!(t1.value_at(Context::of(a)).unwrap(), &Value::NodeSet(bs.clone().into()));
        assert_eq!(t1.value_at(Context::of(bs[0])).unwrap(), &Value::NodeSet(vec![].into()));

        // E3 = following-sibling::* : b1 → {b2,b3,b4}, b2 → {b3,b4}, …
        let e3 = parse_normalized("following-sibling::*").unwrap();
        let t3 = ev.table(&e3).unwrap();
        assert_eq!(
            t3.value_at(Context::of(bs[0])).unwrap(),
            &Value::NodeSet(bs[1..].to_vec().into())
        );
        assert_eq!(t3.value_at(Context::of(bs[2])).unwrap(), &Value::NodeSet(vec![bs[3]].into()));
        assert_eq!(t3.value_at(Context::of(bs[3])).unwrap(), &Value::NodeSet(vec![].into()));

        // E4 = position() != last() : table keyed by (k, n).
        let e4 = parse_normalized("position() != last()").unwrap();
        let t4 = ev.table(&e4).unwrap();
        assert_eq!(t4.relevance(), Relev::CP.union(Relev::CS));
        assert_eq!(t4.value_at(Context::new(d.root(), 2, 3)).unwrap(), &Value::Boolean(true));
        assert_eq!(t4.value_at(Context::new(d.root(), 3, 3)).unwrap(), &Value::Boolean(false));

        // E2 = E3[E4] : b1 → {b2,b3} (the paper's most interesting step).
        let q = parse_normalized("following-sibling::*[position() != last()]").unwrap();
        let t2 = ev.table(&q).unwrap();
        assert_eq!(
            t2.value_at(Context::of(bs[0])).unwrap(),
            &Value::NodeSet(vec![bs[1], bs[2]].into())
        );
        assert_eq!(t2.value_at(Context::of(bs[1])).unwrap(), &Value::NodeSet(vec![bs[2]].into()));

        // Full query from context ⟨a,1,1⟩ = {b2, b3}.
        let full =
            parse_normalized("descendant::b/following-sibling::*[position() != last()]").unwrap();
        let v = ev.evaluate(&full, Context::of(a)).unwrap();
        assert_eq!(v, Value::NodeSet(vec![bs[1], bs[2]].into()));
    }

    #[test]
    fn example_8_1_query() {
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
    fn agrees_with_naive_on_corpus() {
        let docs = [doc_flat(4), doc_flat_text(3), doc_figure8()];
        let queries = [
            "//a/b",
            "//b[2]",
            "//*[parent::a/child::* = 'c']",
            "//a/b[count(parent::a/b) > 1]",
            "count(//b)",
            "(//c | //d)[2]",
            "id('12 24')",
            "//d/ancestor::b",
            "//b[position() = last()]",
            "sum(//d) + 1",
        ];
        for d in &docs {
            for q in queries {
                let e = parse_normalized(q).unwrap();
                let naive = NaiveEvaluator::new(d).evaluate(&e, Context::of(d.root())).unwrap();
                let bu = BottomUpEvaluator::new(d).evaluate(&e, Context::of(d.root())).unwrap();
                assert!(naive.semantically_equal(&bu), "query {q}: {naive:?} vs {bu:?}");
            }
        }
    }

    #[test]
    fn cn_table_hysteresis_keeps_moderate_stride_fills_dense() {
        // A minimal-context caller filling rows in ascending id order at
        // a moderate stride hovers near the old ~1/4 spill mark; with the
        // hysteresis guard it must settle into the dense layout.
        let mut t = CvTable::new(Relev::CN);
        let stride = 12u32;
        for f in 0..2000u32 {
            t.insert(Context::of(NodeId(f * stride)), Value::Number(f as f64));
        }
        assert!(t.rows_dense(), "1/12-density ascending fill must stay dense");
        assert_eq!(t.len(), 2000);
        assert_eq!(t.value_at(Context::of(NodeId(13 * stride))), Some(&Value::Number(13.0)));
        assert_eq!(t.value_at(Context::of(NodeId(5))), None);
    }

    #[test]
    fn cn_table_sparse_fill_spills_once_and_stays_keyed() {
        let mut t = CvTable::new(Relev::CN);
        let stride = 500u32;
        for f in 0..200u32 {
            t.insert(Context::of(NodeId(f * stride)), Value::Number(f as f64));
        }
        assert!(!t.rows_dense(), "1/500-density fill must spill to the keyed map");
        assert_eq!(t.len(), 200);
        // Every row — including those inserted while still dense — is
        // preserved across the spill, and later dense-ish inserts do not
        // flip the table back (spilling is one-way).
        for f in [0u32, 1, 42, 199] {
            assert_eq!(
                t.value_at(Context::of(NodeId(f * stride))),
                Some(&Value::Number(f as f64)),
                "row {f} lost in spill"
            );
        }
        for i in 0..64u32 {
            t.insert(Context::of(NodeId(i)), Value::Boolean(true));
        }
        assert!(!t.rows_dense());
        assert_eq!(t.len(), 200 + 63, "id 0 overwrote the stride row");
    }

    #[test]
    fn capacity_guard() {
        let d = doc_flat(200);
        let ev = BottomUpEvaluator::with_row_cap(&d, 1000);
        // position() over a 202-node document needs only 202 rows → fine.
        let e = parse_normalized("//b[position() != last()]").unwrap();
        // (k,n) pairs = 202*203/2 ≈ 20503 > 1000 → capacity error.
        assert!(matches!(ev.evaluate(&e, Context::of(d.root())), Err(EvalError::Capacity(_))));
        // With the default cap it succeeds.
        let ev = BottomUpEvaluator::new(&d);
        let v = ev.evaluate(&e, Context::of(d.root())).unwrap();
        assert_eq!(v.as_node_set().unwrap().len(), 199);
    }

    #[test]
    fn polynomial_on_experiment1_family() {
        let d = doc_flat(2);
        let mut q = String::from("//a/b");
        for _ in 0..25 {
            q.push_str("/parent::a/b");
        }
        let v = evaluate_str(&d, &q, Context::of(d.root())).unwrap();
        assert_eq!(v.as_node_set().unwrap().len(), 2);
    }
}
