//! The exponential-time baseline evaluator (paper §2).
//!
//! A faithful Rust implementation of the `process-location-step` pseudocode
//! the paper gives as the model of XALAN, XT, Saxon and IE6:
//!
//! ```text
//! procedure process-location-step(n0, Q)
//!   node set S := apply Q.head to node n0;
//!   if (Q.tail is not empty) then
//!     for each node n ∈ S do process-location-step(n, Q.tail);
//! ```
//!
//! Each location step applied to a context node may yield `O(|D|)` nodes,
//! and the recursion multiplies: `Time(|Q|) = |D|^|Q|` in the worst case.
//! This evaluator exists as the experimental baseline (Experiments 1–5,
//! "Xalan classic" in Table V) and as the semantics oracle for differential
//! tests at small sizes. An optional **step budget** bounds runaway
//! evaluations the way the paper's experiments bounded wall-clock time.

use std::cell::Cell;

use xpath_syntax::{BinaryOp, Expr, LocationPath, PathStart, Step};
use xpath_xml::{Document, NodeId};

use crate::context::{Context, EvalBudget, EvalError, EvalResult};
use crate::eval_common::{apply_binary, position_of, predicate_holds, step_candidates};
use crate::functions;
use crate::nodeset::NodeSet;
use crate::value::Value;

/// The naive recursive evaluator.
pub struct NaiveEvaluator<'d> {
    doc: &'d Document,
    budget: Option<Cell<u64>>,
    /// Deadline/cancellation budget, polled at every location-step
    /// application (the same granularity as the step budget).
    eval_budget: EvalBudget,
    /// Number of location-step applications performed (for the complexity
    /// assertions in tests and the experiment harness).
    steps_applied: Cell<u64>,
}

impl<'d> NaiveEvaluator<'d> {
    /// Evaluator without a step budget.
    pub fn new(doc: &'d Document) -> Self {
        NaiveEvaluator {
            doc,
            budget: None,
            eval_budget: EvalBudget::unlimited(),
            steps_applied: Cell::new(0),
        }
    }

    /// Evaluator that fails with [`EvalError::BudgetExhausted`] after
    /// `budget` location-step applications.
    pub fn with_budget(doc: &'d Document, budget: u64) -> Self {
        let mut e = Self::new(doc);
        e.budget = Some(Cell::new(budget));
        e
    }

    /// Attach a deadline/cancellation [`EvalBudget`]; evaluation fails
    /// with [`EvalError::DeadlineExceeded`] / [`EvalError::Cancelled`] at
    /// the next location step after the budget trips.
    #[must_use]
    pub fn with_eval_budget(mut self, budget: EvalBudget) -> Self {
        self.eval_budget = budget;
        self
    }

    /// Location-step applications performed so far.
    pub fn steps_applied(&self) -> u64 {
        self.steps_applied.get()
    }

    /// Evaluate `query` in context `ctx` (Definition 5.1).
    pub fn evaluate(&self, query: &Expr, ctx: Context) -> EvalResult<Value> {
        self.eval(query, ctx)
    }

    fn charge(&self) -> EvalResult<()> {
        self.steps_applied.set(self.steps_applied.get() + 1);
        self.eval_budget.check()?;
        if let Some(b) = &self.budget {
            let left = b.get();
            if left == 0 {
                return Err(EvalError::BudgetExhausted);
            }
            b.set(left - 1);
        }
        Ok(())
    }

    fn eval(&self, e: &Expr, ctx: Context) -> EvalResult<Value> {
        match e {
            Expr::Path(p) => Ok(Value::NodeSet(self.eval_path(p, ctx)?)),
            Expr::Filter { primary, predicates } => {
                let base = self.eval(primary, ctx)?;
                let Some(set) = base.into_node_set() else {
                    return Err(EvalError::TypeMismatch(
                        "predicates require a node-set primary expression".into(),
                    ));
                };
                let set = self.filter_forward(set.into_vec(), predicates, ctx)?;
                Ok(Value::NodeSet(NodeSet::from_sorted(set)))
            }
            Expr::Binary { op: BinaryOp::And, left, right } => {
                // Short-circuit like real processors.
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
            Expr::Neg(inner) => {
                let v = self.eval(inner, ctx)?;
                Ok(Value::Number(-v.to_number(self.doc)))
            }
            Expr::Literal(s) => Ok(Value::String(s.clone())),
            Expr::Number(v) => Ok(Value::Number(*v)),
            Expr::Var(name) => Err(EvalError::UnboundVariable(name.clone())),
            Expr::Call { name, args } => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a, ctx)?);
                }
                functions::apply(self.doc, name, &vals, &ctx)
            }
        }
    }

    /// `P[[π]]` (Figure 5) with the naive per-node recursion of §2.
    fn eval_path(&self, p: &LocationPath, ctx: Context) -> EvalResult<NodeSet> {
        let starts: NodeSet = match &p.start {
            PathStart::Root => NodeSet::singleton(self.doc.root()),
            PathStart::ContextNode => NodeSet::singleton(ctx.node),
            PathStart::Expr(e) => {
                let v = self.eval(e, ctx)?;
                v.into_node_set().ok_or_else(|| {
                    EvalError::TypeMismatch("path start must evaluate to a node set".into())
                })?
            }
        };
        let mut out = Vec::new();
        for x in starts {
            self.process_location_step(&p.steps, x, &mut out)?;
        }
        Ok(NodeSet::from_unsorted(out))
    }

    /// The paper's `process-location-step`: apply the head step to one
    /// context node, then recurse **per result node**.
    fn process_location_step(
        &self,
        steps: &[Step],
        n0: NodeId,
        out: &mut Vec<NodeId>,
    ) -> EvalResult<()> {
        let Some(step) = steps.first() else {
            out.push(n0);
            return Ok(());
        };
        self.charge()?;
        let mut s = step_candidates(self.doc, step.axis, &step.test, n0);
        for pred in &step.predicates {
            s = self.filter_with_axis(&s, step.axis, pred)?;
        }
        for n in s {
            self.process_location_step(&steps[1..], n, out)?;
        }
        Ok(())
    }

    /// Apply one predicate over a step-result set, with positions counted
    /// along `<doc,χ` (Figure 5: `idx_χ(y, S)`).
    fn filter_with_axis(
        &self,
        s: &[NodeId],
        axis: xpath_syntax::Axis,
        pred: &Expr,
    ) -> EvalResult<Vec<NodeId>> {
        let len = s.len();
        let mut kept = Vec::with_capacity(len);
        for (j, &y) in s.iter().enumerate() {
            let pos = position_of(axis, j, len);
            let v = self.eval(pred, Context::new(y, pos, len.max(1) as u32))?;
            if predicate_holds(&v, pos) {
                kept.push(y);
            }
        }
        Ok(kept)
    }

    /// Filter-expression predicates use forward (document-order) positions.
    fn filter_forward(
        &self,
        mut set: Vec<NodeId>,
        predicates: &[Expr],
        _ctx: Context,
    ) -> EvalResult<Vec<NodeId>> {
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
        Ok(set)
    }
}

/// Convenience: evaluate a query string with the naive evaluator.
pub fn evaluate_str(doc: &Document, query: &str, ctx: Context) -> EvalResult<Value> {
    let e =
        xpath_syntax::parse_normalized(query).map_err(|err| EvalError::Parse(err.to_string()))?;
    NaiveEvaluator::new(doc).evaluate(&e, ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpath_syntax::parse_normalized;
    use xpath_xml::generate::{doc_figure8, doc_flat, doc_flat_text};

    fn run(doc: &Document, q: &str) -> Value {
        let ctx = Context::of(doc.root());
        evaluate_str(doc, q, ctx).unwrap_or_else(|e| panic!("{q}: {e}"))
    }

    fn run_at(doc: &Document, q: &str, node: NodeId) -> Value {
        evaluate_str(doc, q, Context::of(node)).unwrap_or_else(|e| panic!("{q}: {e}"))
    }

    fn set(v: &Value) -> &NodeSet {
        v.as_node_set().expect("node set")
    }

    #[test]
    fn simple_paths_doc2() {
        let d = doc_flat(2);
        assert_eq!(set(&run(&d, "//a/b")).len(), 2);
        assert_eq!(set(&run(&d, "//b")).len(), 2);
        assert_eq!(set(&run(&d, "/a")).len(), 1);
        assert_eq!(set(&run(&d, "//a/b/parent::a/b")).len(), 2);
        assert_eq!(set(&run(&d, "/")).len(), 1);
    }

    #[test]
    fn example_6_4_query() {
        // descendant::b/following-sibling::*[position() != last()] over
        // DOC(4) with input context ⟨a, 1, 1⟩ evaluates to {b2, b3}.
        let d = doc_flat(4);
        let a = d.document_element().unwrap();
        let v = run_at(&d, "descendant::b/following-sibling::*[position() != last()]", a);
        let bs: Vec<NodeId> = d.children(a).collect();
        assert_eq!(set(&v), &vec![bs[1], bs[2]]);
    }

    #[test]
    fn example_8_1_query() {
        // /descendant::*/descendant::*[position() > last()*0.5 or
        // string(self::*) = '100'] over Figure 8 = {x13,x14,x21,x22,x23,x24}.
        let d = doc_figure8();
        let v = run(
            &d,
            "/descendant::*/descendant::*[position() > last() * 0.5 or string(self::*) = '100']",
        );
        let expect: Vec<NodeId> = ["13", "14", "21", "22", "23", "24"]
            .iter()
            .map(|i| d.element_by_id(i).unwrap())
            .collect();
        assert_eq!(set(&v), &expect);
    }

    #[test]
    fn example_11_2_query() {
        let d = doc_figure8();
        let v = run(
            &d,
            "/child::a/descendant::*[boolean(following::d[(position() != last()) and \
             (preceding-sibling::*/preceding::* = 100)]/following::d)]",
        );
        let expect: Vec<NodeId> =
            ["11", "12", "13", "14", "22"].iter().map(|i| d.element_by_id(i).unwrap()).collect();
        assert_eq!(set(&v), &expect);
    }

    #[test]
    fn experiment2_queries() {
        let d = doc_flat_text(3);
        let v = run(&d, "//*[parent::a/child::* = 'c']");
        assert_eq!(set(&v).len(), 3, "all b's qualify");
        let v = run(&d, "//*[parent::a/child::*[parent::a/child::* = 'c'] = 'c']");
        assert_eq!(set(&v).len(), 3);
    }

    #[test]
    fn experiment3_queries() {
        let d = doc_flat(2);
        let v = run(&d, "//a/b[count(parent::a/b) > 1]");
        assert_eq!(set(&v).len(), 2);
        let d1 = doc_flat(1);
        let v = run(&d1, "//a/b[count(parent::a/b) > 1]");
        assert_eq!(set(&v).len(), 0);
    }

    #[test]
    fn positional_predicates() {
        let d = doc_flat(4);
        let a = d.document_element().unwrap();
        let bs: Vec<NodeId> = d.children(a).collect();
        assert_eq!(set(&run(&d, "//b[1]")), &vec![bs[0]]);
        assert_eq!(set(&run(&d, "//b[4]")), &vec![bs[3]]);
        assert_eq!(set(&run(&d, "//b[5]")).len(), 0);
        assert_eq!(set(&run(&d, "//b[last()]")), &vec![bs[3]]);
        assert_eq!(set(&run(&d, "//b[position() = last() - 1]")), &vec![bs[2]]);
        // Reverse axis: preceding-sibling positions count backwards.
        let v = run_at(&d, "preceding-sibling::b[1]", bs[3]);
        assert_eq!(set(&v), &vec![bs[2]]);
        let v = run_at(&d, "preceding-sibling::b[3]", bs[3]);
        assert_eq!(set(&v), &vec![bs[0]]);
    }

    #[test]
    fn arithmetic_and_functions() {
        let d = doc_flat(4);
        assert_eq!(run(&d, "count(//b)"), Value::Number(4.0));
        assert_eq!(run(&d, "count(//b) * 2 + 1"), Value::Number(9.0));
        assert_eq!(run(&d, "concat('n=', string(count(//b)))"), Value::String("n=4".into()));
        assert_eq!(run(&d, "boolean(//b)"), Value::Boolean(true));
        assert_eq!(run(&d, "boolean(//zzz)"), Value::Boolean(false));
    }

    #[test]
    fn union_operator() {
        let d = doc_figure8();
        let v = run(&d, "//c | //d");
        assert_eq!(set(&v).len(), 6);
    }

    #[test]
    fn filter_expression() {
        let d = doc_figure8();
        let v = run(&d, "(//c | //d)[2]");
        assert_eq!(set(&v), &vec![d.element_by_id("13").unwrap()]);
        let v = run(&d, "(//c | //d)[last()]");
        assert_eq!(set(&v), &vec![d.element_by_id("24").unwrap()]);
    }

    #[test]
    fn id_function_path() {
        let d = doc_figure8();
        let v = run(&d, "id('12 24')");
        assert_eq!(set(&v), &vec![d.element_by_id("12").unwrap(), d.element_by_id("24").unwrap()]);
        let v = run(&d, "id('14')/parent::*");
        assert_eq!(set(&v), &vec![d.element_by_id("11").unwrap()]);
    }

    #[test]
    fn attribute_axis() {
        let d = doc_figure8();
        let v = run(&d, "//*[@id = '22']");
        assert_eq!(set(&v), &vec![d.element_by_id("22").unwrap()]);
        let v = run(&d, "count(//@id)");
        assert_eq!(v, Value::Number(9.0));
    }

    #[test]
    fn budget_exhaustion() {
        let d = doc_flat(2);
        // Deeply antagonist query with a tiny budget must abort.
        let q = "//a/b/parent::a/b/parent::a/b/parent::a/b/parent::a/b";
        let e = xpath_syntax::parse_normalized(q).unwrap();
        let ev = NaiveEvaluator::with_budget(&d, 5);
        assert_eq!(ev.evaluate(&e, Context::of(d.root())), Err(EvalError::BudgetExhausted));
    }

    #[test]
    fn exponential_step_growth_experiment1() {
        // The §2 recurrence: each '/parent::a/b' suffix roughly doubles the
        // number of location-step applications on DOC(2).
        let d = doc_flat(2);
        let mut counts = Vec::new();
        for k in 0..6 {
            let mut q = String::from("//a/b");
            for _ in 0..k {
                q.push_str("/parent::a/b");
            }
            let e = parse_normalized(&q).unwrap();
            let ev = NaiveEvaluator::new(&d);
            ev.evaluate(&e, Context::of(d.root())).unwrap();
            counts.push(ev.steps_applied());
        }
        for w in counts.windows(2) {
            let ratio = w[1] as f64 / w[0] as f64;
            assert!(ratio > 1.5, "expected ~2x growth, got {counts:?}");
        }
    }

    #[test]
    fn descendant_or_self_shortcut() {
        let d = doc_figure8();
        let v = run(&d, "//b//d");
        assert_eq!(set(&v).len(), 3);
    }

    #[test]
    fn text_nodes() {
        let d = doc_flat_text(2);
        assert_eq!(run(&d, "count(//text())"), Value::Number(2.0));
        assert_eq!(run(&d, "string(//text())"), Value::String("c".into()));
    }
}
