//! Top-down evaluation of XPath (paper §7, Figure 7).
//!
//! The bottom-up algorithm of §6 computes many context-value-table rows that
//! are never used. The top-down algorithm keeps the context-value-table
//! *principle* — every subexpression is evaluated at most once per distinct
//! context — but computes only reachable contexts, by **vector computation**:
//!
//! * `S↓ : LocationPath → List(2^dom) → List(2^dom)` maps a list of
//!   node sets to the list of result node sets (Figure 7);
//! * `E↓ : Expression → List(C) → List(XPathType)` evaluates an expression
//!   simultaneously for a whole list of contexts, applying each operator's
//!   vectorized form `Op⟨⟩` pointwise.
//!
//! Worst-case `O(|D|⁴·|Q|²)` time and `O(|D|³·|Q|²)` space (Theorem 7.5);
//! the context lists are deduplicated before recursive calls, which is what
//! makes the bound hold.

use std::collections::HashMap;

use xpath_syntax::{Axis, BinaryOp, Expr, LocationPath, PathStart, Step};
use xpath_xml::{Document, NodeId};

use crate::context::{Context, EvalBudget, EvalError, EvalResult};
use crate::eval_common::{apply_binary, position_of, predicate_holds, step_candidates};
use crate::functions;
use crate::nodeset::NodeSet;
use crate::value::Value;

/// The top-down vectorized evaluator.
pub struct TopDownEvaluator<'d> {
    doc: &'d Document,
    /// Deadline/cancellation budget, polled before every vectorized
    /// location step (each an `O(|D|·l)` unit).
    eval_budget: EvalBudget,
}

impl<'d> TopDownEvaluator<'d> {
    /// Create an evaluator over `doc`.
    pub fn new(doc: &'d Document) -> Self {
        TopDownEvaluator { doc, eval_budget: EvalBudget::unlimited() }
    }

    /// Attach a deadline/cancellation [`EvalBudget`], polled before every
    /// vectorized location step.
    #[must_use]
    pub fn with_eval_budget(mut self, budget: EvalBudget) -> Self {
        self.eval_budget = budget;
        self
    }

    /// Evaluate `query` in a single context.
    pub fn evaluate(&self, query: &Expr, ctx: Context) -> EvalResult<Value> {
        let mut v = self.e_down(query, &[ctx])?;
        Ok(v.pop().expect("one context in, one value out"))
    }

    /// `E↓[[e]](c1, …, cl)` (Definition 7.1).
    pub fn e_down(&self, e: &Expr, ctxs: &[Context]) -> EvalResult<Vec<Value>> {
        match e {
            // E↓[[π]](⟨x1,k1,n1⟩,…) := S↓[[π]]({x1}, …, {xl}).
            Expr::Path(p) => {
                let singletons: Vec<NodeSet> =
                    ctxs.iter().map(|c| NodeSet::singleton(c.node)).collect();
                let sets = self.s_down_path(p, singletons, ctxs)?;
                Ok(sets.into_iter().map(Value::NodeSet).collect())
            }
            Expr::Filter { primary, predicates } => {
                let base = self.e_down(primary, ctxs)?;
                let mut sets = Vec::with_capacity(base.len());
                for v in base {
                    sets.push(v.into_node_set().ok_or_else(|| {
                        EvalError::TypeMismatch(
                            "predicates require a node-set primary expression".into(),
                        )
                    })?);
                }
                let sets = self.filter_sets_forward(sets, predicates)?;
                Ok(sets.into_iter().map(Value::NodeSet).collect())
            }
            Expr::Number(v) => Ok(vec![Value::Number(*v); ctxs.len()]),
            Expr::Literal(s) => Ok(vec![Value::String(s.clone()); ctxs.len()]),
            Expr::Var(name) => Err(EvalError::UnboundVariable(name.clone())),
            Expr::Neg(inner) => {
                let vs = self.e_down(inner, ctxs)?;
                Ok(vs.into_iter().map(|v| Value::Number(-v.to_number(self.doc))).collect())
            }
            // F[[Op]]⟨⟩ — pointwise application of the effective semantics.
            Expr::Binary { op, left, right } => {
                let ls = self.e_down(left, ctxs)?;
                let rs = self.e_down(right, ctxs)?;
                ls.into_iter()
                    .zip(rs)
                    .map(|(l, r)| match op {
                        BinaryOp::And => Ok(Value::Boolean(l.to_boolean() && r.to_boolean())),
                        BinaryOp::Or => Ok(Value::Boolean(l.to_boolean() || r.to_boolean())),
                        _ => apply_binary(self.doc, *op, l, r),
                    })
                    .collect()
            }
            Expr::Call { name, args } => {
                let mut arg_vecs: Vec<Vec<Value>> = Vec::with_capacity(args.len());
                for a in args {
                    arg_vecs.push(self.e_down(a, ctxs)?);
                }
                ctxs.iter()
                    .enumerate()
                    .map(|(i, c)| {
                        let argv: Vec<Value> = arg_vecs.iter().map(|col| col[i].clone()).collect();
                        functions::apply(self.doc, name, &argv, c)
                    })
                    .collect()
            }
        }
    }

    /// `S↓[[π]](X1, …, Xk)` (Figure 7). `ctxs` carries the originating
    /// contexts so a `PathStart::Expr` head can be evaluated.
    fn s_down_path(
        &self,
        p: &LocationPath,
        inputs: Vec<NodeSet>,
        ctxs: &[Context],
    ) -> EvalResult<Vec<NodeSet>> {
        let start_sets: Vec<NodeSet> = match &p.start {
            // S↓[[/π]](X1,…,Xk) := S↓[[π]]({root}, …, {root}).
            PathStart::Root => vec![NodeSet::singleton(self.doc.root()); inputs.len()],
            PathStart::ContextNode => inputs,
            PathStart::Expr(head) => {
                let vs = self.e_down(head, ctxs)?;
                let mut sets = Vec::with_capacity(vs.len());
                for v in vs {
                    sets.push(v.into_node_set().ok_or_else(|| {
                        EvalError::TypeMismatch("path start must evaluate to a node set".into())
                    })?);
                }
                sets
            }
        };
        self.s_down_steps(&p.steps, start_sets)
    }

    /// Composition of location steps: `S↓[[π1/π2]] = S↓[[π2]] ∘ S↓[[π1]]`.
    fn s_down_steps(&self, steps: &[Step], mut sets: Vec<NodeSet>) -> EvalResult<Vec<NodeSet>> {
        for step in steps {
            sets = self.location_step(step, &sets)?;
        }
        Ok(sets)
    }

    /// One location step `χ::t[e1]…[em]` on a vector of input sets —
    /// the core of Figure 7.
    fn location_step(&self, step: &Step, inputs: &[NodeSet]) -> EvalResult<Vec<NodeSet>> {
        self.eval_budget.check()?;
        // S := {⟨x, y⟩ | x ∈ ∪Xi, x χ y, y ∈ T(t)} — grouped by x. The
        // union of the input vector accumulates in-place on the hybrid set.
        let mut xs = NodeSet::new();
        for set in inputs {
            xs.union_with(set);
        }
        // S_x for each distinct source node, in document order (positional
        // per-group lists stay plain vectors for the predicate loop).
        let mut groups: Vec<(NodeId, Vec<NodeId>)> =
            xs.iter().map(|x| (x, step_candidates(self.doc, step.axis, &step.test, x))).collect();
        // Predicates in ascending order, each evaluated over the deduplicated
        // context list T (the vector computation).
        for pred in &step.predicates {
            groups = self.filter_groups(step.axis, groups, pred)?;
        }
        // R_i := {y | ⟨x, y⟩ ∈ S, x ∈ Xi}.
        let by_x: HashMap<NodeId, &Vec<NodeId>> = groups.iter().map(|(x, sx)| (*x, sx)).collect();
        let mut outputs = Vec::with_capacity(inputs.len());
        for xi in inputs {
            let mut r: Vec<NodeId> = Vec::new();
            for x in xi {
                if let Some(sx) = by_x.get(&x) {
                    r.extend_from_slice(sx);
                }
            }
            outputs.push(NodeSet::from_unsorted(r));
        }
        Ok(outputs)
    }

    /// Apply one predicate to every group: build the deduplicated context
    /// list `T = {CtS(x,y)}`, evaluate `E↓[[e]](t1,…,tl)` once, then filter.
    fn filter_groups(
        &self,
        axis: Axis,
        groups: Vec<(NodeId, Vec<NodeId>)>,
        pred: &Expr,
    ) -> EvalResult<Vec<(NodeId, Vec<NodeId>)>> {
        let mut t: Vec<Context> = Vec::new();
        let mut index: HashMap<Context, usize> = HashMap::new();
        let mut group_ctx: Vec<Vec<usize>> = Vec::with_capacity(groups.len());
        for (_, sx) in &groups {
            let len = sx.len();
            let mut idxs = Vec::with_capacity(len);
            for (j, &y) in sx.iter().enumerate() {
                let c = Context::new(y, position_of(axis, j, len), len.max(1) as u32);
                let id = *index.entry(c).or_insert_with(|| {
                    t.push(c);
                    t.len() - 1
                });
                idxs.push(id);
            }
            group_ctx.push(idxs);
        }
        let rs = self.e_down(pred, &t)?;
        let mut out = Vec::with_capacity(groups.len());
        for ((x, sx), idxs) in groups.into_iter().zip(group_ctx) {
            let kept: Vec<NodeId> = sx
                .into_iter()
                .zip(idxs)
                .filter(|&(_, ci)| predicate_holds(&rs[ci], t[ci].position))
                .map(|(y, _)| y)
                .collect();
            out.push((x, kept));
        }
        Ok(out)
    }

    /// Filter-expression predicates: forward positions within each set,
    /// with the same batched predicate evaluation.
    fn filter_sets_forward(
        &self,
        mut sets: Vec<NodeSet>,
        predicates: &[Expr],
    ) -> EvalResult<Vec<NodeSet>> {
        for pred in predicates {
            let mut t: Vec<Context> = Vec::new();
            let mut index: HashMap<Context, usize> = HashMap::new();
            let mut set_ctx: Vec<Vec<usize>> = Vec::with_capacity(sets.len());
            for s in &sets {
                let len = s.len();
                let mut idxs = Vec::with_capacity(len);
                for (j, y) in s.iter().enumerate() {
                    let c = Context::new(y, (j + 1) as u32, len.max(1) as u32);
                    let id = *index.entry(c).or_insert_with(|| {
                        t.push(c);
                        t.len() - 1
                    });
                    idxs.push(id);
                }
                set_ctx.push(idxs);
            }
            let rs = self.e_down(pred, &t)?;
            sets = sets
                .into_iter()
                .zip(set_ctx)
                .map(|(s, idxs)| {
                    s.into_iter()
                        .zip(idxs)
                        .filter(|&(_, ci)| predicate_holds(&rs[ci], t[ci].position))
                        .map(|(y, _)| y)
                        .collect()
                })
                .collect();
        }
        Ok(sets)
    }
}

/// Convenience: evaluate a query string with the top-down evaluator.
pub fn evaluate_str(doc: &Document, query: &str, ctx: Context) -> EvalResult<Value> {
    let e =
        xpath_syntax::parse_normalized(query).map_err(|err| EvalError::Parse(err.to_string()))?;
    TopDownEvaluator::new(doc).evaluate(&e, ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::NaiveEvaluator;
    use xpath_syntax::parse_normalized;
    use xpath_xml::generate::{doc_bookstore, doc_figure8, doc_flat, doc_flat_text};

    fn run(doc: &Document, q: &str) -> Value {
        evaluate_str(doc, q, Context::of(doc.root())).unwrap_or_else(|e| panic!("{q}: {e}"))
    }

    #[test]
    fn example_7_3() {
        // Same query as Example 6.4: over DOC(4) with context ⟨a,1,1⟩,
        // descendant::b/following-sibling::*[position() != last()] = {b2,b3}.
        let d = doc_flat(4);
        let a = d.document_element().unwrap();
        let v = evaluate_str(
            &d,
            "descendant::b/following-sibling::*[position() != last()]",
            Context::of(a),
        )
        .unwrap();
        let bs: Vec<NodeId> = d.children(a).collect();
        assert_eq!(v, Value::NodeSet(vec![bs[1], bs[2]].into()));
    }

    #[test]
    fn example_7_2_shape() {
        let d = doc_figure8();
        // The Example 7.2 query (adapted labels exist in Figure 8): it must
        // evaluate without error and agree with the naive oracle.
        let q = "/descendant::b[count(descendant::c/child::d) + position() < last()]/child::d";
        let e = parse_normalized(q).unwrap();
        let td = TopDownEvaluator::new(&d).evaluate(&e, Context::of(d.root())).unwrap();
        let nv = NaiveEvaluator::new(&d).evaluate(&e, Context::of(d.root())).unwrap();
        assert_eq!(td, nv);
    }

    #[test]
    fn example_8_1_query() {
        let d = doc_figure8();
        let v = run(
            &d,
            "/descendant::*/descendant::*[position() > last() * 0.5 or string(self::*) = '100']",
        );
        let expect: Vec<NodeId> = ["13", "14", "21", "22", "23", "24"]
            .iter()
            .map(|i| d.element_by_id(i).unwrap())
            .collect();
        assert_eq!(v, Value::NodeSet(expect.into()));
    }

    #[test]
    fn agrees_with_naive_on_corpus() {
        let docs = [doc_flat(4), doc_flat_text(3), doc_figure8(), doc_bookstore()];
        let queries = [
            "//a/b",
            "//b[1]",
            "//b[last()]",
            "//*[parent::a/child::* = 'c']",
            "//a/b[count(parent::a/b) > 1]",
            "count(//b/following::b)",
            "//b//d",
            "(//c | //d)[2]",
            "id('12 24')",
            "//*[@id = '22']/parent::*",
            "sum(//d)",
            "//*[position() = last()]",
            "//section/book[2]/title",
            "//book[author/last = 'Koch']/@id",
            "//*[starts-with(name(), 'b')]",
            "string(//book[1]/title)",
            "//b[preceding-sibling::b]",
            "//d/ancestor::b",
            "//c/following::d",
            "//d[not(following-sibling::*)]",
        ];
        for d in &docs {
            for q in queries {
                let e = parse_normalized(q).unwrap();
                let naive = NaiveEvaluator::new(d).evaluate(&e, Context::of(d.root())).unwrap();
                let td = TopDownEvaluator::new(d).evaluate(&e, Context::of(d.root())).unwrap();
                assert!(naive.semantically_equal(&td), "query {q} on {d:?}: {naive:?} vs {td:?}");
            }
        }
    }

    #[test]
    fn experiment1_is_polynomial_here() {
        // The antagonist Experiment-1 query family that is exponential for
        // the naive evaluator runs instantly top-down even at depth 40.
        let d = doc_flat(2);
        let mut q = String::from("//a/b");
        for _ in 0..40 {
            q.push_str("/parent::a/b");
        }
        let v = run(&d, &q);
        assert_eq!(v.as_node_set().unwrap().len(), 2);
    }

    #[test]
    fn deep_following_chain() {
        let d = doc_flat(20);
        let q = format!("count(//b{})", "/following::b".repeat(10));
        // Each following step keeps the suffix; count = number of b's
        // reachable via 10 following steps = 20 - 10 = 10 from the first b.
        let v = run(&d, &q);
        assert_eq!(v, Value::Number(10.0));
    }

    #[test]
    fn vectorized_positions_inside_nested_predicates() {
        let d = doc_bookstore();
        let e = parse_normalized("//section[book[2][@year > 2000]]/@name").unwrap();
        let td = TopDownEvaluator::new(&d).evaluate(&e, Context::of(d.root())).unwrap();
        let nv = NaiveEvaluator::new(&d).evaluate(&e, Context::of(d.root())).unwrap();
        assert_eq!(td, nv);
        assert_eq!(td.to_xpath_string(&d), "databases");
    }
}
