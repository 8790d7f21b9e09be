//! **OptMinContext** (paper §11.2, Algorithm 11.1): the combined query
//! processor.
//!
//! * Supports all of XPath with the MinContext bounds (Theorem 8.6);
//! * queries in the linear-time **Core XPath** fragment take the
//!   `O(|D|·|Q|)` algebraic route (Corollary 11.5);
//! * subexpressions of the **Extended Wadler** shape — `boolean(π)` /
//!   `π RelOp c` — are evaluated bottom-up by backward propagation,
//!   innermost first, and their tables are seeded into MinContext so they
//!   are "not evaluated again" (Corollary 11.4: linear space, quadratic
//!   time for such subexpressions).

use xpath_syntax::Expr;
use xpath_xml::{Document, NodeId};

use crate::context::{Context, EvalBudget, EvalResult};
use crate::corexpath::{self, CoreXPathEvaluator};
use crate::mincontext::MinContextEvaluator;
use crate::value::Value;
use crate::wadler::bottomup_candidate;

/// Execution report: which routes Algorithm 11.1 took (exposed so tests and
/// benches can assert the dispatch).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OptReport {
    /// The whole query ran through the linear-time Core XPath algebra.
    pub used_core_xpath: bool,
    /// Number of subexpressions evaluated bottom-up (backward propagation).
    pub bottomup_paths: usize,
}

/// The OptMinContext evaluator.
pub struct OptMinContextEvaluator<'d> {
    doc: &'d Document,
    /// Deadline/cancellation budget, forwarded to whichever route the
    /// dispatch takes (the Core XPath fast path or seeded MinContext).
    eval_budget: EvalBudget,
}

impl<'d> OptMinContextEvaluator<'d> {
    /// Create an evaluator over `doc`.
    pub fn new(doc: &'d Document) -> Self {
        OptMinContextEvaluator { doc, eval_budget: EvalBudget::unlimited() }
    }

    /// Attach a deadline/cancellation [`EvalBudget`]: both dispatch routes
    /// poll it at their pass boundaries.
    #[must_use]
    pub fn with_eval_budget(mut self, budget: EvalBudget) -> Self {
        self.eval_budget = budget;
        self
    }

    /// Evaluate `query` at `ctx` (Algorithm 11.1).
    pub fn evaluate(&self, query: &Expr, ctx: Context) -> EvalResult<Value> {
        self.evaluate_with_report(query, ctx).map(|(v, _)| v)
    }

    /// Evaluate and report the dispatch decisions.
    pub fn evaluate_with_report(
        &self,
        query: &Expr,
        ctx: Context,
    ) -> EvalResult<(Value, OptReport)> {
        let mut report = OptReport::default();

        // Corollary 11.5: whole-query Core XPath fast path.
        if let Ok(cq) = corexpath::compile(query) {
            report.used_core_xpath = true;
            let ev = CoreXPathEvaluator::new(self.doc);
            let out = ev.try_evaluate(&cq, &[ctx.node], &self.eval_budget)?;
            return Ok((Value::NodeSet(out), report));
        }

        // Algorithm 11.1: evaluate all bottom-up location paths inside Q,
        // innermost first, seeding their tables into MinContext.
        let mc = MinContextEvaluator::new(self.doc).with_eval_budget(self.eval_budget.clone());
        let candidates = collect_candidates_postorder(query);
        for e in candidates {
            self.eval_budget.check()?;
            let table = mc.eval_bottomup_expr(e)?;
            mc.seed_table(e, table);
            report.bottomup_paths += 1;
        }
        let v = mc.evaluate_with_seeds(query, ctx)?;
        Ok((v, report))
    }

    /// Evaluate over several context nodes at once (useful for XSLT-style
    /// batch matching); results are per node.
    pub fn evaluate_at_nodes(&self, query: &Expr, nodes: &[NodeId]) -> EvalResult<Vec<Value>> {
        nodes.iter().map(|&n| self.evaluate(query, Context::of(n))).collect()
    }
}

/// Post-order collection of `boolean(π)` / `π RelOp c` occurrences, so
/// inner candidates are seeded before outer ones ("starting with the
/// innermost ones in case of nesting").
fn collect_candidates_postorder(e: &Expr) -> Vec<&Expr> {
    let mut out = Vec::new();
    fn rec<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
        // Children first (post-order).
        match e {
            Expr::Path(p) => {
                if let xpath_syntax::PathStart::Expr(head) = &p.start {
                    rec(head, out);
                }
                for s in &p.steps {
                    for pr in &s.predicates {
                        rec(pr, out);
                    }
                }
            }
            Expr::Filter { primary, predicates } => {
                rec(primary, out);
                for pr in predicates {
                    rec(pr, out);
                }
            }
            Expr::Binary { left, right, .. } => {
                rec(left, out);
                rec(right, out);
            }
            Expr::Neg(inner) => rec(inner, out),
            Expr::Call { args, .. } => {
                for a in args {
                    rec(a, out);
                }
            }
            Expr::Literal(_) | Expr::Number(_) | Expr::Var(_) => {}
        }
        if bottomup_candidate(e).is_some() {
            out.push(e);
        }
    }
    rec(e, &mut out);
    out
}

/// Convenience: evaluate a query string with OptMinContext.
pub fn evaluate_str(doc: &Document, query: &str, ctx: Context) -> EvalResult<Value> {
    let e = xpath_syntax::parse_normalized(query)
        .map_err(|err| crate::context::EvalError::Parse(err.to_string()))?;
    OptMinContextEvaluator::new(doc).evaluate(&e, ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::NaiveEvaluator;
    use xpath_syntax::parse_normalized;
    use xpath_xml::generate::{doc_bookstore, doc_figure8, doc_flat, doc_flat_text};

    #[test]
    fn example_11_2_full_query() {
        // The §11 running example, evaluated end-to-end by OptMinContext.
        let d = doc_figure8();
        let q = "/child::a/descendant::*[boolean(following::d[(position() != last()) and \
                 (preceding-sibling::*/preceding::* = 100)]/following::d)]";
        let e = parse_normalized(q).unwrap();
        let ev = OptMinContextEvaluator::new(&d);
        let (v, report) = ev.evaluate_with_report(&e, Context::of(d.root())).unwrap();
        let expect: Vec<_> =
            ["11", "12", "13", "14", "22"].iter().map(|i| d.element_by_id(i).unwrap()).collect();
        assert_eq!(v, Value::NodeSet(expect.into()));
        assert!(!report.used_core_xpath);
        // Two bottom-up paths: the inner "=100" comparison and the outer
        // boolean(...).
        assert_eq!(report.bottomup_paths, 2);
    }

    #[test]
    fn core_xpath_queries_take_fast_path() {
        let d = doc_bookstore();
        let e = parse_normalized("//book[author]/title").unwrap();
        let ev = OptMinContextEvaluator::new(&d);
        let (v, report) = ev.evaluate_with_report(&e, Context::of(d.root())).unwrap();
        assert!(report.used_core_xpath);
        assert_eq!(v.as_node_set().unwrap().len(), 4);
    }

    #[test]
    fn positional_queries_fall_back_to_mincontext() {
        let d = doc_flat(5);
        let e = parse_normalized("//b[position() = last()]").unwrap();
        let ev = OptMinContextEvaluator::new(&d);
        let (v, report) = ev.evaluate_with_report(&e, Context::of(d.root())).unwrap();
        assert!(!report.used_core_xpath);
        assert_eq!(v.as_node_set().unwrap().len(), 1);
    }

    #[test]
    fn agrees_with_naive_on_corpus() {
        let docs = [doc_flat(4), doc_flat_text(3), doc_figure8(), doc_bookstore()];
        let queries = [
            "//a/b",
            "//b[2]",
            "//*[parent::a/child::* = 'c']",
            "//a/b[count(parent::a/b) > 1]",
            "count(//b/following::b)",
            "(//c | //d)[2]",
            "id('12 24')/parent::*",
            "//*[@id = '22']",
            "//section/book[2]/title",
            "//book[author/last = 'Koch']/@id",
            "//d/ancestor::b",
            "//b[c = '23 24']",
            "//*[d = 100 and position() != last()]",
            "//*[boolean(following::d) or @year > 2000]",
            "sum(//d) + count(//c)",
            "//d[not(following-sibling::*)]",
            "string(//book[1]/title)",
        ];
        for d in &docs {
            for q in queries {
                let e = parse_normalized(q).unwrap();
                let naive = NaiveEvaluator::new(d).evaluate(&e, Context::of(d.root())).unwrap();
                let opt =
                    OptMinContextEvaluator::new(d).evaluate(&e, Context::of(d.root())).unwrap();
                assert!(naive.semantically_equal(&opt), "query {q} on {d:?}: {naive:?} vs {opt:?}");
            }
        }
    }

    #[test]
    fn wadler_queries_use_bottomup_paths() {
        let d = doc_figure8();
        // [d = 100] is a π RelOp c occurrence → bottom-up.
        let e = parse_normalized("//*[d = 100 and position() = 1]").unwrap();
        let ev = OptMinContextEvaluator::new(&d);
        let (v, report) = ev.evaluate_with_report(&e, Context::of(d.root())).unwrap();
        assert!(report.bottomup_paths >= 1, "{report:?}");
        let naive = NaiveEvaluator::new(&d)
            .evaluate(
                &parse_normalized("//*[d = 100 and position() = 1]").unwrap(),
                Context::of(d.root()),
            )
            .unwrap();
        assert!(naive.semantically_equal(&v));
    }

    #[test]
    fn batch_evaluation() {
        let d = doc_flat(3);
        let a = d.document_element().unwrap();
        let bs: Vec<NodeId> = d.children(a).collect();
        let e = parse_normalized("count(following-sibling::b)").unwrap();
        let ev = OptMinContextEvaluator::new(&d);
        let vs = ev.evaluate_at_nodes(&e, &bs).unwrap();
        assert_eq!(vs, vec![Value::Number(2.0), Value::Number(1.0), Value::Number(0.0)]);
    }
}
