//! Document-independent execution plans — the output of the static phase.
//!
//! The paper's central observation is that XPath processing splits into a
//! **static** phase (parse, normalize, Figure-1 fragment classification,
//! algorithm selection — all independent of any document) and a **runtime**
//! phase (the polynomial/linear evaluators over a concrete tree). A
//! [`Plan`] captures everything the static phase produces:
//!
//! * the normalized (and possibly rewritten) expression,
//! * its [`Classification`] in the Figure-1 lattice,
//! * the resolved [`Strategy`] (never [`Strategy::Auto`]),
//! * the eagerly compiled Core XPath/XPatterns algebra program (§10) for
//!   the fragment engines, so per-evaluation work is pure runtime,
//! * the static-analysis [`QueryReport`], including the lazy verdict the
//!   cursor dispatches on.
//!
//! Because eager compilation happens here, a query outside an explicitly
//! requested fragment fails at *plan-build* time with
//! [`EvalError::UnsupportedFragment`](crate::EvalError::UnsupportedFragment),
//! not at first evaluation.

use xpath_syntax::Expr;
use xpath_xml::Document;

use crate::analyze::{self, QueryReport};
use crate::bottomup::BottomUpEvaluator;
use crate::context::{Context, EvalBudget, EvalResult};
use crate::corexpath::{self, CoreDialect, CoreQuery, CoreXPathEvaluator};
use crate::fragment::{classify, Classification, Fragment};
use crate::mincontext::MinContextEvaluator;
use crate::naive::NaiveEvaluator;
use crate::optmincontext::OptMinContextEvaluator;
use crate::pool::PoolEvaluator;
use crate::topdown::TopDownEvaluator;
use crate::value::Value;

/// Which of the paper's algorithms to run.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Strategy {
    /// §2 baseline: exponential recursive evaluation (models XALAN/XT/
    /// Saxon/IE6).
    Naive,
    /// §9: naive recursion + data pool (Algorithm 9.1).
    DataPool,
    /// §6: bottom-up context-value tables (Algorithm 6.3).
    BottomUp,
    /// §7: top-down vectorized evaluation (the paper's implementation).
    TopDown,
    /// §8: MinContext (Algorithm 8.5).
    MinContext,
    /// §11.2: OptMinContext (Algorithm 11.1).
    OptMinContext,
    /// §10.1: linear-time Core XPath algebra (rejects other queries).
    CoreXPath,
    /// §10.2: linear-time XPatterns (rejects other queries).
    XPatterns,
    /// Classify via Figure 1 and pick the best algorithm.
    #[default]
    Auto,
}

/// The strategy [`Strategy::Auto`] resolves to for a classified query,
/// per the Figure 1 lattice.
pub fn resolve_auto(classification: &Classification) -> Strategy {
    match classification.fragment {
        Fragment::CoreXPath => Strategy::CoreXPath,
        Fragment::XPatterns => Strategy::XPatterns,
        // OptMinContext realizes both the Wadler bounds and the general
        // MinContext bounds (Algorithm 11.1).
        Fragment::ExtendedWadler | Fragment::FullXPath => Strategy::OptMinContext,
    }
}

/// A fully resolved, immutable, document-independent execution plan.
///
/// Build one with [`Plan::build`], then run it against any number of
/// documents with [`Plan::execute`]. Plans contain only owned plain data,
/// so they are `Send + Sync` and can be shared across threads (the public
/// wrapper is [`crate::query::CompiledQuery`]).
#[derive(Clone, Debug)]
pub struct Plan {
    /// The normalized (and possibly rewritten) expression.
    pub expr: Expr,
    /// The Figure-1 classification of `expr`.
    pub classification: Classification,
    /// The resolved strategy (never [`Strategy::Auto`]).
    pub strategy: Strategy,
    /// Eagerly compiled Core XPath / XPatterns algebra program, present
    /// iff `strategy` is [`Strategy::CoreXPath`] or [`Strategy::XPatterns`].
    algebra: Option<CoreQuery>,
    /// The static-analysis report ([`crate::analyze`]): satisfiability,
    /// lazy verdict, diagnostics.
    report: QueryReport,
    /// Step budget for the exponential naive baseline, if bounded.
    naive_budget: Option<u64>,
    /// Shard budget for the parallel CVT layer (`0` = auto:
    /// `GKP_THREADS` / the machine's parallelism; `1` = always serial).
    threads: u32,
}

impl Plan {
    /// Resolve `requested` against the classification of `expr` and compile
    /// all fragment artifacts eagerly.
    ///
    /// With an explicit fragment strategy ([`Strategy::CoreXPath`],
    /// [`Strategy::XPatterns`]) a query outside
    /// that fragment is rejected **here**, so callers see
    /// [`EvalError::UnsupportedFragment`](crate::EvalError::UnsupportedFragment)
    /// once at compile time rather than on every evaluation.
    ///
    /// The plan runs with the auto-resolved thread budget; use
    /// [`Plan::build_with_threads`] to pin it.
    pub fn build(expr: Expr, requested: Strategy, naive_budget: Option<u64>) -> EvalResult<Plan> {
        Plan::build_with_threads(expr, requested, naive_budget, 0)
    }

    /// [`Plan::build`] with an explicit shard budget for the parallel CVT
    /// layer: `0` resolves the process default (`GKP_THREADS` env, then
    /// the machine's parallelism), `1` keeps every pass serial. Sharding
    /// is still cost-gated per pass at runtime (see [`crate::parallel`]),
    /// so the budget is a cap, not a mandate.
    pub fn build_with_threads(
        expr: Expr,
        requested: Strategy,
        naive_budget: Option<u64>,
        threads: u32,
    ) -> EvalResult<Plan> {
        let classification = classify(&expr);
        let auto = requested == Strategy::Auto;
        let mut strategy = if auto { resolve_auto(&classification) } else { requested };

        let mut algebra = None;
        if let Some(dialect) = fragment_dialect(strategy) {
            match corexpath::compile_dialect(&expr, dialect) {
                Ok(q) => algebra = Some(q),
                // The classifier approves exactly what the algebra
                // compiler accepts, so under Auto this is unreachable;
                // fall back to the general engine defensively rather
                // than failing a query the lattice admits.
                Err(_) if auto => strategy = Strategy::OptMinContext,
                Err(e) => return Err(e),
            }
        }
        let report = analyze::analyze(&expr, strategy, algebra.as_ref());
        Ok(Plan { expr, classification, strategy, algebra, report, naive_budget, threads })
    }

    /// Run the plan against `doc` from context `ctx`.
    ///
    /// Pure runtime phase: no parsing, classification, or fragment
    /// compilation happens here.
    pub fn execute(&self, doc: &Document, ctx: Context) -> EvalResult<Value> {
        self.execute_with(doc, ctx, &EvalBudget::unlimited())
    }

    /// [`Plan::execute`] under an [`EvalBudget`]: every strategy polls the
    /// budget at its natural pass boundary (location steps, table passes,
    /// axis passes) and fails with
    /// [`EvalError::Cancelled`](crate::EvalError::Cancelled) /
    /// [`EvalError::DeadlineExceeded`](crate::EvalError::DeadlineExceeded)
    /// once it trips — never a poisoned evaluator or a partial result.
    pub fn execute_with(
        &self,
        doc: &Document,
        ctx: Context,
        budget: &EvalBudget,
    ) -> EvalResult<Value> {
        // Constant-empty plan node: the analyzer proved the result is
        // document-independent, so no evaluator runs at all.
        if let Some(v) = &self.report.const_result {
            return Ok(v.clone());
        }
        run(
            &self.expr,
            self.strategy,
            self.algebra.as_ref(),
            self.naive_budget,
            self.threads,
            doc,
            ctx,
            None,
            budget,
        )
    }

    /// [`Plan::execute`], additionally merging the adaptive axis planner's
    /// kernel decisions into `kernels` (fragment strategies only; the
    /// general evaluators record nothing). This is how a
    /// [`CompiledQuery`](crate::query::CompiledQuery) accumulates its
    /// per-query planner statistics across evaluations.
    pub fn execute_recording(
        &self,
        doc: &Document,
        ctx: Context,
        kernels: &xpath_axes::KernelCounters,
    ) -> EvalResult<Value> {
        self.execute_recording_with(doc, ctx, kernels, &EvalBudget::unlimited())
    }

    /// [`Plan::execute_recording`] under an [`EvalBudget`] (see
    /// [`Plan::execute_with`]).
    pub fn execute_recording_with(
        &self,
        doc: &Document,
        ctx: Context,
        kernels: &xpath_axes::KernelCounters,
        budget: &EvalBudget,
    ) -> EvalResult<Value> {
        if let Some(v) = &self.report.const_result {
            return Ok(v.clone());
        }
        run(
            &self.expr,
            self.strategy,
            self.algebra.as_ref(),
            self.naive_budget,
            self.threads,
            doc,
            ctx,
            Some(kernels),
            budget,
        )
    }

    /// The configured shard budget for the parallel CVT layer (`0` =
    /// auto-resolve at evaluation time).
    pub fn threads(&self) -> u32 {
        self.threads
    }

    /// The compiled Core XPath / XPatterns algebra program, if this plan
    /// uses a fragment engine.
    pub fn algebra(&self) -> Option<&CoreQuery> {
        self.algebra.as_ref()
    }

    /// The naive-evaluator step budget, if one was configured.
    pub fn naive_budget(&self) -> Option<u64> {
        self.naive_budget
    }

    /// The static-analysis report produced at build time (satisfiability,
    /// lazy verdict, diagnostics).
    pub fn report(&self) -> &QueryReport {
        &self.report
    }
}

/// One-shot evaluation of an already-prepared expression without building
/// a persistent [`Plan`]: dispatches directly on `strategy` (classifying
/// only under [`Strategy::Auto`]) and borrows the expression, so a call
/// costs the same as pre-plan `Engine::evaluate_expr` did — no AST clone,
/// no classification for explicit strategies. Fragment artifacts are
/// compiled per call; keep a [`Plan`] (via
/// [`crate::query::Compiler::compile`]) to amortize them.
pub fn execute_adhoc(
    expr: &Expr,
    strategy: Strategy,
    naive_budget: Option<u64>,
    doc: &Document,
    ctx: Context,
) -> EvalResult<Value> {
    match strategy {
        Strategy::Auto => {
            let resolved = resolve_auto(&classify(expr));
            execute_adhoc(expr, resolved, naive_budget, doc, ctx)
        }
        _ => {
            let algebra = fragment_dialect(strategy)
                .map(|d| corexpath::compile_dialect(expr, d))
                .transpose()?;
            run(
                expr,
                strategy,
                algebra.as_ref(),
                naive_budget,
                0,
                doc,
                ctx,
                None,
                &EvalBudget::unlimited(),
            )
        }
    }
}

/// The algebra dialect a fragment strategy compiles to, `None` for the
/// general evaluators.
fn fragment_dialect(strategy: Strategy) -> Option<CoreDialect> {
    match strategy {
        Strategy::CoreXPath => Some(CoreDialect::CoreXPath),
        Strategy::XPatterns => Some(CoreDialect::XPatterns),
        _ => None,
    }
}

/// Shared runtime dispatch. `strategy` is resolved (never `Auto`) and any
/// fragment artifacts it needs are supplied by the caller. When `kernels`
/// is given, the fragment engines' adaptive planner decisions are merged
/// into it after the evaluation. `threads` caps the parallel CVT layer
/// for the engines that have one (Core XPath / XPatterns axis passes, the
/// bottom-up row fills); `0` auto-resolves.
#[allow(clippy::too_many_arguments)]
fn run(
    expr: &Expr,
    strategy: Strategy,
    algebra: Option<&CoreQuery>,
    naive_budget: Option<u64>,
    threads: u32,
    doc: &Document,
    ctx: Context,
    kernels: Option<&xpath_axes::KernelCounters>,
    budget: &EvalBudget,
) -> EvalResult<Value> {
    match strategy {
        Strategy::Naive => match naive_budget {
            Some(b) => NaiveEvaluator::with_budget(doc, b)
                .with_eval_budget(budget.clone())
                .evaluate(expr, ctx),
            None => NaiveEvaluator::new(doc).with_eval_budget(budget.clone()).evaluate(expr, ctx),
        },
        Strategy::DataPool => {
            PoolEvaluator::new(doc).with_eval_budget(budget.clone()).evaluate(expr, ctx)
        }
        Strategy::BottomUp => BottomUpEvaluator::new(doc)
            .with_threads(threads)
            .with_eval_budget(budget.clone())
            .evaluate(expr, ctx),
        Strategy::TopDown => {
            TopDownEvaluator::new(doc).with_eval_budget(budget.clone()).evaluate(expr, ctx)
        }
        Strategy::MinContext => MinContextEvaluator::new(doc)
            .with_threads(threads)
            .with_eval_budget(budget.clone())
            .evaluate(expr, ctx),
        Strategy::OptMinContext => OptMinContextEvaluator::new(doc)
            .with_threads(threads)
            .with_eval_budget(budget.clone())
            .evaluate(expr, ctx),
        Strategy::CoreXPath | Strategy::XPatterns => {
            let q = algebra.expect("fragment dispatch requires a compiled algebra program");
            let ev = CoreXPathEvaluator::with_backend(
                doc,
                crate::corexpath::AxisBackend::Parallel(threads),
            );
            let out = ev.try_evaluate(q, &[ctx.node], budget)?;
            if let Some(counters) = kernels {
                counters.merge(ev.kernel_counts());
            }
            Ok(Value::NodeSet(out))
        }
        Strategy::Auto => unreachable!("callers resolve Auto before run()"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::EvalError;
    use xpath_syntax::parse_normalized;
    use xpath_xml::generate::doc_bookstore;

    fn plan(q: &str, s: Strategy) -> EvalResult<Plan> {
        Plan::build(parse_normalized(q).unwrap(), s, None)
    }

    #[test]
    fn auto_resolves_per_figure_1() {
        assert_eq!(plan("//book[author]", Strategy::Auto).unwrap().strategy, Strategy::CoreXPath);
        assert_eq!(
            plan("//book[title = 'x']", Strategy::Auto).unwrap().strategy,
            Strategy::XPatterns
        );
        assert_eq!(
            plan("//book[position() = last()]", Strategy::Auto).unwrap().strategy,
            Strategy::OptMinContext
        );
    }

    #[test]
    fn fragment_artifacts_compile_eagerly() {
        let p = plan("//book[author]", Strategy::CoreXPath).unwrap();
        assert!(p.algebra().is_some());
        assert!(p.report().laziness.is_lazy(), "the verdict reads the compiled spine");
        // Outside the fragment: the error surfaces at build time.
        assert!(matches!(
            plan("count(//book)", Strategy::CoreXPath),
            Err(EvalError::UnsupportedFragment(_))
        ));
    }

    #[test]
    fn provably_empty_queries_short_circuit() {
        let p = plan("//text()/child::*", Strategy::Auto).unwrap();
        assert!(p.report().is_empty_query());
        let d = doc_bookstore();
        let out = p.execute(&d, Context::of(d.root())).unwrap();
        assert!(matches!(out, Value::NodeSet(ref s) if s.is_empty()));
        // Scalar wrappers fold too.
        let p = plan("count(//text()/child::*)", Strategy::Auto).unwrap();
        let out = p.execute(&d, Context::of(d.root())).unwrap();
        assert_eq!(out.to_string(), "0");
    }

    #[test]
    fn execute_matches_topdown() {
        let d = doc_bookstore();
        for q in ["//book[author]", "count(//book)", "//book[position() = last()]"] {
            let auto = plan(q, Strategy::Auto).unwrap();
            let reference = plan(q, Strategy::TopDown).unwrap();
            let ctx = Context::of(d.root());
            assert!(
                auto.execute(&d, ctx)
                    .unwrap()
                    .semantically_equal(&reference.execute(&d, ctx).unwrap()),
                "{q}"
            );
        }
    }

    #[test]
    fn plans_carry_a_thread_budget() {
        let p = plan("//book[author]", Strategy::Auto).unwrap();
        assert_eq!(p.threads(), 0, "default is auto-resolve");
        let e = parse_normalized("//book[author]").unwrap();
        let pinned = Plan::build_with_threads(e.clone(), Strategy::Auto, None, 4).unwrap();
        assert_eq!(pinned.threads(), 4);
        // Budgets change only the route, never the result.
        let serial = Plan::build_with_threads(e, Strategy::Auto, None, 1).unwrap();
        let d = doc_bookstore();
        let ctx = Context::of(d.root());
        assert!(pinned
            .execute(&d, ctx)
            .unwrap()
            .semantically_equal(&serial.execute(&d, ctx).unwrap()));
    }

    #[test]
    fn naive_budget_is_enforced() {
        let d = doc_bookstore();
        let p = Plan::build(
            parse_normalized("//book/ancestor::*/descendant::*/ancestor::*").unwrap(),
            Strategy::Naive,
            Some(10),
        )
        .unwrap();
        assert!(matches!(p.execute(&d, Context::of(d.root())), Err(EvalError::BudgetExhausted)));
    }
}
