//! Document-independent execution plans — the output of the static phase.
//!
//! The paper's central observation is that XPath processing splits into a
//! **static** phase (parse, normalize, Figure-1 fragment classification,
//! algorithm selection — all independent of any document) and a **runtime**
//! phase (the polynomial/linear evaluators over a concrete tree). A
//! [`Plan`] captures everything the static phase produces:
//!
//! * the normalized and rewritten expression,
//! * its [`Classification`] in the Figure-1 lattice,
//! * the resolved [`Strategy`] (never [`Strategy::Auto`]),
//! * for the fragment engines, the eagerly compiled §10 algebra
//!   [`Program`] — its lifted paths and the fold over them — so
//!   per-evaluation work is pure runtime,
//! * the static-analysis [`QueryReport`], including the lazy verdict the
//!   cursor dispatches on.
//!
//! # The Auto rule
//!
//! [`resolve_auto`] lifts every maximal location path outside a predicate
//! onto the linear-time algebra ([`crate::lift`]). When every such path is
//! Core XPath or XPatterns — `//a[b]`, but also `count(//a[b])`,
//! `sum(//a/@n) > 10`, `//a | //b`, `id(//r)` — the plan runs each path
//! once on [`CoreXPathEvaluator`] at the query's context and folds the
//! rest of the query over their node sets; it reports
//! [`Strategy::CoreXPath`], or [`Strategy::XPatterns`] if any lifted path
//! needs it. Otherwise the query resolves by Figure 1: Extended Wadler and
//! Full XPath both run on [`Strategy::OptMinContext`]. Explicitly
//! requested strategies never lift; they run the paper's algorithms on the
//! whole query, which is what makes them differential oracles.
//!
//! Because eager compilation happens here, a query outside an explicitly
//! requested fragment fails at *plan-build* time with
//! [`EvalError::UnsupportedFragment`],
//! not at first evaluation.

use xpath_syntax::Expr;
use xpath_xml::Document;

use crate::analyze::{self, QueryReport};
use crate::batch::AxisMemo;
use crate::bottomup::BottomUpEvaluator;
use crate::context::{Context, EvalBudget, EvalError, EvalResult};
use crate::corexpath::{compile_dialect, CoreDialect, CoreQuery, CoreXPathEvaluator};
use crate::fragment::{classify, Classification};
use crate::lift::Program;
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
    /// Lift Core XPath / XPatterns paths onto the §10 algebra, else
    /// classify via Figure 1 (see [`resolve_auto`]).
    #[default]
    Auto,
}

/// Auto's choice for a query that does not lift. Every Core XPath /
/// XPatterns query lifts whole, so what is left is Extended Wadler or Full
/// XPath: OptMinContext realizes both the Wadler bounds and the general
/// MinContext bounds (Algorithm 11.1).
const FIGURE_1_CHOICE: Strategy = Strategy::OptMinContext;

/// The one resolution of [`Strategy::Auto`], shared by [`Plan::build`] and
/// [`execute_adhoc`]: the lifted [`Program`] and the fragment strategy it
/// reports when every path outside a predicate fits the algebra, else
/// Figure 1's choice.
pub fn resolve_auto(expr: &Expr) -> (Strategy, Option<Program>) {
    match Program::lift(expr) {
        Some(program) => (program.strategy(), Some(program)),
        None => (FIGURE_1_CHOICE, None),
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
    /// The normalized and rewritten expression.
    pub expr: Expr,
    /// The Figure-1 classification of `expr`.
    pub classification: Classification,
    /// The resolved strategy (never [`Strategy::Auto`]).
    pub strategy: Strategy,
    /// Eagerly compiled algebra program (lifted paths + fold), present
    /// iff `strategy` is [`Strategy::CoreXPath`] or [`Strategy::XPatterns`].
    program: Option<Program>,
    /// The static-analysis report ([`crate::analyze`]): satisfiability,
    /// lazy verdict, diagnostics.
    report: QueryReport,
    /// Step budget for the exponential naive baseline, if bounded.
    naive_budget: Option<u64>,
}

impl Plan {
    /// Resolve `requested` against the classification of `expr` and compile
    /// all fragment artifacts eagerly.
    ///
    /// With an explicit fragment strategy ([`Strategy::CoreXPath`],
    /// [`Strategy::XPatterns`]) a query outside
    /// that fragment is rejected **here**, so callers see
    /// [`EvalError::UnsupportedFragment`]
    /// once at compile time rather than on every evaluation.
    pub fn build(expr: Expr, requested: Strategy, naive_budget: Option<u64>) -> EvalResult<Plan> {
        let classification = classify(&expr);
        let (strategy, program) = resolve(&expr, requested)?;
        let report =
            analyze::analyze(&expr, strategy, program.as_ref().and_then(Program::whole_path));
        Ok(Plan { expr, classification, strategy, program, report, naive_budget })
    }

    /// Run the plan against `doc` from context `ctx` under `budget`.
    ///
    /// Pure runtime phase: no parsing, classification, or fragment
    /// compilation happens here. Every strategy polls the budget at its
    /// natural pass boundary (location steps, table passes, axis passes)
    /// and fails with [`EvalError::Cancelled`] /
    /// [`EvalError::DeadlineExceeded`] once it trips — never a poisoned
    /// evaluator or a partial result. The fragment engines merge their
    /// axis-kernel tally into `kernels` (the general evaluators record
    /// nothing); this is how a
    /// [`CompiledQuery`](crate::query::CompiledQuery) accumulates its
    /// per-query planner statistics. A batch passes its [`AxisMemo`] as
    /// `memo`, so the fragment engines serve repeated axis passes from
    /// it; the general evaluators ignore it. The result never depends on
    /// the memo.
    pub fn execute(
        &self,
        doc: &Document,
        ctx: Context,
        kernels: &xpath_axes::KernelCounters,
        budget: &EvalBudget,
        memo: Option<&AxisMemo>,
    ) -> EvalResult<Value> {
        // Constant-empty plan node: the analyzer proved the result is
        // document-independent, so no evaluator runs at all.
        if let Some(v) = &self.report.const_result {
            return Ok(v.clone());
        }
        run(
            &self.expr,
            self.strategy,
            self.program.as_ref(),
            self.naive_budget,
            doc,
            ctx,
            Some(kernels),
            memo,
            budget,
        )
    }

    /// The compiled Core XPath / XPatterns program of the whole query —
    /// present only when the query *is* one algebra path (identity fold),
    /// which is what the lazy cursor pipeline needs.
    pub fn algebra(&self) -> Option<&CoreQuery> {
        self.program.as_ref().and_then(Program::whole_path)
    }

    /// The fragment engines' program: the lifted algebra paths and the
    /// fold over them (a whole-query path is one path with an identity
    /// fold). `None` for the general evaluators.
    pub fn program(&self) -> Option<&Program> {
        self.program.as_ref()
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
/// a persistent [`Plan`]: resolves `strategy` exactly as [`Plan::build`]
/// does (lifting only under [`Strategy::Auto`]) and borrows the
/// expression. An explicitly requested general evaluator pays no AST
/// clone and no classification. Under Auto every call first tries to
/// lift, compiling each path outside a predicate (and cloning the lifted
/// ones); a query that does not lift pays for that attempt before it runs
/// on OptMinContext. Keep a [`Plan`] (via
/// [`crate::query::Compiler::compile`]) to pay for the resolution and the
/// fragment programs once.
pub fn execute_adhoc(
    expr: &Expr,
    strategy: Strategy,
    naive_budget: Option<u64>,
    doc: &Document,
    ctx: Context,
) -> EvalResult<Value> {
    let (strategy, program) = resolve(expr, strategy)?;
    run(
        expr,
        strategy,
        program.as_ref(),
        naive_budget,
        doc,
        ctx,
        None,
        None,
        &EvalBudget::unlimited(),
    )
}

/// The differential oracle: run `expr` at `ctx` through every evaluator of
/// the paper, and through [`Strategy::Auto`] (the production path), and
/// require each to agree with [`TopDownEvaluator`]. Returns the common
/// value. The §10 algebra joins in when `expr` compiles to XPatterns.
///
/// Only the two documented limits are forgiven: the exponential naive
/// baseline may exhaust `naive_budget` steps
/// ([`EvalError::BudgetExhausted`]), and bottom-up, the one evaluator with
/// a row cap, may exceed it ([`EvalError::Capacity`]). Any other error
/// from any evaluator fails the check.
pub fn evaluate_all_agree(
    expr: &Expr,
    doc: &Document,
    ctx: Context,
    naive_budget: u64,
) -> EvalResult<Value> {
    let reference = TopDownEvaluator::new(doc).evaluate(expr, ctx)?;
    let check = |name: &str, out: EvalResult<Value>| -> EvalResult<()> {
        match out {
            Ok(v) if v.semantically_equal(&reference) => Ok(()),
            Ok(v) => Err(EvalError::TypeMismatch(format!(
                "{name} disagrees: {v:?} vs top-down {reference:?}"
            ))),
            Err(e) => Err(e),
        }
    };
    match NaiveEvaluator::with_budget(doc, naive_budget).evaluate(expr, ctx) {
        Err(EvalError::BudgetExhausted) => {}
        out => check("naive", out)?,
    }
    check("data-pool", PoolEvaluator::new(doc).evaluate(expr, ctx))?;
    match BottomUpEvaluator::new(doc).evaluate(expr, ctx) {
        Err(EvalError::Capacity(_)) => {}
        out => check("bottom-up", out)?,
    }
    check("min-context", MinContextEvaluator::new(doc).evaluate(expr, ctx))?;
    check("opt-min-context", OptMinContextEvaluator::new(doc).evaluate(expr, ctx))?;
    check("auto", execute_adhoc(expr, Strategy::Auto, None, doc, ctx))?;
    if let Ok(q) = compile_dialect(expr, CoreDialect::XPatterns) {
        let v = CoreXPathEvaluator::new(doc).evaluate(&q, &[ctx.node], &EvalBudget::unlimited());
        check("core-xpath", v.map(Value::NodeSet))?;
    }
    Ok(reference)
}

/// Resolve a requested strategy: [`resolve_auto`] under Auto; otherwise
/// the request itself, with the whole query compiled when it names a
/// fragment engine (rejecting queries outside that fragment).
fn resolve(expr: &Expr, requested: Strategy) -> EvalResult<(Strategy, Option<Program>)> {
    Ok(match requested {
        Strategy::Auto => resolve_auto(expr),
        _ => (requested, fragment_dialect(requested).map(|d| Program::whole(expr, d)).transpose()?),
    })
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

/// Shared runtime dispatch. `strategy` is resolved (never `Auto`) and the
/// fragment program it needs is supplied by the caller. When `kernels`
/// is given, the fragment engines' axis-kernel tallies are merged
/// into it after the evaluation; `memo` is attached to the Core XPath
/// evaluator.
#[allow(clippy::too_many_arguments)]
fn run(
    expr: &Expr,
    strategy: Strategy,
    program: Option<&Program>,
    naive_budget: Option<u64>,
    doc: &Document,
    ctx: Context,
    kernels: Option<&xpath_axes::KernelCounters>,
    memo: Option<&AxisMemo>,
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
        Strategy::BottomUp => {
            BottomUpEvaluator::new(doc).with_eval_budget(budget.clone()).evaluate(expr, ctx)
        }
        Strategy::TopDown => {
            TopDownEvaluator::new(doc).with_eval_budget(budget.clone()).evaluate(expr, ctx)
        }
        Strategy::MinContext => {
            MinContextEvaluator::new(doc).with_eval_budget(budget.clone()).evaluate(expr, ctx)
        }
        Strategy::OptMinContext => {
            OptMinContextEvaluator::new(doc).with_eval_budget(budget.clone()).evaluate(expr, ctx)
        }
        Strategy::CoreXPath | Strategy::XPatterns => {
            let program = program.expect("fragment dispatch requires a compiled program");
            let ev = CoreXPathEvaluator::new(doc).with_memo(memo);
            let out = program.execute(&ev, doc, ctx, budget);
            if let Some(counters) = kernels {
                counters.merge(ev.kernel_counts());
            }
            out
        }
        Strategy::Auto => unreachable!("callers resolve Auto before run()"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpath_syntax::parse_normalized;
    use xpath_xml::generate::{doc_bookstore, doc_figure8};

    fn plan(q: &str, s: Strategy) -> EvalResult<Plan> {
        Plan::build(parse_normalized(q).unwrap(), s, None)
    }

    fn execute_at_root(p: &Plan, d: &Document) -> EvalResult<Value> {
        let kernels = xpath_axes::KernelCounters::new();
        p.execute(d, Context::of(d.root()), &kernels, &EvalBudget::unlimited(), None)
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
    fn auto_lifts_fragment_paths_out_of_aggregates() {
        let p = plan("count(//book[author])", Strategy::Auto).unwrap();
        assert_eq!(p.strategy, Strategy::CoreXPath);
        assert_eq!(p.program().unwrap().paths().len(), 1);
        // A fold is not a whole-query path: no algebra for the cursor.
        assert!(p.algebra().is_none());
        assert!(!p.report().laziness.is_lazy());
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
        let out = execute_at_root(&p, &d).unwrap();
        assert!(matches!(out, Value::NodeSet(ref s) if s.is_empty()));
        // Scalar wrappers fold too.
        let p = plan("count(//text()/child::*)", Strategy::Auto).unwrap();
        let out = execute_at_root(&p, &d).unwrap();
        assert_eq!(out.to_string(), "0");
    }

    #[test]
    fn execute_matches_topdown() {
        let d = doc_bookstore();
        for q in [
            "//book[author]",
            "count(//book)",
            "//book[position() = last()]",
            "sum(//book/@year) > 4000 and //magazine",
        ] {
            let auto = plan(q, Strategy::Auto).unwrap();
            let reference = plan(q, Strategy::TopDown).unwrap();
            assert!(
                execute_at_root(&auto, &d)
                    .unwrap()
                    .semantically_equal(&execute_at_root(&reference, &d).unwrap()),
                "{q}"
            );
        }
    }

    #[test]
    fn auto_strategy_matches_the_resolution() {
        let s = |q: &str| resolve_auto(&crate::query::Compiler::new().parse(q).unwrap()).0;
        assert_eq!(s("//book[author]"), Strategy::CoreXPath);
        assert_eq!(s("//book[title = 'DB Monthly']"), Strategy::XPatterns);
        assert_eq!(s("//book[position() = last()]"), Strategy::OptMinContext);
        // Aggregates over fragment paths lift onto the algebra.
        assert_eq!(s("count(//book)"), Strategy::CoreXPath);
        assert_eq!(s("count(//book[title = 'DB Monthly'])"), Strategy::XPatterns);
        assert_eq!(s("count(//book[position() = last()])"), Strategy::OptMinContext);
    }

    #[test]
    fn every_evaluator_agrees_with_topdown() {
        let d = doc_figure8();
        for q in [
            "//b/c",
            "//*[d = 100]",
            "//b[count(c) > 1]",
            "//*[position() = last()]",
            "count(//c) + sum(//d)",
            // Context-free tables over an empty candidate set.
            "//nope[position() = count(/a)]",
            "/nope[count((/a)[1]) = 1]",
            "count(/nope[(/a)[1]])",
        ] {
            let e = parse_normalized(q).unwrap();
            evaluate_all_agree(&e, &d, Context::of(d.root()), 1_000_000)
                .unwrap_or_else(|err| panic!("{q}: {err}"));
        }
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
        assert!(matches!(execute_at_root(&p, &d), Err(EvalError::BudgetExhausted)));
        // The one-shot path honours the same budget.
        let e = parse_normalized("//book/ancestor::*/descendant::*/ancestor::*").unwrap();
        assert!(matches!(
            execute_adhoc(&e, Strategy::Naive, Some(10), &d, Context::of(d.root())),
            Err(EvalError::BudgetExhausted)
        ));
    }
}
