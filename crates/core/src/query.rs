//! The two-phase query API: [`Compiler`] (static phase) and
//! [`CompiledQuery`] (reusable runtime handle).
//!
//! The paper separates XPath processing into a cheap document-independent
//! static phase — parse, normalize, rewrite, Figure-1 classification,
//! algorithm selection, fragment compilation — and a runtime phase that
//! walks a concrete tree. This module makes that split the public API:
//!
//! ```
//! use xpath_core::query::Compiler;
//! use xpath_core::Strategy;
//! use xpath_xml::Document;
//!
//! // Compile once (no document needed)…
//! let q = Compiler::new().compile("count(//b)").unwrap();
//! assert_eq!(q.strategy(), Strategy::CoreXPath); // `//b` runs on the §10 algebra
//!
//! // …evaluate many times, against any documents, from any thread.
//! let d1 = Document::parse_str("<a><b/><b/></a>").unwrap();
//! let d2 = Document::parse_str("<a><b/><b/><b/></a>").unwrap();
//! assert_eq!(q.evaluate_root(&d1).unwrap().to_string(), "2");
//! assert_eq!(q.evaluate_root(&d2).unwrap().to_string(), "3");
//! ```
//!
//! [`CompiledQuery`] is immutable and `Send + Sync`; share it across
//! worker threads directly or via [`crate::cache::QueryCache`], which
//! amortizes compilation across an entire fleet of workers.

use std::fmt;

use xpath_syntax::{normalize, Bindings, Expr};
use xpath_xml::Document;

use crate::context::{Context, EvalBudget, EvalError, EvalResult};
use crate::cursor::{NodeCursor, QueryCursor};
use crate::fragment::{Classification, Fragment};
use crate::nodeset::NodeSet;
use crate::plan::{Plan, Strategy};
use crate::value::Value;
use xpath_xml::NodeId;

/// Builder for the static phase: configures how queries are compiled.
///
/// A `Compiler` is cheap to clone and carries no document state. The same
/// compiler can compile any number of queries.
#[derive(Clone, Debug, Default)]
pub struct Compiler {
    default_strategy: Strategy,
    naive_budget: Option<u64>,
    threads: u32,
    bindings: Bindings,
}

impl Compiler {
    /// A compiler with default settings: automatic (Figure-1) strategy
    /// selection, unbounded naive evaluation, no variable bindings. Every
    /// compile runs the sound rewrite pass ([`xpath_syntax::rewrite`]):
    /// `//`-step merging, `self::node()` elimination, constant folding.
    pub fn new() -> Compiler {
        Compiler::default()
    }

    /// The strategy compiled queries run with. [`Strategy::Auto`] (the
    /// default) classifies each query per Figure 1 and picks the best
    /// algorithm; explicit fragment strategies reject outside queries at
    /// compile time.
    pub fn default_strategy(mut self, strategy: Strategy) -> Compiler {
        self.default_strategy = strategy;
        self
    }

    /// Bound the exponential naive baseline to `budget` location steps
    /// (evaluation fails with [`EvalError::BudgetExhausted`] beyond it).
    pub fn naive_budget(mut self, budget: u64) -> Compiler {
        self.naive_budget = Some(budget);
        self
    }

    /// Default thread budget of a
    /// [`QuerySetBuilder`](crate::batch::QuerySetBuilder) built from this
    /// compiler: `0` (the default) auto-resolves from `GKP_THREADS` / the
    /// machine's parallelism, `1` keeps the batch on the caller's thread.
    /// It caps the batch's per-query fan-out (whether a batch fans out at
    /// all is the size rule of [`QuerySet`](crate::batch::QuerySet),
    /// decided per document), the only place evaluation spawns threads; a
    /// single compiled query always evaluates on the calling thread, so
    /// the budget is not part of the plan and never changes results.
    pub fn threads(mut self, threads: u32) -> Compiler {
        self.threads = threads;
        self
    }

    /// Variable bindings substituted during normalization (the paper
    /// assumes bindings are inlined before evaluation).
    pub fn bindings(mut self, bindings: &Bindings) -> Compiler {
        self.bindings = bindings.clone();
        self
    }

    /// Static phase only, up to the AST: parse, normalize (inlining this
    /// compiler's bindings), and apply the rewrite pass.
    pub fn parse(&self, query: &str) -> EvalResult<Expr> {
        let e = xpath_syntax::parse(query).map_err(|e| EvalError::Parse(e.to_string()))?;
        let e = normalize::normalize_with(&e, &self.bindings)
            .map_err(|e| EvalError::Parse(e.to_string()))?;
        Ok(xpath_syntax::rewrite::optimize(&e))
    }

    /// Run the full static phase: parse, normalize, rewrite, classify,
    /// resolve the strategy, and compile fragment artifacts eagerly.
    ///
    /// Parse and normalization failures surface as [`EvalError::Parse`];
    /// a query outside an explicitly requested fragment surfaces as
    /// [`EvalError::UnsupportedFragment`] — both at compile time.
    pub fn compile(&self, query: &str) -> EvalResult<CompiledQuery> {
        let expr = self.parse(query)?;
        let plan = Plan::build(expr, self.default_strategy, self.naive_budget)?;
        Ok(CompiledQuery {
            text: query.to_string(),
            plan,
            kernels: std::sync::Arc::new(xpath_axes::KernelCounters::new()),
        })
    }

    /// A stable fingerprint of this compiler's settings, used with the
    /// query text as the [`crate::cache::QueryCache`] key. Two compilers
    /// with equal fingerprints produce identical compiled queries. The
    /// thread budget is not part of it: plans do not depend on it.
    pub fn options_fingerprint(&self) -> String {
        // Bindings has no Hash/Eq, and its HashMap iteration order varies
        // per instance — render the entries in sorted name order instead.
        format!(
            "strat={:?};budget={:?};bind={:?}",
            self.default_strategy,
            self.naive_budget,
            self.bindings.sorted()
        )
    }

    /// The configured thread budget (`0` = auto) — the default a
    /// [`QuerySetBuilder`](crate::batch::QuerySetBuilder) built from this
    /// compiler inherits.
    pub(crate) fn configured_threads(&self) -> u32 {
        self.threads
    }
}

/// An immutable, document-independent compiled query.
///
/// Produced by [`Compiler::compile`]; holds the full static-phase output
/// (normalized expression, classification, resolved strategy, precompiled
/// fragment artifacts) and no document references, so one instance
/// evaluates against any document from any thread.
#[derive(Clone, Debug)]
pub struct CompiledQuery {
    text: String,
    plan: Plan,
    /// Axis-kernel materializations accumulated across evaluations.
    /// Shared by clones (and thus by every holder of a cached handle), so
    /// the [`crate::cache::QueryCache`] can aggregate per-query planner
    /// behaviour fleet-wide.
    kernels: std::sync::Arc<xpath_axes::KernelCounters>,
}

impl CompiledQuery {
    /// Compile with default [`Compiler`] settings.
    pub fn compile(query: &str) -> EvalResult<CompiledQuery> {
        Compiler::new().compile(query)
    }

    /// The original query text.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The normalized and rewritten expression.
    pub fn expr(&self) -> &Expr {
        &self.plan.expr
    }

    /// The resolved strategy this query runs with (never
    /// [`Strategy::Auto`]).
    pub fn strategy(&self) -> Strategy {
        self.plan.strategy
    }

    /// The Figure-1 fragment the query falls into.
    pub fn fragment(&self) -> Fragment {
        self.plan.classification.fragment
    }

    /// The full Figure-1 classification, including Extended-Wadler
    /// violation diagnostics.
    pub fn classification(&self) -> &Classification {
        &self.plan.classification
    }

    /// The underlying execution plan.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// The static-analysis report computed at compile time: satisfiability
    /// verdict, lazy verdict and lint diagnostics (see [`crate::analyze`]).
    pub fn report(&self) -> &crate::analyze::QueryReport {
        self.plan.report()
    }

    /// The axis-kernel materializations this query's evaluations have
    /// recorded so far: how many axis applications walked one node's
    /// chain, wrote a sorted vec or ran word-parallel on a bitset. Zero for
    /// strategies outside the Core XPath / XPatterns fragment engines.
    pub fn planner_stats(&self) -> xpath_axes::KernelCounts {
        self.kernels.snapshot()
    }

    /// Evaluate against `doc` from an explicit context (runtime phase
    /// only).
    pub fn evaluate(&self, doc: &Document, ctx: Context) -> EvalResult<Value> {
        self.evaluate_with(doc, ctx, &EvalBudget::unlimited())
    }

    /// Evaluate against `doc` from the document root.
    pub fn evaluate_root(&self, doc: &Document) -> EvalResult<Value> {
        self.evaluate(doc, Context::of(doc.root()))
    }

    /// Evaluate a node-set query at the root of `doc` and return the
    /// matching nodes.
    pub fn select(&self, doc: &Document) -> EvalResult<NodeSet> {
        into_node_set(self.evaluate_root(doc)?)
    }

    /// Evaluate a node-set query from an explicit context.
    pub fn select_at(&self, doc: &Document, ctx: Context) -> EvalResult<NodeSet> {
        into_node_set(self.evaluate(doc, ctx)?)
    }

    /// Evaluate the same plan against many documents (at each root),
    /// amortizing the static phase across the batch. Fails fast on the
    /// first evaluation error.
    pub fn evaluate_many(&self, docs: &[&Document]) -> EvalResult<Vec<Value>> {
        docs.iter().map(|doc| self.evaluate_root(doc)).collect()
    }

    // ----- lazy / budgeted evaluation (tier 4) -----

    /// [`CompiledQuery::evaluate`] under an [`EvalBudget`]: every
    /// strategy polls the budget at its pass boundaries and fails with
    /// [`EvalError::Cancelled`] / [`EvalError::DeadlineExceeded`] once it
    /// trips — partial work is discarded, the query handle stays valid.
    pub fn evaluate_with(
        &self,
        doc: &Document,
        ctx: Context,
        budget: &EvalBudget,
    ) -> EvalResult<Value> {
        self.plan.execute(doc, ctx, &self.kernels, budget, None)
    }

    /// Does the query match at least one node from the root context?
    /// Early-exits on the first witness when the spine is streamable
    /// (never materializes the full answer).
    pub fn exists(&self, doc: &Document) -> EvalResult<bool> {
        self.exists_at(doc, Context::of(doc.root()))
    }

    /// [`CompiledQuery::exists`] from an explicit context.
    pub fn exists_at(&self, doc: &Document, ctx: Context) -> EvalResult<bool> {
        Ok(self.first_at(doc, ctx)?.is_some())
    }

    /// The first matching node in document order, early-exiting like
    /// [`CompiledQuery::exists`].
    pub fn first(&self, doc: &Document) -> EvalResult<Option<NodeId>> {
        self.first_at(doc, Context::of(doc.root()))
    }

    /// [`CompiledQuery::first`] from an explicit context.
    pub fn first_at(&self, doc: &Document, ctx: Context) -> EvalResult<Option<NodeId>> {
        self.select_lazy_with(doc, ctx, EvalBudget::unlimited(), Some(1)).next()
    }

    /// A [`NodeCursor`] over the matches from the root context, in
    /// document order. Without a take hint the cursor is a full drain, so
    /// it materializes on the first pull; a caller that means to stop
    /// early passes its take through [`CompiledQuery::select_lazy_with`]
    /// (see [`crate::cursor`] for the dispatch rule).
    pub fn select_lazy<'q, 'd>(&'q self, doc: &'d Document) -> QueryCursor<'q, 'd> {
        self.select_lazy_at(doc, Context::of(doc.root()))
    }

    /// [`CompiledQuery::select_lazy`] from an explicit context.
    pub fn select_lazy_at<'q, 'd>(
        &'q self,
        doc: &'d Document,
        ctx: Context,
    ) -> QueryCursor<'q, 'd> {
        self.select_lazy_with(doc, ctx, EvalBudget::unlimited(), None)
    }

    /// The general lazy entry point: an explicit [`EvalBudget`] plus an
    /// optional *take hint* — how many nodes the caller expects to pull
    /// (`Some(1)` for `exists`/`first`, `None` for a full drain). A
    /// [lazy-eligible](CompiledQuery::lazy_eligible) query with a hint
    /// streams on the window pipeline; without one it materializes,
    /// since a full drain gains nothing from stopping early. The choice
    /// never changes the nodes produced, only when the work happens.
    /// Construction is infallible — evaluation errors surface on the
    /// first pull.
    pub fn select_lazy_with<'q, 'd>(
        &'q self,
        doc: &'d Document,
        ctx: Context,
        budget: EvalBudget,
        take_hint: Option<usize>,
    ) -> QueryCursor<'q, 'd> {
        if take_hint.is_some() && self.lazy_eligible() {
            let path = &self.plan.algebra().expect("a lazy verdict implies an algebra").path;
            return QueryCursor::lazy(doc, path, self.kernels.clone(), ctx, budget);
        }
        QueryCursor::materializing(doc, &self.plan, self.kernels.clone(), ctx, budget)
    }

    /// Can this query run on the lazy cursor pipeline at all? Reads the
    /// analyzer's verdict ([`crate::analyze::laziness`]). An eligible
    /// query still materializes a hint-less full drain — see
    /// [`CompiledQuery::select_lazy_with`].
    pub fn lazy_eligible(&self) -> bool {
        self.plan.report().laziness.is_lazy()
    }
}

impl fmt::Display for CompiledQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{} via {:?}]",
            self.text,
            self.plan.classification.fragment.name(),
            self.plan.strategy
        )
    }
}

pub(crate) fn into_node_set(v: Value) -> EvalResult<NodeSet> {
    match v {
        Value::NodeSet(s) => Ok(s),
        other => {
            Err(EvalError::TypeMismatch(format!("expected a node set, got {}", other.type_name())))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan;
    use xpath_xml::generate::{doc_bookstore, doc_figure8};

    #[test]
    fn compile_once_evaluate_many_documents() {
        let q = CompiledQuery::compile("count(//*)").unwrap();
        let d1 = doc_bookstore();
        let d2 = doc_figure8();
        let vs = q.evaluate_many(&[&d1, &d2]).unwrap();
        assert_eq!(vs.len(), 2);
        assert_ne!(vs[0], vs[1], "different documents, different counts");
    }

    #[test]
    fn parse_errors_surface_as_parse_at_compile_time() {
        assert!(matches!(CompiledQuery::compile("//["), Err(EvalError::Parse(_))));
        assert!(matches!(Compiler::new().compile("//book[$undefined]"), Err(EvalError::Parse(_))));
        assert!(matches!(CompiledQuery::compile("///"), Err(EvalError::Parse(_))));
        // The AST-only static phase reports the same way.
        assert!(matches!(Compiler::new().parse("//["), Err(EvalError::Parse(_))));
        let unbound = Compiler::new().bindings(&Bindings::new()).parse("//book[$nope]");
        assert!(matches!(unbound, Err(EvalError::Parse(_))));
    }

    #[test]
    fn fragment_rejection_is_a_compile_error() {
        let c = Compiler::new().default_strategy(Strategy::CoreXPath);
        assert!(matches!(c.compile("count(//book)"), Err(EvalError::UnsupportedFragment(_))));
        assert!(matches!(
            c.compile("//book[position() = 2]"),
            Err(EvalError::UnsupportedFragment(_))
        ));
        assert!(c.compile("//book[title = 'x']").is_err());
        let x = Compiler::new().default_strategy(Strategy::XPatterns);
        assert!(x.compile("//book[title = 'x']").is_ok());
        // Inside the fragment the pinned strategy runs.
        assert_eq!(c.compile("//book[author]").unwrap().select(&doc_bookstore()).unwrap().len(), 4);
        // The same query compiles fine under Auto.
        assert!(Compiler::new().compile("count(//book)").is_ok());
    }

    #[test]
    fn bindings_are_inlined_at_compile_time() {
        let b = Bindings::new().number("y", 2000.0);
        let q = Compiler::new().bindings(&b).compile("count(//book[@year > $y])").unwrap();
        let d = doc_bookstore();
        assert_eq!(q.evaluate_root(&d).unwrap(), Value::Number(2.0));
    }

    #[test]
    fn bindings_reach_the_one_shot_path() {
        let d = doc_bookstore();
        let b = Bindings::new().number("y", 2000.0).string("t", "XPath Processing");
        let e = Compiler::new().bindings(&b).parse("//book[@year > $y and title = $t]").unwrap();
        let v = plan::execute_adhoc(&e, Strategy::Auto, None, &d, Context::of(d.root())).unwrap();
        assert_eq!(v.as_node_set().unwrap().len(), 1);
    }

    #[test]
    fn evaluate_at_a_context_node() {
        let d = doc_bookstore();
        let b1 = Context::of(d.element_by_id("b1").unwrap());
        let v = CompiledQuery::compile("count(author)").unwrap().evaluate(&d, b1).unwrap();
        assert_eq!(v, Value::Number(3.0));
        let titles = CompiledQuery::compile("following-sibling::book/title").unwrap();
        assert_eq!(titles.select_at(&d, b1).unwrap().len(), 1);
        let years = CompiledQuery::compile("count(//book[@year > 2000])").unwrap();
        assert_eq!(years.evaluate_root(&d).unwrap(), Value::Number(2.0));
    }

    #[test]
    fn every_compile_runs_the_rewrite() {
        let q = CompiledQuery::compile("//b/self::node()/c").unwrap();
        assert_eq!(q.expr().to_string(), "/descendant::b/child::c");
        // The rewritten query agrees with TopDown on the normalized form.
        let d = doc_figure8();
        let plain = xpath_syntax::parse_normalized("//b/self::node()/c").unwrap();
        let want = plan::execute_adhoc(&plain, Strategy::TopDown, None, &d, Context::of(d.root()));
        assert!(q.evaluate_root(&d).unwrap().semantically_equal(&want.unwrap()));
    }

    #[test]
    fn options_fingerprint_is_deterministic_across_rebuilt_bindings() {
        // HashMap iteration order varies per instance; the fingerprint
        // must not (it is the cache key).
        let build = || {
            Compiler::new()
                .bindings(&Bindings::new().number("a", 1.0).string("b", "x").boolean("c", true))
        };
        let fp = build().options_fingerprint();
        for _ in 0..20 {
            assert_eq!(build().options_fingerprint(), fp);
        }
        // Insertion order must not matter either.
        let reordered = Compiler::new()
            .bindings(&Bindings::new().boolean("c", true).string("b", "x").number("a", 1.0));
        assert_eq!(reordered.options_fingerprint(), fp);
    }

    #[test]
    fn planner_stats_accumulate_across_evaluations_and_clones() {
        let d = doc_bookstore();
        let q = CompiledQuery::compile("//book[author]").unwrap();
        assert_eq!(q.planner_stats().total(), 0);
        q.evaluate_root(&d).unwrap();
        let after_one = q.planner_stats().total();
        assert!(after_one > 0, "Core XPath evaluations record kernel decisions");
        // Clones share the tally (the cache hands out shared handles).
        let clone = q.clone();
        clone.evaluate_root(&d).unwrap();
        assert_eq!(q.planner_stats().total(), after_one * 2);
        // Paths lifted out of an aggregate run on the planner too.
        let lifted = CompiledQuery::compile("count(//book)").unwrap();
        lifted.evaluate_root(&d).unwrap();
        assert!(lifted.planner_stats().total() > 0);
        // Non-fragment strategies record nothing.
        let scalar = CompiledQuery::compile("count(//book[1])").unwrap();
        scalar.evaluate_root(&d).unwrap();
        assert_eq!(scalar.planner_stats().total(), 0);
        // A lazy cursor tallies its evaluator's passes: the inverse
        // `following` pass that builds the `E1` set of `following::c`, the
        // window-local forward and inverse pass of `[d]` in the first
        // window, and none for a predicate-free spine, whose steps stream.
        let big = xpath_xml::generate::doc_balanced(4, 7, &["a", "b", "c", "d"]);
        for (text, want) in
            [("//b[following::c]", (0, 0, 1)), ("//c[d]", (0, 2, 0)), ("//a//c", (0, 0, 0))]
        {
            let lazy = CompiledQuery::compile(text).unwrap();
            assert!(lazy.first(&big).unwrap().is_some());
            let k = lazy.planner_stats();
            assert_eq!((k.per_node, k.bulk_sparse, k.bulk_dense), want, "{text}");
        }
    }

    #[test]
    fn thread_budget_is_not_part_of_the_plan_or_the_cache_key() {
        let d = doc_bookstore();
        let serial = Compiler::new().threads(1).compile("//book[author]").unwrap();
        let wide = Compiler::new().threads(8).compile("//book[author]").unwrap();
        // Plans do not depend on the budget, so one cache entry serves
        // every budget…
        assert_eq!(
            Compiler::new().threads(1).options_fingerprint(),
            Compiler::new().threads(8).options_fingerprint()
        );
        // …and the answer is the same either way.
        assert_eq!(wide.evaluate_root(&d).unwrap(), serial.evaluate_root(&d).unwrap());
    }

    #[test]
    fn select_type_checks() {
        let d = doc_bookstore();
        let q = CompiledQuery::compile("//book").unwrap();
        assert_eq!(q.select(&d).unwrap().len(), 4);
        let scalar = CompiledQuery::compile("count(//book)").unwrap();
        assert!(matches!(scalar.select(&d), Err(EvalError::TypeMismatch(_))));
    }

    #[test]
    fn display_names_fragment_and_strategy() {
        let q = CompiledQuery::compile("//book[author]").unwrap();
        let s = q.to_string();
        assert!(s.contains("Core XPath") && s.contains("CoreXPath"), "{s}");
    }
}
