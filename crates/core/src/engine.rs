//! Unified engine facade over all evaluation algorithms.
//!
//! **Back-compat status:** `Engine` predates the two-phase query API and
//! is kept as a thin facade over [`crate::query::Compiler`] and
//! [`crate::cache::QueryCache`] — every method delegates to them. All
//! pre-existing signatures remain supported; new code that evaluates the
//! same query repeatedly (or against several documents, or from several
//! threads) should use [`Compiler`]/[`crate::query::CompiledQuery`]
//! directly, which make the compile-once / evaluate-many split explicit.
//! An `Engine` is bound to one document; a `CompiledQuery` is bound to
//! none.
//!
//! ```
//! use xpath_core::engine::{Engine, Strategy};
//! use xpath_xml::Document;
//!
//! let doc = Document::parse_str("<a><b/><b/></a>").unwrap();
//! let engine = Engine::new(&doc);
//! let hits = engine.select("//b").unwrap();
//! assert_eq!(hits.len(), 2);
//! // Every algorithm of the paper is selectable:
//! let v = engine.evaluate_with("count(//b)", Strategy::TopDown).unwrap();
//! assert_eq!(v.to_string(), "2");
//! ```

use std::collections::HashMap;
use std::sync::Mutex;

use xpath_syntax::{Bindings, Expr};
use xpath_xml::{Document, NodeId};

use crate::batch::{BatchResult, QuerySetBuilder};
use crate::bottomup::BottomUpEvaluator;
use crate::cache::{CacheStats, QueryCache};
use crate::context::{Context, EvalError, EvalResult};
use crate::corexpath::{self, CoreDialect, CoreXPathEvaluator};
use crate::mincontext::MinContextEvaluator;
use crate::naive::NaiveEvaluator;
use crate::nodeset::NodeSet;
use crate::optmincontext::OptMinContextEvaluator;
use crate::plan;
use crate::pool::PoolEvaluator;
use crate::query::Compiler;
use crate::topdown::TopDownEvaluator;
use crate::value::Value;

pub use crate::plan::Strategy;

/// How many compiled queries each engine memoizes. Engines are typically
/// short-lived and single-document; long-lived services should share a
/// [`QueryCache`] across documents instead.
const ENGINE_CACHE_CAPACITY: usize = 128;

/// An XPath engine bound to a document: a thin facade over
/// [`Compiler`] + [`QueryCache`] (see the module docs).
pub struct Engine<'d> {
    doc: &'d Document,
    compiler: Compiler,
    /// The compiler's options fingerprint, computed once — the engine's
    /// compiler never changes after construction, and rendering it per
    /// lookup would dominate cache-hit cost.
    fingerprint: String,
    /// Fingerprints for `evaluate_with` strategy overrides, memoized per
    /// strategy for the same reason.
    strategy_fingerprints: Mutex<HashMap<Strategy, String>>,
    cache: QueryCache,
}

impl<'d> Engine<'d> {
    /// Create an engine over `doc`.
    pub fn new(doc: &'d Document) -> Self {
        Engine::with_compiler(doc, Compiler::new())
    }

    /// Create an engine over `doc` with a fully configured [`Compiler`].
    pub fn with_compiler(doc: &'d Document, compiler: Compiler) -> Self {
        let fingerprint = compiler.options_fingerprint();
        Engine {
            doc,
            compiler,
            fingerprint,
            strategy_fingerprints: Mutex::new(HashMap::new()),
            cache: QueryCache::new(ENGINE_CACHE_CAPACITY),
        }
    }

    /// The underlying document.
    pub fn document(&self) -> &'d Document {
        self.doc
    }

    /// Parse, normalize and rewrite a query (no variable bindings).
    pub fn prepare(&self, query: &str) -> EvalResult<Expr> {
        self.compiler.parse(query)
    }

    /// Parse, normalize and rewrite a query with variable bindings.
    pub fn prepare_with(&self, query: &str, bindings: &Bindings) -> EvalResult<Expr> {
        self.compiler.clone().bindings(bindings).parse(query)
    }

    /// Evaluate a query string at the document root with this engine's
    /// configured strategy ([`Strategy::Auto`] unless overridden via
    /// [`Engine::with_compiler`]).
    ///
    /// Compilations are memoized in a per-engine [`QueryCache`], so
    /// re-evaluating the same text skips the static phase.
    pub fn evaluate(&self, query: &str) -> EvalResult<Value> {
        let compiled = self.cache.get_or_compile_keyed(&self.compiler, &self.fingerprint, query)?;
        compiled.evaluate(self.doc, Context::of(self.doc.root()))
    }

    /// Evaluate a query string at the document root with a given strategy.
    pub fn evaluate_with(&self, query: &str, strategy: Strategy) -> EvalResult<Value> {
        let fingerprint = self
            .strategy_fingerprints
            .lock()
            .expect("fingerprint map poisoned")
            .entry(strategy)
            .or_insert_with(|| {
                self.compiler.clone().default_strategy(strategy).options_fingerprint()
            })
            .clone();
        // The compiler clone happens only on cache misses.
        let compiled = self.cache.get_or_insert_with(&fingerprint, query, || {
            self.compiler.clone().default_strategy(strategy).compile(query)
        })?;
        compiled.evaluate(self.doc, Context::of(self.doc.root()))
    }

    /// Evaluate a query string at a given context node.
    pub fn evaluate_at(&self, query: &str, node: NodeId) -> EvalResult<Value> {
        let compiled = self.cache.get_or_compile_keyed(&self.compiler, &self.fingerprint, query)?;
        compiled.evaluate(self.doc, Context::of(node))
    }

    /// Evaluate a prepared expression.
    ///
    /// Dispatches directly on `strategy` without building a persistent
    /// plan (fragment artifacts are compiled per call); use a
    /// [`crate::query::CompiledQuery`] to keep them across calls. The
    /// compiler's `naive_budget`, if configured, bounds [`Strategy::Naive`]
    /// here just as it does on the string entry points.
    pub fn evaluate_expr(&self, e: &Expr, strategy: Strategy, ctx: Context) -> EvalResult<Value> {
        plan::execute_adhoc(e, strategy, self.compiler.configured_naive_budget(), self.doc, ctx)
    }

    /// The strategy [`Strategy::Auto`] resolves to for a query — the same
    /// resolution [`Plan::build`](crate::Plan::build) makes
    /// ([`plan::auto_strategy`]): a fragment engine when every path outside
    /// a predicate lifts onto the §10 algebra, else Figure 1's choice.
    pub fn auto_strategy(&self, e: &Expr) -> Strategy {
        plan::auto_strategy(e)
    }

    /// Evaluate a node-set query at the root and return the nodes.
    pub fn select(&self, query: &str) -> EvalResult<NodeSet> {
        crate::query::into_node_set(self.evaluate(query)?)
    }

    /// Evaluate a node-set query from a given context node.
    pub fn select_at(&self, query: &str, node: NodeId) -> EvalResult<NodeSet> {
        crate::query::into_node_set(self.evaluate_at(query, node)?)
    }

    /// Counters of the per-engine compiled-query cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Aggregate axis-kernel materializations across every query this
    /// engine has compiled and evaluated — the facade counterpart of
    /// [`QueryCache::planner_stats`], so observability no longer requires
    /// reaching into `xpath_core` internals.
    pub fn planner_stats(&self) -> xpath_axes::KernelCounts {
        self.cache.planner_stats()
    }

    /// Evaluate a batch of query strings at the document root in one
    /// pass, sharing axis passes through the batch memo when a unit
    /// repeats (see [`crate::batch`]). Compilations go through this
    /// engine's cache, so repeated batches skip the static phase
    /// entirely; compile errors fail the call, per-query evaluation
    /// errors come back inside the [`BatchResult`].
    pub fn evaluate_batch(&self, queries: &[&str]) -> EvalResult<BatchResult> {
        let mut builder = QuerySetBuilder::with_compiler(self.compiler.clone());
        for q in queries {
            builder = builder.compiled(self.cache.get_or_compile_keyed(
                &self.compiler,
                &self.fingerprint,
                q,
            )?);
        }
        Ok(builder.build()?.evaluate_all(self.doc))
    }

    /// Run the same prepared query through every algorithm and check they
    /// agree — the differential-testing oracle used by the integration
    /// suite. Returns the common value.
    ///
    /// `budget` bounds the naive evaluator (it is exponential by design);
    /// when exhausted, naive is skipped.
    pub fn evaluate_all_agree(
        &self,
        e: &Expr,
        ctx: Context,
        naive_budget: u64,
    ) -> EvalResult<Value> {
        let reference = TopDownEvaluator::new(self.doc).evaluate(e, ctx)?;
        let check = |name: &str, v: EvalResult<Value>| -> EvalResult<()> {
            match v {
                Ok(v) if v.semantically_equal(&reference) => Ok(()),
                Ok(v) => Err(EvalError::TypeMismatch(format!(
                    "{name} disagrees: {v:?} vs top-down {reference:?}"
                ))),
                Err(EvalError::BudgetExhausted) | Err(EvalError::Capacity(_)) => Ok(()),
                Err(e) => Err(e),
            }
        };
        check("naive", NaiveEvaluator::with_budget(self.doc, naive_budget).evaluate(e, ctx))?;
        check("data-pool", PoolEvaluator::new(self.doc).evaluate(e, ctx))?;
        check("bottom-up", BottomUpEvaluator::new(self.doc).evaluate(e, ctx))?;
        check("min-context", MinContextEvaluator::new(self.doc).evaluate(e, ctx))?;
        check("opt-min-context", OptMinContextEvaluator::new(self.doc).evaluate(e, ctx))?;
        if let Ok(q) = corexpath::compile_dialect(e, CoreDialect::XPatterns) {
            let v = CoreXPathEvaluator::new(self.doc).evaluate(&q, &[ctx.node]);
            check("core-xpath", Ok(Value::NodeSet(v)))?;
        }
        Ok(reference)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpath_xml::generate::{doc_bookstore, doc_figure8};

    #[test]
    fn auto_strategy_dispatch() {
        let d = doc_bookstore();
        let engine = Engine::new(&d);
        let s = |q: &str| engine.auto_strategy(&engine.prepare(q).unwrap());
        assert_eq!(s("//book[author]"), Strategy::CoreXPath);
        assert_eq!(s("//book[title = 'DB Monthly']"), Strategy::XPatterns);
        assert_eq!(s("//book[position() = last()]"), Strategy::OptMinContext);
        // Aggregates over fragment paths lift onto the algebra.
        assert_eq!(s("count(//book)"), Strategy::CoreXPath);
        assert_eq!(s("count(//book[title = 'DB Monthly'])"), Strategy::XPatterns);
        assert_eq!(s("count(//book[position() = last()])"), Strategy::OptMinContext);
    }

    #[test]
    fn strategies_agree() {
        let d = doc_figure8();
        let engine = Engine::new(&d);
        for q in [
            "//b/c",
            "//*[d = 100]",
            "//b[count(c) > 1]",
            "//*[position() = last()]",
            "count(//c) + sum(//d)",
        ] {
            let e = engine.prepare(q).unwrap();
            engine
                .evaluate_all_agree(&e, Context::of(d.root()), 1_000_000)
                .unwrap_or_else(|err| panic!("{q}: {err}"));
        }
    }

    #[test]
    fn select_and_scalar_queries() {
        let d = doc_bookstore();
        let engine = Engine::new(&d);
        assert_eq!(engine.select("//book").unwrap().len(), 4);
        assert!(engine.select("count(//book)").is_err(), "scalar is not a node set");
        let v = engine.evaluate("count(//book[@year > 2000])").unwrap();
        assert_eq!(v, Value::Number(2.0));
    }

    #[test]
    fn evaluate_at_context_node() {
        let d = doc_bookstore();
        let engine = Engine::new(&d);
        let b1 = d.element_by_id("b1").unwrap();
        let v = engine.evaluate_at("count(author)", b1).unwrap();
        assert_eq!(v, Value::Number(3.0));
        let titles = engine.select_at("following-sibling::book/title", b1).unwrap();
        assert_eq!(titles.len(), 1);
    }

    #[test]
    fn bindings_through_prepare_with() {
        let d = doc_bookstore();
        let engine = Engine::new(&d);
        let b = Bindings::new().number("y", 2000.0).string("t", "XPath Processing");
        let e = engine.prepare_with("//book[@year > $y and title = $t]", &b).unwrap();
        let v = engine.evaluate_expr(&e, Strategy::Auto, Context::of(d.root())).unwrap();
        assert_eq!(v.as_node_set().unwrap().len(), 1);
    }

    #[test]
    fn explicit_fragment_strategies_reject_outside_queries() {
        let d = doc_bookstore();
        let engine = Engine::new(&d);
        assert!(matches!(
            engine.evaluate_with("count(//book)", Strategy::CoreXPath),
            Err(EvalError::UnsupportedFragment(_))
        ));
        assert!(engine.evaluate_with("//book[title = 'x']", Strategy::CoreXPath).is_err());
        assert!(engine.evaluate_with("//book[title = 'x']", Strategy::XPatterns).is_ok());
    }

    #[test]
    fn with_compiler_strategy_applies_to_every_entry_point() {
        let d = doc_bookstore();
        let engine =
            Engine::with_compiler(&d, Compiler::new().default_strategy(Strategy::CoreXPath));
        // Outside the Core XPath fragment: evaluate, evaluate_at and
        // select must all reject consistently.
        let q = "//book[position() = 2]";
        assert!(matches!(engine.evaluate(q), Err(EvalError::UnsupportedFragment(_))));
        assert!(matches!(engine.evaluate_at(q, d.root()), Err(EvalError::UnsupportedFragment(_))));
        assert!(matches!(engine.select(q), Err(EvalError::UnsupportedFragment(_))));
        // Inside it: all succeed.
        assert_eq!(engine.select("//book[author]").unwrap().len(), 4);
    }

    #[test]
    fn configured_naive_budget_bounds_evaluate_expr() {
        let d = doc_bookstore();
        let engine = Engine::with_compiler(&d, Compiler::new().naive_budget(10));
        let e = engine.prepare("//book/ancestor::*/descendant::*/ancestor::*").unwrap();
        assert!(matches!(
            engine.evaluate_expr(&e, Strategy::Naive, Context::of(d.root())),
            Err(EvalError::BudgetExhausted)
        ));
    }

    #[test]
    fn parse_failures_are_parse_errors() {
        let d = doc_bookstore();
        let engine = Engine::new(&d);
        assert!(matches!(engine.prepare("//["), Err(EvalError::Parse(_))));
        assert!(matches!(
            engine.prepare_with("//book[$nope]", &Bindings::new()),
            Err(EvalError::Parse(_))
        ));
        assert!(matches!(engine.evaluate("///"), Err(EvalError::Parse(_))));
    }

    #[test]
    fn evaluate_batch_matches_independent_and_reuses_the_cache() {
        let d = doc_bookstore();
        let engine = Engine::new(&d);
        let queries = ["//book[author]", "count(//book)", "//book[author]"];
        let batch = engine.evaluate_batch(&queries).unwrap();
        for (q, r) in queries.iter().zip(batch.results()) {
            let want = engine.evaluate(q).unwrap();
            assert_eq!(r.as_ref().unwrap(), &want, "{q}");
        }
        // The duplicate text hit the engine cache during batch assembly.
        assert!(engine.cache_stats().hits >= 1);
        // Compile errors fail the whole call (nothing to evaluate).
        assert!(matches!(engine.evaluate_batch(&["//["]), Err(EvalError::Parse(_))));
        // The facade exposes fleet-wide planner stats without internals.
        assert!(engine.planner_stats().total() > 0);
    }

    #[test]
    fn repeated_evaluation_hits_the_engine_cache() {
        let d = doc_bookstore();
        let engine = Engine::new(&d);
        for _ in 0..5 {
            engine.evaluate("count(//book)").unwrap();
        }
        let stats = engine.cache_stats();
        assert_eq!(stats.misses, 1, "compiled once");
        assert_eq!(stats.hits, 4, "then served from cache");
    }
}
