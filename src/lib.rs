//! # gkp-xpath — umbrella crate
//!
//! Re-exports the public API of the Gottlob–Koch–Pichler XPath reproduction
//! workspace so examples and downstream users can depend on a single crate.
//!
//! * [`xml`] — document model, parser, builders, generators (`xpath-xml`)
//! * [`syntax`] — XPath 1.0 lexer/parser/AST/normalizer (`xpath-syntax`)
//! * [`axes`] — axis evaluation engine (`xpath-axes`)
//! * [`core`] — value model, semantics, the eight evaluation algorithms and
//!   fragment classifiers (`xpath-core`)
//!
//! ## Compile once, evaluate many
//!
//! The paper splits XPath processing into a document-independent **static
//! phase** (parse, normalize, Figure-1 classification, algorithm
//! selection, fragment compilation) and a **runtime phase** (the
//! polynomial/linear evaluators over a concrete tree). The API mirrors
//! that split: a [`Compiler`] produces an immutable, `Send + Sync`
//! [`CompiledQuery`] that evaluates against any number of documents from
//! any number of threads:
//!
//! ```
//! use gkp_xpath::{Compiler, Document, Strategy};
//!
//! let query = Compiler::new().optimize(true).compile("count(//b)").unwrap();
//! // Resolved statically: `//b` is lifted onto the linear-time algebra.
//! assert_eq!(query.strategy(), Strategy::CoreXPath);
//!
//! let d1 = Document::parse_str("<a><b/><b/></a>").unwrap();
//! let d2 = Document::parse_str("<a><b/><b/><b/></a>").unwrap();
//! assert_eq!(query.evaluate_root(&d1).unwrap().to_string(), "2");
//! assert_eq!(query.evaluate_root(&d2).unwrap().to_string(), "3");
//! ```
//!
//! Services handling repeated queries share compilations through a
//! sharded, thread-safe [`QueryCache`]:
//!
//! ```
//! use gkp_xpath::{Compiler, Document, QueryCache};
//!
//! let cache = QueryCache::new(1024);
//! let compiler = Compiler::new();
//! let doc = Document::parse_str("<a><b/></a>").unwrap();
//! for _ in 0..100 {
//!     let q = cache.get_or_compile(&compiler, "//b").unwrap();
//!     assert_eq!(q.select(&doc).unwrap().len(), 1);
//! }
//! assert_eq!(cache.stats().misses, 1); // static phase ran once
//! ```
//!
//! Many queries against one document evaluate together through the
//! batch-native third tier: a [`QuerySet`] runs all compiled Core XPath
//! spines lock-step, deduplicating identical axis applications through a
//! shared memo table so each distinct pass over the document happens once
//! for the whole batch (see [`xpath_core::batch`]):
//!
//! ```
//! use gkp_xpath::{Document, QuerySetBuilder};
//!
//! let set = QuerySetBuilder::new()
//!     .query("//b/c")
//!     .query("//b[c]")      // shares the //b prefix pass
//!     .query("count(//b)")  // lifted onto the algebra: shares the //b pass too
//!     .build()
//!     .unwrap();
//! let doc = Document::parse_str("<a><b><c/></b><b/></a>").unwrap();
//! let out = set.evaluate_all(&doc);
//! assert_eq!(out.results()[2].as_ref().unwrap().to_string(), "2");
//! ```
//!
//! The fourth tier is **lazy and budgeted**: a [`CompiledQuery`] also
//! answers `exists`/`first` by early-exiting on the first witness, hands
//! out a pull-based [`NodeCursor`] via
//! [`select_lazy`](CompiledQuery::select_lazy), and accepts an
//! [`EvalBudget`] (deadline + cooperative cancel flag) on every
//! evaluation path — single, batched or CLI (see [`xpath_core::cursor`]):
//!
//! ```
//! use gkp_xpath::{core::NodeCursor, Document, EvalBudget};
//! use gkp_xpath::CompiledQuery;
//!
//! let q = CompiledQuery::compile("//b").unwrap();
//! let doc = Document::parse_str("<a><b/><b/></a>").unwrap();
//! assert!(q.exists(&doc).unwrap());                  // stops at the first <b>
//! let first = q.first(&doc).unwrap().unwrap();       // document order
//! let mut cursor = q.select_lazy(&doc);              // pull-based iteration
//! assert_eq!(cursor.next().unwrap(), Some(first));
//! let ok = q.evaluate_with(
//!     &doc,
//!     gkp_xpath::core::Context::of(doc.root()),
//!     &EvalBudget::timeout(std::time::Duration::from_secs(5)),
//! );
//! assert!(ok.is_ok());
//! ```
//!
//! The document-bound [`Engine`] remains as a convenience facade over
//! `Compiler` + `QueryCache` for one-off evaluation against a single
//! document; it also exposes the batch tier ([`Engine::evaluate_batch`])
//! and fleet-wide planner statistics ([`Engine::planner_stats`]).

#![forbid(unsafe_code)]

pub use xpath_axes as axes;
pub use xpath_core as core;
pub use xpath_syntax as syntax;
pub use xpath_xml as xml;

pub use xpath_axes::{BatchMode, KernelCounts};
pub use xpath_core::analyze::{
    AnalysisStats, Diagnostic, Laziness, QueryReport, Satisfiability, Severity,
};
pub use xpath_core::batch::{BatchResult, BatchStats, QuerySet, QuerySetBuilder};
pub use xpath_core::cache::{CacheStats, QueryCache};
pub use xpath_core::context::{EvalBudget, EvalError};
pub use xpath_core::cursor::{NodeCursor, QueryCursor};
pub use xpath_core::engine::{Engine, Strategy};
pub use xpath_core::query::{CompiledQuery, Compiler};
pub use xpath_core::serve::{ServeConfig, Server};
pub use xpath_core::store::{DocumentStore, StoreError, StoreStats};
pub use xpath_core::value::Value;
pub use xpath_xml::{Document, DocumentBuilder, NodeId, NodeKind, NodeSet};
