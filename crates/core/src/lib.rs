//! # xpath-core — the paper's contribution
//!
//! Polynomial-time XPath 1.0 processing per Gottlob, Koch & Pichler,
//! *Efficient Algorithms for Processing XPath Queries* (VLDB 2002 / TODS):
//!
//! | Module | Paper | What |
//! |---|---|---|
//! | [`value`], [`compare`], [`functions`] | §5, Table II | value model & effective semantics `F[[Op]]` |
//! | [`naive`] | §2 | exponential baseline (`process-location-step`) |
//! | [`pool`] | §9 | memoized ("data pool") evaluator, Algorithm 9.1 |
//! | [`bottomup`] | §6 | context-value tables, Algorithm 6.3 |
//! | [`topdown`] | §7 | vectorized `S↓`/`E↓` (the "XMLTaskforce" engine) |
//! | [`mincontext`] | §8, App. A | relevant-context analysis + MinContext |
//! | [`corexpath`] | §10.1 | linear-time Core XPath algebra |
//! | [`cursor`] | — | lazy pull-based [`NodeCursor`] layer: early exit, deadlines, cancellation |
//! | [`xpatterns`] | §10.2 | Core XPath + id axis + XSLT-Patterns predicates |
//! | [`wadler`] | §11.1 | Extended Wadler fragment, bottom-up inner paths |
//! | [`optmincontext`] | §11.2 | OptMinContext (Algorithm 11.1) |
//! | [`nodeset`] | §3 | the hybrid bitset/sorted-vec [`nodeset::NodeSet`] currency |
//! | [`fragment`] | Fig. 1 | fragment lattice classification |
//! | [`lift`] | §10 | Auto's lifting of Core XPath / XPatterns paths out of aggregates and comparisons |
//! | [`analyze`] | — | static analysis: satisfiability, const folding, the one lazy verdict |
//! | [`plan`] | — | document-independent execution plans (static phase), one-shot [`plan::execute_adhoc`], the differential oracle [`plan::evaluate_all_agree`] |
//! | [`query`] | — | [`Compiler`] / [`CompiledQuery`]: compile once, evaluate many |
//! | [`cache`] | — | sharded LRU [`QueryCache`] shared across workers |
//! | [`batch`] | — | [`QuerySet`]: batched multi-query evaluation with shared axis passes, on the calling thread |
//! | [`store`] | — | [`DocumentStore`]: directory of mmap'd snapshots, generational reload |
//! | [`serve`] | — | [`serve::Server`]: line-JSON query server — the one [`serve::Json`] codec, admission control, a pure request decoder, metrics |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod batch;
pub mod bottomup;
pub mod cache;
pub mod compare;
pub mod context;
pub mod corexpath;
pub mod cursor;
pub mod eval_common;
pub mod explain;
pub mod fragment;
pub mod functions;
pub mod lift;
pub mod mincontext;
pub mod naive;
pub mod node_test;
pub mod nodeset;
pub mod optmincontext;
pub mod plan;
pub mod pool;
pub mod query;
pub mod relev;
pub mod serve;
pub mod store;
pub mod topdown;
pub mod value;
pub mod wadler;
pub mod xpatterns;

pub use analyze::{AnalysisStats, Diagnostic, Laziness, QueryReport, Satisfiability, Severity};
pub use batch::{BatchMode, BatchResult, BatchStats, QuerySet, QuerySetBuilder};
pub use cache::{CacheStats, QueryCache};
pub use context::{Context, EvalBudget, EvalError, EvalResult};
pub use cursor::{NodeCursor, QueryCursor};
pub use fragment::{classify, Classification, Fragment};
pub use plan::{Plan, Strategy};
pub use query::{CompiledQuery, Compiler};
pub use serve::{ServeConfig, Server};
pub use store::{DocumentStore, StoreError, StoreStats};
pub use value::Value;
