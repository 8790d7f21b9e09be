//! Compile-time query analysis: satisfiability and the lazy verdict.
//!
//! The paper's whole point is that Core XPath is *statically tractable* —
//! so the compiler should learn everything it can about a query before
//! touching a document. [`analyze`] runs once per
//! [`Plan`](crate::plan::Plan) build (the report is cached alongside the
//! [`CompiledQuery`](crate::query::CompiledQuery) in the
//! [`QueryCache`](crate::cache::QueryCache)) and produces a
//! [`QueryReport`] with two layers:
//!
//! 1. **Satisfiability / emptiness.** A sound (never-wrong, incomplete)
//!    emptiness check over the normalized IR: contradictory node tests,
//!    structurally empty steps, and constant-false predicates. Provably
//!    empty queries — and `count`/`boolean`/`not` over them — compile to a
//!    constant plan node ([`QueryReport::const_result`]) that
//!    [`Plan::execute`](crate::plan::Plan::execute) returns without
//!    evaluating anything.
//! 2. **The lazy verdict.** [`laziness`] is the one definition of "can
//!    this query run lazily": the
//!    [`QueryCursor`](crate::cursor::QueryCursor) pipeline, `xpq --lint`
//!    and `xpq --explain` all read [`QueryReport::laziness`], so they
//!    cannot disagree. A query is [`Laziness::Lazy`] iff it runs on the
//!    Core XPath / XPatterns algebra as one whole-query path, does not
//!    const-fold, and every spine axis is preorder-monotone
//!    ([`xpath_axes::is_streamable`]).
//!
//! # Emptiness rules
//!
//! All rules are context-independent for relative paths (a compiled query
//! may be evaluated from any context node), so a verdict of
//! [`Satisfiability::Empty`] holds on *every* document from *every*
//! context:
//!
//! * root rules (first step of an absolute path): `parent`, `ancestor`,
//!   both sibling axes, `preceding`, `following`, `attribute` and
//!   `namespace` applied to the root are empty; `self`/`ancestor-or-self`
//!   at the root only match a `node()` test;
//! * steps off attribute/namespace results: `child`, `descendant(-or-self)`,
//!   `self`, `attribute`, `namespace` are empty (§4 type filtering removes
//!   attribute and namespace nodes from every non-dedicated axis,
//!   *including* `self`);
//! * steps off leaf kinds (`text()`, `comment()`,
//!   `processing-instruction()`): `child`, `descendant`, `attribute`,
//!   `namespace` are empty;
//! * per-step kind contradictions: `attribute`/`namespace`/`parent`/
//!   `ancestor` axes never yield text/comment/PI nodes;
//! * consecutive `self` steps with disjoint node tests
//!   (`self::a/self::b`, `a ≠ b`);
//! * constant-false predicates (`[false()]`, `[boolean(ε)]`,
//!   `[position() = 0]`, `and`/`or`/`not` propagation, comparisons against
//!   provably empty node sets).
//!
//! Diagnostics surface through `xpq --lint` (human text or JSON, severity
//! levels, a CI-friendly exit code) and `xpq --explain`; fleet-wide
//! aggregates through [`QueryCache::analysis_stats`](crate::cache::QueryCache::analysis_stats).

use std::fmt;

use xpath_syntax::{
    static_type, Axis, BinaryOp, Expr, ExprType, KindTest, LocationPath, NodeTest, PathStart, Step,
};

use crate::corexpath::CoreQuery;
use crate::functions;
use crate::nodeset::NodeSet;
use crate::plan::Strategy;
use crate::value::Value;

/// Can the query ever select anything?
#[derive(Clone, Debug, PartialEq)]
pub enum Satisfiability {
    /// No proof of emptiness was found (the check is sound but incomplete).
    Satisfiable,
    /// The query provably evaluates to the empty node set on every
    /// document, from every context; the reason names the rule that fired.
    Empty(String),
}

/// Can the query run lazily? See [`laziness`].
#[derive(Clone, Debug, PartialEq)]
pub enum Laziness {
    /// The cursor can run the compiled spine on its block-synchronous
    /// lazy pipeline: `exists`/`first`/`take(k)` stop at the first
    /// witnesses instead of computing the whole answer.
    Lazy,
    /// The answer must be computed whole before the first node is known;
    /// the reason says why.
    Materialize(String),
}

impl Laziness {
    /// Is the verdict [`Laziness::Lazy`]?
    pub fn is_lazy(&self) -> bool {
        matches!(self, Laziness::Lazy)
    }
}

impl fmt::Display for Laziness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Laziness::Lazy => f.write_str("lazy"),
            Laziness::Materialize(why) => write!(f, "materialize — {why}"),
        }
    }
}

/// Diagnostic severity, ordered by weight.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// The query is legal but almost certainly not what was meant
    /// (provably empty, constant result).
    Warning,
    /// The query will fail at evaluation time (e.g. unknown function).
    Error,
}

impl Severity {
    /// Lower-case name, as printed by `xpq --lint`.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One analyzer finding.
#[derive(Clone, Debug, PartialEq)]
pub struct Diagnostic {
    /// How bad it is.
    pub severity: Severity,
    /// Stable machine-readable code (kebab-case).
    pub code: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    fn new(severity: Severity, code: &'static str, message: String) -> Diagnostic {
        Diagnostic { severity, code, message }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity.name(), self.code, self.message)
    }
}

/// The full static-analysis report for one compiled query.
#[derive(Clone, Debug)]
pub struct QueryReport {
    /// Emptiness verdict for the whole query.
    pub satisfiability: Satisfiability,
    /// Whether the query can run lazily ([`laziness`]).
    pub laziness: Laziness,
    /// The document-independent constant result, when the query folds
    /// (empty node set, `count(ε) = 0`, `boolean(ε) = false`,
    /// `not(ε) = true`). [`Plan::execute`](crate::plan::Plan::execute)
    /// returns it without running any evaluator.
    pub const_result: Option<Value>,
    /// Everything worth telling the query's author.
    pub diagnostics: Vec<Diagnostic>,
}

impl QueryReport {
    /// Is the query provably empty?
    pub fn is_empty_query(&self) -> bool {
        matches!(self.satisfiability, Satisfiability::Empty(_))
    }

    /// The highest severity among the diagnostics, if any.
    pub fn max_severity(&self) -> Option<Severity> {
        self.diagnostics.iter().map(|d| d.severity).max()
    }
}

/// Fleet-wide analysis aggregates, the analyzer's counterpart of the
/// kernel tallies in `planner_stats`. Fold reports together with
/// [`AnalysisStats::plus`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AnalysisStats {
    /// Reports folded in.
    pub analyzed: u64,
    /// Queries proven empty.
    pub provably_empty: u64,
    /// Queries folded to a document-independent constant.
    pub const_folded: u64,
    /// Queries with the [`Laziness::Lazy`] verdict.
    pub lazy: u64,
    /// Queries with the [`Laziness::Materialize`] verdict.
    pub materialized: u64,
    /// Error-severity diagnostics.
    pub errors: u64,
    /// Warning-severity diagnostics.
    pub warnings: u64,
}

impl AnalysisStats {
    /// The aggregate of a single report.
    pub fn of(report: &QueryReport) -> AnalysisStats {
        AnalysisStats {
            analyzed: 1,
            provably_empty: report.is_empty_query() as u64,
            const_folded: report.const_result.is_some() as u64,
            lazy: report.laziness.is_lazy() as u64,
            materialized: !report.laziness.is_lazy() as u64,
            errors: report.diagnostics.iter().filter(|d| d.severity == Severity::Error).count()
                as u64,
            warnings: report.diagnostics.iter().filter(|d| d.severity == Severity::Warning).count()
                as u64,
        }
    }

    /// Element-wise sum (for folding reports across a cache or batch).
    pub fn plus(self, o: AnalysisStats) -> AnalysisStats {
        AnalysisStats {
            analyzed: self.analyzed + o.analyzed,
            provably_empty: self.provably_empty + o.provably_empty,
            const_folded: self.const_folded + o.const_folded,
            lazy: self.lazy + o.lazy,
            materialized: self.materialized + o.materialized,
            errors: self.errors + o.errors,
            warnings: self.warnings + o.warnings,
        }
    }
}

impl fmt::Display for AnalysisStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} analyzed: {} empty, {} const-folded; {} lazy / {} materialized; \
             {} errors, {} warnings",
            self.analyzed,
            self.provably_empty,
            self.const_folded,
            self.lazy,
            self.materialized,
            self.errors,
            self.warnings
        )
    }
}

/// Run the full static analysis over a normalized expression that
/// [`Plan::build`](crate::plan::Plan::build) resolved to `strategy` and,
/// for the fragment strategies, compiled to `algebra`.
pub fn analyze(e: &Expr, strategy: Strategy, algebra: Option<&CoreQuery>) -> QueryReport {
    let mut diagnostics = Vec::new();

    // Layer 0: evaluation-time failures visible statically.
    let mut seen = Vec::new();
    e.walk(&mut |sub| {
        if let Expr::Call { name, .. } = sub {
            if !functions::is_known(name) && !seen.iter().any(|s| s == name) {
                seen.push(name.clone());
                diagnostics.push(Diagnostic::new(
                    Severity::Error,
                    "unknown-function",
                    format!("unknown function {name}() — evaluation will fail"),
                ));
            }
        }
    });

    // Layer 1: satisfiability and constant folding.
    let satisfiability = match nodeset_empty(e) {
        Some(reason) => {
            diagnostics.push(Diagnostic::new(
                Severity::Warning,
                "empty-query",
                format!("query provably selects nothing: {reason}"),
            ));
            Satisfiability::Empty(reason)
        }
        None => Satisfiability::Satisfiable,
    };
    let const_result = const_fold(e);
    if let Some(v) = &const_result {
        if !matches!(satisfiability, Satisfiability::Empty(_)) {
            diagnostics.push(Diagnostic::new(
                Severity::Warning,
                "const-result",
                format!("query result is document-independent: always {v}"),
            ));
        }
    }
    // Nested provably-empty paths (only interesting when the whole query
    // is not already reported empty).
    if !matches!(satisfiability, Satisfiability::Empty(_)) {
        e.walk(&mut |sub| {
            if std::ptr::eq(sub, e) {
                return;
            }
            if let Expr::Path(p) = sub {
                if let Some(reason) = path_empty(p) {
                    diagnostics.push(Diagnostic::new(
                        Severity::Warning,
                        "empty-subpath",
                        format!("subexpression {sub} provably selects nothing: {reason}"),
                    ));
                }
            }
        });
    }

    // Layer 2: the lazy verdict.
    let laziness = laziness(strategy, const_result.as_ref(), algebra);

    QueryReport { satisfiability, laziness, const_result, diagnostics }
}

/// The one definition of "can this query run lazily", read by the
/// cursor, `--lint` and `--explain` alike. A query is lazy iff
///
/// * it runs on the Core XPath / XPatterns algebra as one whole-query
///   path (`strategy` and its compiled `algebra`; a query whose paths were
///   lifted out of an aggregate has no `algebra` — its fold needs every
///   node),
/// * it does not const-fold (`const_result` is `None`: the plan answers
///   without evaluating anything), and
/// * every spine axis is preorder-monotone ([`xpath_axes::is_streamable`]),
///   so the pipeline emits nodes in document order block by block.
///
/// Predicates never block laziness: the pipeline evaluates them per
/// block against the whole document.
pub fn laziness(
    strategy: Strategy,
    const_result: Option<&Value>,
    algebra: Option<&CoreQuery>,
) -> Laziness {
    if const_result.is_some() {
        return Laziness::Materialize(
            "the plan short-circuits to a document-independent constant".into(),
        );
    }
    let (Strategy::CoreXPath | Strategy::XPatterns, Some(q)) = (strategy, algebra) else {
        return Laziness::Materialize(match strategy {
            Strategy::CoreXPath | Strategy::XPatterns => {
                "paths lifted onto the algebra feed an outer fold that needs their whole node sets"
                    .to_string()
            }
            _ => format!("runs on {strategy:?}, not the Core XPath algebra"),
        });
    };
    match q.path.steps.iter().find(|s| !xpath_axes::is_streamable(s.axis)) {
        Some(s) => Laziness::Materialize(format!(
            "{}:: in the spine is not preorder-monotone",
            s.axis.name()
        )),
        None => Laziness::Lazy,
    }
}

// ----- constant folding -----

/// Fold a provably-empty query (or a scalar wrapper around one) to its
/// document-independent constant value.
fn const_fold(e: &Expr) -> Option<Value> {
    if static_type(e) == ExprType::Nset && nodeset_empty(e).is_some() {
        return Some(Value::NodeSet(NodeSet::new()));
    }
    if let Expr::Call { name, args } = e {
        if let [arg] = args.as_slice() {
            if static_type(arg) == ExprType::Nset && nodeset_empty(arg).is_some() {
                return match name.as_str() {
                    "count" | "sum" => Some(Value::Number(0.0)),
                    "boolean" => Some(Value::Boolean(false)),
                    "not" => Some(Value::Boolean(true)),
                    _ => None,
                };
            }
        }
    }
    None
}

// ----- the emptiness engine -----

/// Is this node-set-typed expression provably empty on every document,
/// from every context? Returns the rule that fired.
fn nodeset_empty(e: &Expr) -> Option<String> {
    match e {
        Expr::Path(p) => path_empty(p),
        Expr::Binary { op: BinaryOp::Union, left, right } => {
            let l = nodeset_empty(left)?;
            nodeset_empty(right)?;
            Some(format!("both union branches are empty ({l}, …)"))
        }
        Expr::Filter { primary, predicates } => nodeset_empty(primary).or_else(|| {
            predicates
                .iter()
                .find_map(pred_false)
                .map(|r| format!("filter predicate is always false: {r}"))
        }),
        _ => None,
    }
}

fn path_empty(p: &LocationPath) -> Option<String> {
    if let PathStart::Expr(inner) = &p.start {
        if static_type(inner) == ExprType::Nset {
            if let Some(r) = nodeset_empty(inner) {
                return Some(format!("path head is empty: {r}"));
            }
        }
    }
    let mut prev: Option<&Step> = None;
    for (i, s) in p.steps.iter().enumerate() {
        if i == 0 && p.is_absolute() {
            if let Some(r) = empty_at_root(s) {
                return Some(r);
            }
        }
        if let Some(r) = step_never_matches(s) {
            return Some(r);
        }
        if let Some(pv) = prev {
            if let Some(r) = empty_after(pv, s) {
                return Some(r);
            }
        }
        for pred in &s.predicates {
            if let Some(r) = pred_false(pred).or_else(|| pred_path_empty_in_context(s, pred)) {
                return Some(format!(
                    "step {}::{} has an always-false predicate ({r})",
                    s.axis.name(),
                    s.test
                ));
            }
        }
        prev = Some(s);
    }
    None
}

/// A predicate whose value is a relative path that is structurally empty
/// *given the step it filters* — e.g. `@*[self::text()]`: the predicate's
/// context nodes are attribute results, which §4 filters from `self`.
fn pred_path_empty_in_context(ctx_step: &Step, pred: &Expr) -> Option<String> {
    let p = match pred {
        Expr::Path(p) => p,
        Expr::Call { name, args } if name == "boolean" && args.len() == 1 => match &args[0] {
            Expr::Path(p) => p,
            _ => return None,
        },
        _ => return None,
    };
    if !matches!(p.start, PathStart::ContextNode) {
        return None;
    }
    let first = p.steps.first()?;
    empty_after(ctx_step, first).map(|r| format!("predicate path is empty in this context: {r}"))
}

/// First step of an absolute path: the context is the root, which has no
/// parent, siblings or attributes and is matched only by `node()`.
fn empty_at_root(s: &Step) -> Option<String> {
    match s.axis {
        Axis::Parent
        | Axis::Ancestor
        | Axis::FollowingSibling
        | Axis::PrecedingSibling
        | Axis::Following
        | Axis::Preceding
        | Axis::Attribute
        | Axis::Namespace => {
            Some(format!("{}:: applied to the document root is empty", s.axis.name()))
        }
        Axis::SelfAxis | Axis::AncestorOrSelf
            if !matches!(s.test, NodeTest::Kind(KindTest::Node)) =>
        {
            Some(format!(
                "{}::{} at the document root is empty (the root matches only node())",
                s.axis.name(),
                s.test
            ))
        }
        _ => None,
    }
}

/// A step whose axis can never yield a node its test requires.
fn step_never_matches(s: &Step) -> Option<String> {
    let leaf_kind = matches!(
        s.test,
        NodeTest::Kind(KindTest::Text)
            | NodeTest::Kind(KindTest::Comment)
            | NodeTest::Kind(KindTest::Pi(_))
    );
    match s.axis {
        // Dedicated axes yield attribute/namespace nodes only.
        Axis::Attribute | Axis::Namespace if leaf_kind => Some(format!(
            "{}::{} is empty (the {} axis yields no text/comment/PI nodes)",
            s.axis.name(),
            s.test,
            s.axis.name()
        )),
        // Parents are elements or the root, never leaves.
        Axis::Parent | Axis::Ancestor if leaf_kind => Some(format!(
            "{}::{} is empty (parents are elements or the root)",
            s.axis.name(),
            s.test
        )),
        _ => None,
    }
}

/// A step that is structurally empty given what the previous step yields.
fn empty_after(prev: &Step, cur: &Step) -> Option<String> {
    // Attribute/namespace results: no children, no attributes, and the §4
    // type filter removes them from every non-dedicated axis — including
    // `self` and the self half of `descendant-or-self`.
    if matches!(prev.axis, Axis::Attribute | Axis::Namespace)
        && matches!(
            cur.axis,
            Axis::Child
                | Axis::Descendant
                | Axis::DescendantOrSelf
                | Axis::SelfAxis
                | Axis::Attribute
                | Axis::Namespace
        )
    {
        return Some(format!(
            "{}:: applied to {} results is empty",
            cur.axis.name(),
            prev.axis.name()
        ));
    }
    // Leaf kinds (text/comment/PI): childless and attribute-less, but the
    // node itself survives self/descendant-or-self.
    if matches!(
        prev.test,
        NodeTest::Kind(KindTest::Text)
            | NodeTest::Kind(KindTest::Comment)
            | NodeTest::Kind(KindTest::Pi(_))
    ) && matches!(cur.axis, Axis::Child | Axis::Descendant | Axis::Attribute | Axis::Namespace)
    {
        return Some(format!(
            "{}:: applied to {} nodes is empty (leaf kinds have no children or attributes)",
            cur.axis.name(),
            prev.test
        ));
    }
    // Consecutive self steps with disjoint tests: self::a/self::b, a ≠ b.
    if cur.axis == Axis::SelfAxis && tests_disjoint(&prev.test, &cur.test) {
        return Some(format!(
            "self::{} after a step testing {} is a contradiction",
            cur.test, prev.test
        ));
    }
    None
}

/// Are the two node tests provably disjoint, reading name-ish tests
/// (`Name`/`*`/`ns:*`) as element sets? Only sound when the *following*
/// step's axis is `self` on a non-attribute result (the caller's
/// obligation — attribute results are handled before this).
fn tests_disjoint(a: &NodeTest, b: &NodeTest) -> bool {
    use NodeTest::{Kind, Name, NsWildcard, Wildcard};
    match (a, b) {
        (Kind(KindTest::Node), _) | (_, Kind(KindTest::Node)) => false,
        (Name(x), Name(y)) => x != y,
        (Name(n), NsWildcard(p)) | (NsWildcard(p), Name(n)) => {
            n.split_once(':').is_none_or(|(np, _)| np != p)
        }
        (NsWildcard(p), NsWildcard(q)) => p != q,
        // Element-ish vs a concrete leaf kind.
        (Name(_) | Wildcard | NsWildcard(_), Kind(_))
        | (Kind(_), Name(_) | Wildcard | NsWildcard(_)) => true,
        (Wildcard, _) | (_, Wildcard) => false,
        (Kind(k1), Kind(k2)) => kinds_disjoint(k1, k2),
    }
}

fn kinds_disjoint(a: &KindTest, b: &KindTest) -> bool {
    match (a, b) {
        (KindTest::Pi(Some(x)), KindTest::Pi(Some(y))) => x != y,
        (KindTest::Pi(_), KindTest::Pi(_)) => false,
        _ => std::mem::discriminant(a) != std::mem::discriminant(b),
    }
}

/// Is this predicate provably false in every context? Returns the rule.
fn pred_false(e: &Expr) -> Option<String> {
    match e {
        Expr::Call { name, args } if name == "false" && args.is_empty() => {
            Some("false()".to_string())
        }
        Expr::Literal(s) if s.is_empty() => Some("'' converts to false".to_string()),
        Expr::Number(v) if *v == 0.0 || v.is_nan() => Some(format!("{v} converts to false")),
        Expr::Call { name, args } if name == "boolean" && args.len() == 1 => pred_false(&args[0]),
        Expr::Call { name, args } if name == "not" && args.len() == 1 => pred_true(&args[0])
            .then(|| format!("not({}) where the argument is always true", args[0])),
        Expr::Binary { op: BinaryOp::And, left, right } => {
            pred_false(left).or_else(|| pred_false(right))
        }
        Expr::Binary { op: BinaryOp::Or, left, right } => {
            let l = pred_false(left)?;
            pred_false(right)?;
            Some(format!("both or-branches are false ({l}, …)"))
        }
        Expr::Binary { op, left, right } if op.is_relational() => {
            // position() = k for impossible k (positions are integers ≥ 1).
            if *op == BinaryOp::Eq && is_position_call(left) {
                if let Expr::Number(k) = **right {
                    if k < 1.0 || k.fract() != 0.0 {
                        return Some(format!("position() = {k} never holds"));
                    }
                }
            }
            // Existential comparison against a provably empty node set is
            // false — unless the other side is boolean-typed, where XPath
            // converts the node set via boolean() first.
            for (a, b) in [(left, right), (right, left)] {
                if static_type(a) == ExprType::Nset && static_type(b) != ExprType::Bool {
                    if let Some(r) = nodeset_empty(a) {
                        return Some(format!("comparison against a provably empty node set ({r})"));
                    }
                }
            }
            None
        }
        _ => {
            if static_type(e) == ExprType::Nset {
                nodeset_empty(e).map(|r| format!("boolean of an empty node set ({r})"))
            } else {
                None
            }
        }
    }
}

/// Is this predicate provably true in every context? (Sound, incomplete;
/// used for `not(…)` propagation and the `always-true` lint.)
fn pred_true(e: &Expr) -> bool {
    match e {
        Expr::Call { name, args } if name == "true" && args.is_empty() => true,
        Expr::Literal(s) => !s.is_empty(),
        Expr::Number(v) => *v != 0.0 && !v.is_nan(),
        Expr::Call { name, args } if name == "boolean" && args.len() == 1 => pred_true(&args[0]),
        Expr::Call { name, args } if name == "not" && args.len() == 1 => {
            pred_false(&args[0]).is_some()
        }
        Expr::Binary { op: BinaryOp::And, left, right } => pred_true(left) && pred_true(right),
        Expr::Binary { op: BinaryOp::Or, left, right } => pred_true(left) || pred_true(right),
        _ => false,
    }
}

fn is_position_call(e: &Expr) -> bool {
    matches!(e, Expr::Call { name, args } if name == "position" && args.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpath_syntax::parse_normalized;

    fn report(q: &str) -> QueryReport {
        let plan = crate::plan::Plan::build(parse_normalized(q).unwrap(), Strategy::Auto, None);
        plan.unwrap().report().clone()
    }

    #[test]
    fn detects_structurally_empty_queries() {
        for q in [
            "/parent::*",                        // parent of the root
            "/ancestor::a",                      // ancestors of the root
            "/preceding-sibling::a",             // root has no siblings
            "/following::a",                     // nothing follows the root
            "/@id",                              // root has no attributes
            "/self::a",                          // the root is not an element
            "//b/self::c",                       // name contradiction
            "//b/self::text()",                  // kind contradiction
            "//@id/child::*",                    // attributes are childless
            "//@id/self::node()",                // §4 filters attributes from self
            "//@id/@x",                          // attributes have no attributes
            "//text()/child::*",                 // leaves are childless
            "//comment()/@x",                    // leaves have no attributes
            "//a/parent::text()",                // parents are never leaves
            "//a/@*[self::text()]",              // attribute axis yields no text (pred)
            "//a[false()]",                      // constant-false predicate
            "//a[0]",                            // position() = 0
            "//a[b and false()]",                // and-propagation
            "//a[not(true())]",                  // not(true)
            "//a[count(b) = //text()/child::*]", // comparison vs empty set
            "//a | /parent::*[false()]",         // hmm: union — see below
        ] {
            // The final union case is only empty if BOTH branches are; skip it.
            if q.starts_with("//a |") {
                continue;
            }
            let r = report(q);
            assert!(r.is_empty_query(), "{q} should be provably empty: {r:?}");
            assert!(
                matches!(r.const_result, Some(Value::NodeSet(ref s)) if s.is_empty()),
                "{q} should const-fold to the empty node set"
            );
        }
    }

    #[test]
    fn does_not_flag_satisfiable_queries() {
        for q in [
            "//a",
            "//a/b[c]",
            "/self::node()",
            "//@id",
            "//@id/..",              // parent of an attribute exists
            "//text()/self::node()", // text survives self::node()
            "//text()/following::*", // leaves have following nodes
            "//a[position() = 2]",
            "//a[not(b)]",
            "//a/self::*",      // wildcard overlaps name tests
            "//a | /parent::*", // one union branch satisfiable
            "count(//b)",
            "//chapter[title = 'Two']",
        ] {
            let r = report(q);
            assert!(!r.is_empty_query(), "{q} wrongly marked empty: {r:?}");
        }
    }

    #[test]
    fn scalar_wrappers_const_fold() {
        assert_eq!(report("count(//text()/child::*)").const_result, Some(Value::Number(0.0)));
        assert_eq!(report("boolean(/@x)").const_result, Some(Value::Boolean(false)));
        assert_eq!(report("not(/@x)").const_result, Some(Value::Boolean(true)));
        assert_eq!(report("count(//a)").const_result, None);
        // Scalar folds are reported as const-result warnings.
        assert!(report("count(/@x)")
            .diagnostics
            .iter()
            .any(|d| d.code == "const-result" && d.severity == Severity::Warning));
    }

    #[test]
    fn unknown_functions_are_errors() {
        let r = report("//a[string-join(b, ',')]");
        assert!(
            r.diagnostics
                .iter()
                .any(|d| d.code == "unknown-function" && d.severity == Severity::Error),
            "{r:?}"
        );
        assert_eq!(r.max_severity(), Some(Severity::Error));
        assert!(report("//a[contains(b, 'x')]")
            .diagnostics
            .iter()
            .all(|d| d.code != "unknown-function"));
    }

    #[test]
    fn empty_subpaths_warn_without_emptying_the_query() {
        let r = report("//a[b/self::c or d]");
        assert!(!r.is_empty_query(), "{r:?}");
        assert!(r.diagnostics.iter().any(|d| d.code == "empty-subpath"), "{r:?}");
    }

    #[test]
    fn lazy_verdict() {
        for q in ["//a/b", "//a[b]", "a/b", "//a[not(b)]/following::c", "//a[b = 'x']"] {
            assert_eq!(report(q).laziness, Laziness::Lazy, "{q}");
        }
        for (q, why) in [
            ("count(//a)", "outer fold"),
            ("//b[1]", "not the Core XPath algebra"),
            ("//a/parent::b", "parent:: in the spine"),
            ("//a[b]/preceding::c", "preceding:: in the spine"),
            ("//a = 'x'", "outer fold"),
            ("count(//b[1])", "not the Core XPath algebra"),
            ("//text()/child::*", "short-circuits"),
        ] {
            match report(q).laziness {
                Laziness::Materialize(reason) => assert!(reason.contains(why), "{q}: {reason}"),
                Laziness::Lazy => panic!("{q} must materialize"),
            }
        }
        // Only the fragment strategies run lazily, whatever the query.
        let e = parse_normalized("//a/b").unwrap();
        let plan = crate::plan::Plan::build(e, Strategy::TopDown, None).unwrap();
        assert!(!plan.report().laziness.is_lazy());
    }

    #[test]
    fn stats_fold() {
        let a = AnalysisStats::of(&report("//a/b"));
        let b = AnalysisStats::of(&report("//text()/child::*"));
        let s = a.plus(b);
        assert_eq!(s.analyzed, 2);
        assert_eq!(s.provably_empty, 1);
        // The empty query const-folds, so only the other one is lazy.
        assert_eq!((s.lazy, s.materialized), (1, 1));
        assert!(s.warnings >= 1);
    }

    #[test]
    fn diagnostics_render_with_severity_and_code() {
        let r = report("//text()/child::*");
        let d = r.diagnostics.iter().find(|d| d.code == "empty-query").unwrap();
        assert!(d.to_string().starts_with("warning[empty-query]:"), "{d}");
    }
}
