//! Randomized differential testing: generate random XPath expressions and
//! random documents, and require all algorithms of the paper to agree
//! with the top-down reference. Also checks the parser/pretty-printer
//! round-trip on the generated queries.
//!
//! Every property runs on 40 cases drawn from a seeded splitmix64 stream
//! (`xpath_xml::rng`), so a failure reproduces on every run.

use gkp_xpath::core::{plan, Context, Strategy};
use gkp_xpath::syntax::{
    normalize, parse, Axis, BinaryOp, Expr, KindTest, LocationPath, NodeTest, PathStart, Step,
};
use gkp_xpath::xml::generate::{doc_random, RandomDocConfig};
use gkp_xpath::xml::rng::Rng;
use gkp_xpath::Document;

/// Cases per property.
const CASES: usize = 40;

/// Random query ASTs over a small vocabulary of axes, names and scalars.
struct QueryGen {
    rng: Rng,
}

impl QueryGen {
    fn new(seed: u64) -> QueryGen {
        QueryGen { rng: Rng::seed_from_u64(seed) }
    }

    fn pick<T: Clone>(&mut self, items: &[T]) -> T {
        items[self.rng.random_range(0..items.len())].clone()
    }

    fn axis(&mut self) -> Axis {
        self.pick(&[
            Axis::Child,
            Axis::Descendant,
            Axis::Parent,
            Axis::Ancestor,
            Axis::DescendantOrSelf,
            Axis::AncestorOrSelf,
            Axis::Following,
            Axis::Preceding,
            Axis::FollowingSibling,
            Axis::PrecedingSibling,
            Axis::SelfAxis,
            Axis::Attribute,
        ])
    }

    fn node_test(&mut self) -> NodeTest {
        match self.rng.random_range(0..4usize) {
            0 => NodeTest::Name(self.pick(&["a", "b", "c", "d", "id"]).to_string()),
            1 => NodeTest::Wildcard,
            2 => NodeTest::Kind(KindTest::Node),
            _ => NodeTest::Kind(KindTest::Text),
        }
    }

    fn scalar(&mut self) -> Expr {
        match self.rng.random_range(0..5usize) {
            0 => Expr::Number(f64::from(self.rng.random_range(0u32..5))),
            1 => Expr::Literal(self.pick(&["", "100", "c", "13 14"]).to_string()),
            2 => Expr::call("position", vec![]),
            3 => Expr::call("last", vec![]),
            _ => Expr::call("true", vec![]),
        }
    }

    /// One or two steps, absolute or relative, with predicates nested at
    /// most `depth` deep.
    fn path(&mut self, depth: u32) -> LocationPath {
        let start =
            if self.rng.random_bool(0.5) { PathStart::Root } else { PathStart::ContextNode };
        let steps = (0..self.rng.random_range(1..=2usize))
            .map(|_| Step {
                axis: self.axis(),
                test: self.node_test(),
                predicates: self.predicates(depth),
            })
            .collect();
        LocationPath { start, steps }
    }

    /// No predicate at depth 0, else none or one.
    fn predicates(&mut self, depth: u32) -> Vec<Expr> {
        if depth == 0 || self.rng.random_bool(0.5) {
            Vec::new()
        } else {
            vec![self.expr(depth - 1)]
        }
    }

    /// A scalar or a path (half each).
    fn leaf(&mut self, depth: u32) -> Expr {
        if self.rng.random_bool(0.5) {
            self.scalar()
        } else {
            Expr::Path(self.path(depth))
        }
    }

    /// An expression nested at most `depth` deep: leaves, binary
    /// operators, and `count`/`boolean`/`not` calls, weighted 3:2:1:1:1.
    fn expr(&mut self, depth: u32) -> Expr {
        if depth == 0 {
            return self.leaf(0);
        }
        match self.rng.random_range(0..8usize) {
            0..=2 => self.leaf(depth),
            3 | 4 => loop {
                let op = self.pick(&[
                    BinaryOp::Or,
                    BinaryOp::And,
                    BinaryOp::Eq,
                    BinaryOp::Ne,
                    BinaryOp::Lt,
                    BinaryOp::Ge,
                    BinaryOp::Add,
                    BinaryOp::Mul,
                    BinaryOp::Union,
                ]);
                let (l, r) = (self.expr(depth - 1), self.expr(depth - 1));
                // Union operands must be node sets: draw again otherwise.
                if op != BinaryOp::Union || matches!((&l, &r), (Expr::Path(_), Expr::Path(_))) {
                    break Expr::binary(op, l, r);
                }
            },
            5 => Expr::call("count", vec![Expr::Path(self.path(depth - 1))]),
            6 => Expr::call("boolean", vec![Expr::Path(self.path(depth - 1))]),
            _ => Expr::call("not", vec![Expr::call("boolean", vec![self.expr(depth - 1)])]),
        }
    }

    /// A random 18-element document (one of 500 seeds).
    fn doc(&mut self) -> Document {
        let cfg = RandomDocConfig { elements: 18, ..RandomDocConfig::default() };
        doc_random(self.rng.next_u64() % 500, &cfg)
    }
}

/// All algorithms agree with the top-down reference on random queries
/// over random documents.
#[test]
fn engines_agree_on_random_queries() {
    let mut g = QueryGen::new(1);
    for _ in 0..CASES {
        let qexpr = g.expr(2);
        let doc = g.doc();
        // Normalize like the public API does.
        let normalized = normalize::normalize(&qexpr).unwrap();
        plan::evaluate_all_agree(&normalized, &doc, Context::of(doc.root()), 400_000)
            .unwrap_or_else(|err| panic!("query {normalized} (from {qexpr:?}): {err}"));
    }
}

/// Display → parse round-trips the random ASTs.
#[test]
fn display_parse_roundtrip() {
    let mut g = QueryGen::new(2);
    for _ in 0..CASES {
        let qexpr = g.expr(2);
        let printed = qexpr.to_string();
        let reparsed = parse(&printed).unwrap_or_else(|e| panic!("reparse {printed:?}: {e}"));
        assert_eq!(qexpr, reparsed, "printed as {printed}");
    }
}

/// Normalization is idempotent on random ASTs.
#[test]
fn normalize_idempotent() {
    let mut g = QueryGen::new(3);
    for _ in 0..CASES {
        let once = normalize::normalize(&g.expr(2)).unwrap();
        let twice = normalize::normalize(&once).unwrap();
        assert_eq!(once, twice);
    }
}

/// The rewrite pass preserves semantics: optimized and original queries
/// produce the same value under the top-down reference evaluator.
#[test]
fn rewrites_preserve_semantics() {
    let mut g = QueryGen::new(4);
    for _ in 0..CASES {
        let qexpr = g.expr(2);
        let doc = g.doc();
        let normalized = normalize::normalize(&qexpr).unwrap();
        let optimized = gkp_xpath::syntax::rewrite::optimize(&normalized);
        let ctx = Context::of(doc.root());
        let a = plan::execute_adhoc(&normalized, Strategy::TopDown, None, &doc, ctx).unwrap();
        let b = plan::execute_adhoc(&optimized, Strategy::TopDown, None, &doc, ctx).unwrap();
        assert!(
            a.semantically_equal(&b),
            "query {normalized} → {optimized} differs: {a:?} vs {b:?}"
        );
    }
}
