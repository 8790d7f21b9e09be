//! Sound, semantics-preserving query rewrites.
//!
//! The paper's algorithms take the normalized AST as-is; real engines
//! additionally simplify it first. This pass applies only rewrites that
//! are provably sound in the paper's semantics (the integration suite
//! checks preservation differentially on random documents):
//!
//! 1. `descendant-or-self::node()/child::t[preds]` → `descendant::t[preds]`
//!    — the classic `//` optimization — **only** when the `child` step's
//!    predicates do not depend on context position/size (a positional
//!    predicate counts siblings, which the merged step would not);
//! 2. elimination of bare `self::node()` steps, except directly after an
//!    `attribute`/`namespace` step (typed `self` removes those node kinds,
//!    so the step is *not* a no-op there);
//! 3. constant folding of arithmetic, relational operators, negation and
//!    boolean connectives over literals;
//! 4. `boolean(boolean(e))` → `boolean(e)` and `not(not(boolean-typed e))`
//!    → `boolean(e)`;
//! 5. folding of pure string functions over literals (`concat`,
//!    `starts-with`, `contains`, `string-length`, `normalize-space`) and of
//!    identity coercions (`number(num)`, `string(str)`, `boolean` of
//!    literals);
//! 6. removal of constant-`true()` predicates (a predicate that is `true`
//!    in every context filters nothing).

use crate::ast::{
    static_type, BinaryOp, Expr, ExprType, KindTest, LocationPath, NodeTest, PathStart, Step,
};
use crate::axis::Axis;

/// Whether an expression's value can depend on the context position or
/// size (conservative syntactic check: any `position()`/`last()` call
/// outside a nested location-step predicate makes it positional).
fn is_positional(e: &Expr) -> bool {
    match e {
        Expr::Call { name, .. } if name == "position" || name == "last" => true,
        Expr::Call { args, .. } => args.iter().any(is_positional),
        Expr::Binary { left, right, .. } => is_positional(left) || is_positional(right),
        Expr::Neg(inner) => is_positional(inner),
        // A nested path resets the context for its own predicates.
        Expr::Path(p) => match &p.start {
            PathStart::Expr(head) => is_positional(head),
            _ => false,
        },
        Expr::Filter { primary, .. } => is_positional(primary),
        Expr::Literal(_) | Expr::Number(_) | Expr::Var(_) => false,
    }
}

/// Apply all rewrites bottom-up until a fixpoint (one pass suffices for
/// the current rule set, applied on the way up).
pub fn optimize(e: &Expr) -> Expr {
    match e {
        Expr::Path(p) => Expr::Path(optimize_path(p)),
        Expr::Filter { primary, predicates } => Expr::Filter {
            primary: Box::new(optimize(primary)),
            predicates: predicates.iter().map(optimize).collect(),
        },
        Expr::Binary { op, left, right } => {
            let l = optimize(left);
            let r = optimize(right);
            fold_binary(*op, l, r)
        }
        Expr::Neg(inner) => {
            let i = optimize(inner);
            if let Expr::Number(v) = i {
                Expr::Number(-v)
            } else {
                Expr::Neg(Box::new(i))
            }
        }
        Expr::Call { name, args } => {
            let args: Vec<Expr> = args.iter().map(optimize).collect();
            // boolean(boolean(e)) → boolean(e); boolean(bool-typed e) → e.
            if name == "boolean" && args.len() == 1 && static_type(&args[0]) == ExprType::Bool {
                return args.into_iter().next().expect("one arg");
            }
            // not(not(e)) → boolean(e) when e is boolean-typed.
            if name == "not" && args.len() == 1 {
                if let Expr::Call { name: inner, args: inner_args } = &args[0] {
                    if inner == "not"
                        && inner_args.len() == 1
                        && static_type(&inner_args[0]) == ExprType::Bool
                    {
                        return inner_args[0].clone();
                    }
                }
            }
            if let Some(folded) = fold_call(name, &args) {
                return folded;
            }
            Expr::Call { name: name.clone(), args }
        }
        Expr::Literal(_) | Expr::Number(_) | Expr::Var(_) => e.clone(),
    }
}

/// Fold pure functions over literal arguments. These duplicate no tricky
/// semantics: each case is the verbatim definition from the Recommendation
/// with no context or document dependence.
fn fold_call(name: &str, args: &[Expr]) -> Option<Expr> {
    let lit = |e: &Expr| match e {
        Expr::Literal(s) => Some(s.clone()),
        _ => None,
    };
    match (name, args) {
        ("concat", _) if args.len() >= 2 => {
            let parts: Option<Vec<String>> = args.iter().map(lit).collect();
            parts.map(|p| Expr::Literal(p.concat()))
        }
        ("starts-with", [a, b]) => {
            Some(Expr::call(if lit(a)?.starts_with(&lit(b)?) { "true" } else { "false" }, vec![]))
        }
        ("contains", [a, b]) => {
            Some(Expr::call(if lit(a)?.contains(&lit(b)?) { "true" } else { "false" }, vec![]))
        }
        ("string-length", [a]) => Some(Expr::Number(lit(a)?.chars().count() as f64)),
        ("normalize-space", [a]) => {
            Some(Expr::Literal(lit(a)?.split_whitespace().collect::<Vec<_>>().join(" ")))
        }
        // Identity coercions over literals.
        ("number", [Expr::Number(v)]) => Some(Expr::Number(*v)),
        ("string", [Expr::Literal(s)]) => Some(Expr::Literal(s.clone())),
        ("boolean", [Expr::Literal(s)]) => {
            Some(Expr::call(if s.is_empty() { "false" } else { "true" }, vec![]))
        }
        ("boolean", [Expr::Number(v)]) => {
            Some(Expr::call(if *v != 0.0 && !v.is_nan() { "true" } else { "false" }, vec![]))
        }
        _ => None,
    }
}

fn fold_binary(op: BinaryOp, l: Expr, r: Expr) -> Expr {
    // Constant arithmetic and comparisons over number literals (IEEE 754,
    // exactly the evaluators' semantics).
    if let (Expr::Number(a), Expr::Number(b)) = (&l, &r) {
        let v = match op {
            BinaryOp::Add => Some(a + b),
            BinaryOp::Sub => Some(a - b),
            BinaryOp::Mul => Some(a * b),
            BinaryOp::Div => Some(a / b),
            BinaryOp::Mod => Some(a % b),
            _ => None,
        };
        if let Some(v) = v {
            return Expr::Number(v);
        }
        let b = match op {
            BinaryOp::Eq => Some(a == b),
            BinaryOp::Ne => Some(a != b),
            BinaryOp::Lt => Some(a < b),
            BinaryOp::Le => Some(a <= b),
            BinaryOp::Gt => Some(a > b),
            BinaryOp::Ge => Some(a >= b),
            _ => None,
        };
        if let Some(b) = b {
            return Expr::call(if b { "true" } else { "false" }, vec![]);
        }
    }
    // String equality over literals (EqOp: str × str, Table II).
    if let (Expr::Literal(a), Expr::Literal(b)) = (&l, &r) {
        match op {
            BinaryOp::Eq => return Expr::call(if a == b { "true" } else { "false" }, vec![]),
            BinaryOp::Ne => return Expr::call(if a != b { "true" } else { "false" }, vec![]),
            _ => {}
        }
    }
    // Boolean connectives with a constant true()/false() side. `and`/`or`
    // in XPath have no side effects, so dropping a side is sound.
    let truth = |e: &Expr| match e {
        Expr::Call { name, args } if args.is_empty() && name == "true" => Some(true),
        Expr::Call { name, args } if args.is_empty() && name == "false" => Some(false),
        _ => None,
    };
    match (op, truth(&l), truth(&r)) {
        (BinaryOp::And, Some(false), _) | (BinaryOp::And, _, Some(false)) => {
            return Expr::call("false", vec![])
        }
        (BinaryOp::Or, Some(true), _) | (BinaryOp::Or, _, Some(true)) => {
            return Expr::call("true", vec![])
        }
        (BinaryOp::And, Some(true), _) | (BinaryOp::Or, Some(false), _) => return as_boolean(r),
        (BinaryOp::And, _, Some(true)) | (BinaryOp::Or, _, Some(false)) => return as_boolean(l),
        _ => {}
    }
    Expr::binary(op, l, r)
}

/// The value of the expression under `boolean()` coercion, avoiding a
/// redundant wrapper for already-boolean expressions.
fn as_boolean(e: Expr) -> Expr {
    if static_type(&e) == ExprType::Bool {
        e
    } else {
        Expr::call("boolean", vec![e])
    }
}

fn optimize_path(p: &LocationPath) -> LocationPath {
    let start = match &p.start {
        PathStart::Expr(head) => PathStart::Expr(Box::new(optimize(head))),
        other => other.clone(),
    };
    let mut steps: Vec<Step> = Vec::with_capacity(p.steps.len());
    for s in &p.steps {
        let mut predicates: Vec<Expr> = s.predicates.iter().map(optimize).collect();
        // Rule 6: a constant-true predicate filters nothing in any context
        // (and predicate removal cannot change later predicates' positions,
        // because it removes no node).
        predicates.retain(
            |p| !matches!(p, Expr::Call { name, args } if name == "true" && args.is_empty()),
        );
        let s = Step { axis: s.axis, test: s.test.clone(), predicates };
        // Rule 1: …/descendant-or-self::node() + child::t[nonpositional]
        //         → …/descendant::t.
        let merges = steps.last().is_some_and(|prev| {
            prev.axis == Axis::DescendantOrSelf
                && prev.test == NodeTest::Kind(KindTest::Node)
                && prev.predicates.is_empty()
        }) && s.axis == Axis::Child
            && !s.predicates.iter().any(is_positional);
        if merges {
            steps.pop();
            steps.push(Step { axis: Axis::Descendant, test: s.test, predicates: s.predicates });
            continue;
        }
        // Rule 2: drop bare self::node() steps (not after attribute/ns).
        let droppable = s.axis == Axis::SelfAxis
            && s.test == NodeTest::Kind(KindTest::Node)
            && s.predicates.is_empty()
            && !steps.is_empty()
            && !matches!(steps.last().map(|x| x.axis), Some(Axis::Attribute | Axis::Namespace));
        if droppable {
            continue;
        }
        steps.push(s);
    }
    LocationPath { start, steps }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse, parse_normalized};

    fn opt(q: &str) -> String {
        optimize(&parse_normalized(q).unwrap()).to_string()
    }

    #[test]
    fn double_slash_merges() {
        assert_eq!(opt("//a"), "/descendant::a");
        assert_eq!(opt("//a//b"), "/descendant::a/descendant::b");
        assert_eq!(opt("//a[b]"), "/descendant::a[boolean(child::b)]");
    }

    #[test]
    fn positional_predicates_block_merge() {
        // //a[2] means "second a among its siblings", NOT the second
        // descendant — merging would change the answer.
        assert_eq!(opt("//a[2]"), "/descendant-or-self::node()/child::a[position() = 2]");
        assert_eq!(opt("//a[last()]"), "/descendant-or-self::node()/child::a[position() = last()]");
        // Nested positional predicates inside a sub-path are fine.
        assert_eq!(opt("//a[b[2]]"), "/descendant::a[boolean(child::b[position() = 2])]");
    }

    #[test]
    fn self_node_dropped_where_sound() {
        assert_eq!(opt("child::a/."), "child::a");
        assert_eq!(opt("a/./b"), "child::a/child::b");
        // Not dropped right after an attribute step.
        assert_eq!(opt("@x/."), "attribute::x/self::node()");
        // Not dropped as the only step (context filtering matters).
        assert_eq!(opt("."), "self::node()");
    }

    #[test]
    fn constant_folding() {
        assert_eq!(opt("1 + 2 * 3"), "7");
        assert_eq!(opt("-(2 - 5)"), "3");
        assert_eq!(opt("10 div 4"), "2.5");
        assert_eq!(opt("7 mod 3"), "1");
        assert_eq!(opt("count(//a) + 1 * 2"), "count(/descendant::a) + 2");
    }

    #[test]
    fn boolean_simplification() {
        assert_eq!(opt("true() and false()"), "false()");
        assert_eq!(opt("false() or true()"), "true()");
        assert_eq!(opt("//a[true() and b]"), "/descendant::a[boolean(child::b)]");
        assert_eq!(opt("not(not(1 < 2))"), "true()", "folds through the double negation");
        assert_eq!(opt("not(not(count(//a) < 2))"), "count(/descendant::a) < 2");
        assert_eq!(opt("boolean(boolean(//a))"), "boolean(/descendant::a)");
    }

    #[test]
    fn relational_and_string_folding() {
        assert_eq!(opt("1 < 2"), "true()");
        assert_eq!(opt("2 >= 3"), "false()");
        assert_eq!(opt("0 div 0 = 0 div 0"), "false()", "NaN != NaN");
        assert_eq!(opt("'ab' = 'ab'"), "true()");
        assert_eq!(opt("'ab' != 'cd'"), "true()");
        assert_eq!(opt("concat('a', 'b', 'c')"), "'abc'");
        assert_eq!(opt("starts-with('pineapple', 'pine')"), "true()");
        assert_eq!(opt("contains('pineapple', 'zzz')"), "false()");
        assert_eq!(opt("string-length('abc')"), "3");
        assert_eq!(opt("normalize-space('  a  b ')"), "'a b'");
        assert_eq!(opt("boolean('x')"), "true()");
        assert_eq!(opt("boolean('')"), "false()");
        assert_eq!(opt("boolean(0)"), "false()");
        // Non-literal arguments are left alone.
        assert_eq!(opt("concat('a', string(//b))"), "concat('a', string(/descendant::b))");
    }

    #[test]
    fn true_predicates_dropped() {
        assert_eq!(opt("//a[true()]"), "/descendant::a");
        assert_eq!(opt("//a[1 < 2]"), "/descendant::a");
        assert_eq!(opt("//a[true()][b]"), "/descendant::a[boolean(child::b)]");
        // false() predicates are NOT rewritten (no empty-set form).
        assert_eq!(opt("//a[false()]"), "/descendant::a[false()]");
    }

    #[test]
    fn optimized_queries_reparse() {
        for q in ["//a//b[c]", "//a[2]/b", "1+2", ". = 'x'", "//a[. and true()]"] {
            let o = optimize(&parse_normalized(q).unwrap());
            let printed = o.to_string();
            assert_eq!(parse(&printed).unwrap(), o, "{q} → {printed}");
        }
    }

    #[test]
    fn idempotent() {
        for q in ["//a//b[c][2]", "1 + 2", "//a[./b]/."] {
            let once = optimize(&parse_normalized(q).unwrap());
            let twice = optimize(&once);
            assert_eq!(once, twice, "{q}");
        }
    }
}
