//! Lifting Core XPath / XPatterns paths out of a query (the static half of
//! [`Strategy::Auto`]).
//!
//! Figure 1 labels a whole query. `count(//item[@sale])` is Full XPath by
//! that label, yet all its document work is the Core XPath path inside the
//! `count`, which the §10 algebra evaluates in `O(|D|·|Q|)`. [`Program`]
//! splits such a query into
//!
//! * the **lifted paths** — every maximal location path outside a
//!   predicate, each compiled to the algebra with
//!   [`corexpath::compile_dialect`] (Core XPath when it fits, otherwise
//!   XPatterns), and
//! * the **outer fold** — the rest of the query (function calls,
//!   comparisons, arithmetic, `|`, constants) over those paths' node sets,
//!   evaluated once at the query's context by [`functions::apply`] and
//!   [`apply_binary`].
//!
//! A whole-query path is the special case "one lifted path, identity
//! fold", so Core XPath / XPatterns dispatch has a single code path. If any
//! path outside a predicate fits neither dialect (or the query uses a
//! filter expression, a variable or an unknown function), nothing is lifted
//! and Auto resolves by Figure 1 as before. Forced strategies never lift:
//! [`Program::whole`] compiles the whole query or rejects it.

use std::fmt;

use xpath_syntax::{BinaryOp, Expr};
use xpath_xml::Document;

use crate::context::{Context, EvalBudget, EvalResult};
use crate::corexpath::{self, CoreDialect, CoreQuery, CoreXPathEvaluator};
use crate::eval_common::apply_binary;
use crate::functions;
use crate::nodeset::NodeSet;
use crate::plan::Strategy;
use crate::value::{number_to_string, Value};

/// One location path compiled to the §10 algebra.
#[derive(Clone, Debug)]
pub struct LiftedPath {
    /// The path as it appears in the query (for `--explain`).
    pub source: Expr,
    /// The narrowest dialect that accepts it.
    pub dialect: CoreDialect,
    /// The compiled algebra program.
    pub query: CoreQuery,
}

/// The part of a query outside its lifted paths: a scalar expression whose
/// leaves are constants and lifted-path slots.
#[derive(Clone, Debug, PartialEq)]
pub enum Fold {
    /// The node set of lifted path `i`.
    Path(usize),
    /// A string literal.
    Literal(String),
    /// A number literal.
    Number(f64),
    /// Unary minus.
    Neg(Box<Fold>),
    /// A binary operator (`and`/`or` included; both sides are evaluated,
    /// like the general evaluators do).
    Binary {
        /// The operator.
        op: BinaryOp,
        /// Left operand.
        left: Box<Fold>,
        /// Right operand.
        right: Box<Fold>,
    },
    /// A core-library function call.
    Call {
        /// Function name (always [`functions::is_known`]).
        name: String,
        /// Arguments.
        args: Vec<Fold>,
    },
}

/// Arguments up to this count are evaluated into a stack buffer, so the
/// common `count(π)` / `contains(π, 'x')` shapes fold without allocating.
const INLINE_ARGS: usize = 3;

impl Fold {
    /// Evaluate the fold at `ctx`, asking `path` for the node set of each
    /// lifted path it reaches (each slot is asked for exactly once, in
    /// slot order).
    pub fn eval(
        &self,
        doc: &Document,
        ctx: &Context,
        path: &mut dyn FnMut(usize) -> EvalResult<NodeSet>,
    ) -> EvalResult<Value> {
        Ok(match self {
            Fold::Path(i) => Value::NodeSet(path(*i)?),
            Fold::Literal(s) => Value::String(s.clone()),
            Fold::Number(v) => Value::Number(*v),
            Fold::Neg(inner) => Value::Number(-inner.eval(doc, ctx, path)?.to_number(doc)),
            Fold::Binary { op, left, right } => {
                let l = left.eval(doc, ctx, path)?;
                let r = right.eval(doc, ctx, path)?;
                apply_binary(doc, *op, l, r)?
            }
            Fold::Call { name, args } => {
                let mut inline: [Value; INLINE_ARGS] =
                    std::array::from_fn(|_| Value::Boolean(false));
                let mut spill = Vec::new();
                let slots = if args.len() <= INLINE_ARGS {
                    &mut inline[..args.len()]
                } else {
                    spill.resize(args.len(), Value::Boolean(false));
                    &mut spill[..]
                };
                for (slot, a) in slots.iter_mut().zip(args) {
                    *slot = a.eval(doc, ctx, path)?;
                }
                functions::apply(doc, name, slots, ctx)?
            }
        })
    }
}

impl fmt::Display for Fold {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fold::Path(i) => write!(f, "#{i}"),
            Fold::Literal(s) if s.contains('\'') => write!(f, "\"{s}\""),
            Fold::Literal(s) => write!(f, "'{s}'"),
            Fold::Number(v) => f.write_str(&number_to_string(*v)),
            Fold::Neg(inner) => write!(f, "-{inner}"),
            Fold::Binary { op, left, right } => {
                let side = |x: &Fold| match x {
                    Fold::Binary { .. } => format!("({x})"),
                    _ => x.to_string(),
                };
                write!(f, "{} {} {}", side(left), op.symbol(), side(right))
            }
            Fold::Call { name, args } => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{a}")?;
                }
                f.write_str(")")
            }
        }
    }
}

/// A query split into lifted algebra paths and the fold over them.
#[derive(Clone, Debug)]
pub struct Program {
    paths: Vec<LiftedPath>,
    fold: Fold,
}

impl Program {
    /// The whole query as one path of `dialect` (identity fold) — what an
    /// explicitly requested fragment strategy runs. Fails with
    /// [`EvalError::UnsupportedFragment`](crate::EvalError::UnsupportedFragment)
    /// when the query is not such a path.
    pub fn whole(expr: &Expr, dialect: CoreDialect) -> EvalResult<Program> {
        let query = corexpath::compile_dialect(expr, dialect)?;
        Ok(Program {
            paths: vec![LiftedPath { source: expr.clone(), dialect, query }],
            fold: Fold::Path(0),
        })
    }

    /// Lift every maximal location path of `expr` outside a predicate onto
    /// the algebra. `None` when some such path fits neither dialect, when
    /// the query has no path at all, or when the outer expression is not a
    /// plain scalar expression (filter expressions, variables, unknown
    /// functions) — those queries resolve by Figure 1.
    pub fn lift(expr: &Expr) -> Option<Program> {
        let mut paths = Vec::new();
        let fold = lift_into(expr, &mut paths)?;
        (!paths.is_empty()).then_some(Program { paths, fold })
    }

    /// The lifted paths, indexed by their [`Fold::Path`] slots.
    pub fn paths(&self) -> &[LiftedPath] {
        &self.paths
    }

    /// The outer fold.
    pub fn fold(&self) -> &Fold {
        &self.fold
    }

    /// The single compiled path when the fold is the identity — the query
    /// *is* a Core XPath / XPatterns path (the cursor's lazy pipeline and
    /// the lazy verdict read it).
    pub fn whole_path(&self) -> Option<&CoreQuery> {
        match (&self.fold, self.paths.as_slice()) {
            (Fold::Path(0), [only]) => Some(&only.query),
            _ => None,
        }
    }

    /// The strategy the program reports: [`Strategy::XPatterns`] if any
    /// lifted path needs it, else [`Strategy::CoreXPath`].
    pub fn strategy(&self) -> Strategy {
        if self.paths.iter().any(|p| p.dialect == CoreDialect::XPatterns) {
            Strategy::XPatterns
        } else {
            Strategy::CoreXPath
        }
    }

    /// Run every lifted path on `ev` at `ctx` under `budget`, then fold.
    pub fn execute(
        &self,
        ev: &CoreXPathEvaluator<'_>,
        doc: &Document,
        ctx: Context,
        budget: &EvalBudget,
    ) -> EvalResult<Value> {
        let ctx_nodes = [ctx.node];
        self.fold.eval(doc, &ctx, &mut |i| ev.evaluate(&self.paths[i].query, &ctx_nodes, budget))
    }
}

/// Compile `e` to the narrowest dialect that accepts it.
fn compile_fragment(e: &Expr) -> Option<(CoreDialect, CoreQuery)> {
    [CoreDialect::CoreXPath, CoreDialect::XPatterns]
        .into_iter()
        .find_map(|d| corexpath::compile_dialect(e, d).ok().map(|q| (d, q)))
}

/// The fold of `e`, pushing each lifted path onto `paths` (its index is
/// its [`Fold::Path`] slot), or `None` when `e` does not lift.
fn lift_into(e: &Expr, paths: &mut Vec<LiftedPath>) -> Option<Fold> {
    // Location paths and `id(…)` heads are the only shapes the algebra
    // compiler accepts; anything else is part of the fold.
    let path_like =
        matches!(e, Expr::Path(_)) || matches!(e, Expr::Call { name, .. } if name == "id");
    if path_like {
        if let Some((dialect, query)) = compile_fragment(e) {
            paths.push(LiftedPath { source: e.clone(), dialect, query });
            return Some(Fold::Path(paths.len() - 1));
        }
    }
    Some(match e {
        Expr::Literal(s) => Fold::Literal(s.clone()),
        Expr::Number(v) => Fold::Number(*v),
        Expr::Neg(inner) => Fold::Neg(Box::new(lift_into(inner, paths)?)),
        Expr::Binary { op, left, right } => Fold::Binary {
            op: *op,
            left: Box::new(lift_into(left, paths)?),
            right: Box::new(lift_into(right, paths)?),
        },
        Expr::Call { name, args } if functions::is_known(name) => Fold::Call {
            name: name.clone(),
            args: args.iter().map(|a| lift_into(a, paths)).collect::<Option<_>>()?,
        },
        // A path outside both dialects, a filter expression, a variable
        // or an unknown function.
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpath_syntax::parse_normalized;

    fn lift(q: &str) -> Option<Program> {
        Program::lift(&parse_normalized(q).unwrap())
    }

    #[test]
    fn whole_paths_are_one_path_with_identity_fold() {
        let p = lift("//book[author]").unwrap();
        assert!(p.whole_path().is_some());
        assert_eq!(p.strategy(), Strategy::CoreXPath);
        let p = lift("//book[title = 'x']").unwrap();
        assert!(p.whole_path().is_some());
        assert_eq!(p.strategy(), Strategy::XPatterns);
    }

    #[test]
    fn aggregates_lift_their_paths() {
        let p = lift("count(//book[author])").unwrap();
        assert_eq!(p.paths().len(), 1);
        assert!(p.whole_path().is_none());
        assert_eq!(p.fold().to_string(), "count(#0)");
        let p = lift("sum(//book/@year) > 3 * count(//magazine | //book)").unwrap();
        assert_eq!(p.paths().len(), 3);
        assert_eq!(p.fold().to_string(), "sum(#0) > (3 * count(#1 | #2))");
        // id(π) lifts whole as an XPatterns path (Lemma 10.6).
        let p = lift("count(id(//related))").unwrap();
        assert_eq!(p.paths().len(), 1);
        assert_eq!(p.strategy(), Strategy::XPatterns);
        // A positional path, a path-free query and a filter expression
        // resolve by Figure 1 instead.
        for q in ["count(//book[1])", "1 + 2", "(//book)[1]"] {
            assert!(lift(q).is_none(), "{q}");
        }
    }
}
