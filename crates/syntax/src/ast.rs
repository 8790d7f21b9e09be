//! Abstract syntax of XPath 1.0 expressions, in the paper's *unabbreviated
//! form* (§5): the parser desugars `//`, `@`, `.` and `..` during parsing,
//! and the [`normalize`](crate::normalize) pass makes positional predicates
//! and boolean conversions explicit.

use std::fmt;

use crate::axis::Axis;

/// A node test (paper §4): `τ(n)`, `τ()`, or a name/wildcard shorthand for
/// the principal node type of the axis.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum NodeTest {
    /// A name test `n` — shorthand for `τ(n)` where `τ` is the principal
    /// node type of the axis.
    Name(String),
    /// The wildcard `*` — all nodes of the principal type.
    Wildcard,
    /// `NCName:*` — all names from a given namespace prefix. Matched
    /// textually against the prefix part of stored names (the paper treats
    /// namespaces as orthogonal; see footnote 6).
    NsWildcard(String),
    /// A node-kind test: `node()`, `text()`, `comment()`,
    /// `processing-instruction()` or `processing-instruction('target')`.
    Kind(KindTest),
}

/// The node-kind tests of XPath 1.0.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum KindTest {
    /// `node()` — matches any node.
    Node,
    /// `text()`
    Text,
    /// `comment()`
    Comment,
    /// `processing-instruction()` with optional target literal.
    Pi(Option<String>),
}

/// One location step `χ::t[e1]…[em]`.
#[derive(Clone, PartialEq, Debug)]
pub struct Step {
    /// The axis `χ`.
    pub axis: Axis,
    /// The node test `t`.
    pub test: NodeTest,
    /// The predicates, applied in order (Figure 5).
    pub predicates: Vec<Expr>,
}

impl Step {
    /// A step with no predicates.
    pub fn simple(axis: Axis, test: NodeTest) -> Step {
        Step { axis, test, predicates: Vec::new() }
    }
}

/// Where a path begins.
#[derive(Clone, PartialEq, Debug)]
pub enum PathStart {
    /// Absolute path `/π` — starts at the document root.
    Root,
    /// Relative path — starts at the context node.
    ContextNode,
    /// `FilterExpr '/' RelativeLocationPath` — starts at each node of the
    /// node set the filter expression evaluates to (e.g. `id('x')/child::a`).
    Expr(Box<Expr>),
}

/// A location path: a start point and a sequence of steps.
#[derive(Clone, PartialEq, Debug)]
pub struct LocationPath {
    /// Starting point of the path.
    pub start: PathStart,
    /// The location steps, outermost first.
    pub steps: Vec<Step>,
}

impl LocationPath {
    /// `true` for absolute paths (`/π`).
    pub fn is_absolute(&self) -> bool {
        matches!(self.start, PathStart::Root)
    }
}

/// Binary operators of XPath 1.0 (paper §5: `ArithOp`, `EqOp`, `RelOp`,
/// plus the boolean connectives and node-set union).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BinaryOp {
    /// `or`
    Or,
    /// `and`
    And,
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `div`
    Div,
    /// `mod`
    Mod,
    /// `|` — node-set union.
    Union,
}

impl BinaryOp {
    /// The operator's surface syntax.
    pub fn symbol(self) -> &'static str {
        match self {
            BinaryOp::Or => "or",
            BinaryOp::And => "and",
            BinaryOp::Eq => "=",
            BinaryOp::Ne => "!=",
            BinaryOp::Lt => "<",
            BinaryOp::Le => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::Ge => ">=",
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "div",
            BinaryOp::Mod => "mod",
            BinaryOp::Union => "|",
        }
    }

    /// Is this one of the comparison operators (`EqOp ∪ GtOp`)?
    pub fn is_relational(self) -> bool {
        matches!(
            self,
            BinaryOp::Eq | BinaryOp::Ne | BinaryOp::Lt | BinaryOp::Le | BinaryOp::Gt | BinaryOp::Ge
        )
    }

    /// Is this an arithmetic operator (`ArithOp`)?
    pub fn is_arithmetic(self) -> bool {
        matches!(
            self,
            BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div | BinaryOp::Mod
        )
    }

    /// Binding strength for the pretty-printer (higher binds tighter).
    pub fn precedence(self) -> u8 {
        match self {
            BinaryOp::Or => 1,
            BinaryOp::And => 2,
            BinaryOp::Eq | BinaryOp::Ne => 3,
            BinaryOp::Lt | BinaryOp::Le | BinaryOp::Gt | BinaryOp::Ge => 4,
            BinaryOp::Add | BinaryOp::Sub => 5,
            BinaryOp::Mul | BinaryOp::Div | BinaryOp::Mod => 6,
            BinaryOp::Union => 8,
        }
    }
}

/// An XPath 1.0 expression.
#[derive(Clone, PartialEq, Debug)]
pub enum Expr {
    /// A location path.
    Path(LocationPath),
    /// `PrimaryExpr Predicate+` — a filter expression with at least one
    /// predicate, e.g. `(//a | //b)[3]`. (Predicate-less filter expressions
    /// are represented by their primary expression directly.)
    Filter {
        /// The primary expression producing a node set.
        primary: Box<Expr>,
        /// The predicates, applied with the `child`-like forward ordering.
        predicates: Vec<Expr>,
    },
    /// A binary operation.
    Binary {
        /// The operator.
        op: BinaryOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Unary minus.
    Neg(Box<Expr>),
    /// A string literal.
    Literal(String),
    /// A number literal.
    Number(f64),
    /// A variable reference `$name`. Per the paper (§5), variables stand
    /// for constants of the input binding.
    Var(String),
    /// A core-library function call.
    Call {
        /// Function name.
        name: String,
        /// Argument expressions.
        args: Vec<Expr>,
    },
}

impl Expr {
    /// Convenience constructor for a call.
    pub fn call(name: &str, args: Vec<Expr>) -> Expr {
        Expr::Call { name: name.to_string(), args }
    }

    /// Convenience constructor for a binary operation.
    pub fn binary(op: BinaryOp, left: Expr, right: Expr) -> Expr {
        Expr::Binary { op, left: Box::new(left), right: Box::new(right) }
    }

    /// Number of AST nodes — the query size `|Q|` used in complexity
    /// statements.
    pub fn size(&self) -> usize {
        let mut n = 0;
        self.walk(&mut |_| n += 1);
        n
    }

    /// Visit every subexpression (pre-order), including predicate
    /// expressions inside paths.
    pub fn walk<'a>(&'a self, f: &mut dyn FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Path(p) => {
                if let PathStart::Expr(e) = &p.start {
                    e.walk(f);
                }
                for s in &p.steps {
                    for pr in &s.predicates {
                        pr.walk(f);
                    }
                }
            }
            Expr::Filter { primary, predicates } => {
                primary.walk(f);
                for pr in predicates {
                    pr.walk(f);
                }
            }
            Expr::Binary { left, right, .. } => {
                left.walk(f);
                right.walk(f);
            }
            Expr::Neg(e) => e.walk(f),
            Expr::Call { args, .. } => {
                for a in args {
                    a.walk(f);
                }
            }
            Expr::Literal(_) | Expr::Number(_) | Expr::Var(_) => {}
        }
    }
}

/// The four XPath expression types (paper §5 / Table III).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExprType {
    /// Node set.
    Nset,
    /// IEEE-754 double.
    Num,
    /// Character string.
    Str,
    /// Boolean.
    Bool,
}

impl fmt::Display for ExprType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ExprType::Nset => "node-set",
            ExprType::Num => "number",
            ExprType::Str => "string",
            ExprType::Bool => "boolean",
        })
    }
}

/// The static type of an expression, derived from the grammar and the core
/// function library signatures (paper Table II).
pub fn static_type(e: &Expr) -> ExprType {
    match e {
        Expr::Path(_) | Expr::Filter { .. } => ExprType::Nset,
        Expr::Binary { op, .. } => match op {
            BinaryOp::Or | BinaryOp::And => ExprType::Bool,
            op if op.is_relational() => ExprType::Bool,
            BinaryOp::Union => ExprType::Nset,
            _ => ExprType::Num,
        },
        Expr::Neg(_) | Expr::Number(_) => ExprType::Num,
        Expr::Literal(_) => ExprType::Str,
        // Variables hold constants of any type; without a binding we assume
        // string (the most permissive for coercions). Callers that know the
        // binding should consult it instead.
        Expr::Var(_) => ExprType::Str,
        Expr::Call { name, .. } => function_return_type(name),
    }
}

/// Return type of a core-library function (Table II and the string/number
/// functions the paper references from the W3C recommendation).
pub fn function_return_type(name: &str) -> ExprType {
    match name {
        "count" | "sum" | "position" | "last" | "number" | "floor" | "ceiling" | "round"
        | "string-length" => ExprType::Num,
        "id" => ExprType::Nset,
        "string" | "concat" | "substring" | "substring-before" | "substring-after"
        | "normalize-space" | "translate" | "name" | "local-name" | "namespace-uri" => {
            ExprType::Str
        }
        "boolean" | "not" | "true" | "false" | "contains" | "starts-with" | "lang" => {
            ExprType::Bool
        }
        // Unknown functions are rejected at evaluation time; assume string.
        _ => ExprType::Str,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(axis: Axis, name: &str) -> Step {
        Step::simple(axis, NodeTest::Name(name.into()))
    }

    #[test]
    fn size_counts_subexpressions() {
        // count(child::a) + 1
        let e = Expr::binary(
            BinaryOp::Add,
            Expr::call(
                "count",
                vec![Expr::Path(LocationPath {
                    start: PathStart::ContextNode,
                    steps: vec![step(Axis::Child, "a")],
                })],
            ),
            Expr::Number(1.0),
        );
        // Binary, Call, Path, Number = 4.
        assert_eq!(e.size(), 4);
    }

    #[test]
    fn static_types() {
        assert_eq!(static_type(&Expr::Number(1.0)), ExprType::Num);
        assert_eq!(static_type(&Expr::Literal("x".into())), ExprType::Str);
        assert_eq!(static_type(&Expr::call("count", vec![])), ExprType::Num);
        assert_eq!(static_type(&Expr::call("boolean", vec![])), ExprType::Bool);
        assert_eq!(static_type(&Expr::call("id", vec![])), ExprType::Nset);
        let p = Expr::Path(LocationPath { start: PathStart::Root, steps: vec![] });
        assert_eq!(static_type(&p), ExprType::Nset);
        assert_eq!(
            static_type(&Expr::binary(BinaryOp::Union, p.clone(), p.clone())),
            ExprType::Nset
        );
        assert_eq!(
            static_type(&Expr::binary(BinaryOp::Lt, Expr::Number(1.0), Expr::Number(2.0))),
            ExprType::Bool
        );
        assert_eq!(
            static_type(&Expr::binary(BinaryOp::Mod, Expr::Number(1.0), Expr::Number(2.0))),
            ExprType::Num
        );
    }

    #[test]
    fn walk_visits_predicates() {
        let mut s = step(Axis::Child, "a");
        s.predicates.push(Expr::call("position", vec![]));
        let e = Expr::Path(LocationPath { start: PathStart::Root, steps: vec![s] });
        let mut kinds = Vec::new();
        e.walk(&mut |x| kinds.push(std::mem::discriminant(x)));
        assert_eq!(kinds.len(), 2);
    }

    #[test]
    fn precedence_ladder() {
        assert!(BinaryOp::Or.precedence() < BinaryOp::And.precedence());
        assert!(BinaryOp::And.precedence() < BinaryOp::Eq.precedence());
        assert!(BinaryOp::Eq.precedence() < BinaryOp::Lt.precedence());
        assert!(BinaryOp::Lt.precedence() < BinaryOp::Add.precedence());
        assert!(BinaryOp::Add.precedence() < BinaryOp::Mul.precedence());
        assert!(BinaryOp::Mul.precedence() < BinaryOp::Union.precedence());
    }
}
