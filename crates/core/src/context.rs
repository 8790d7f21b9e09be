//! Evaluation contexts (paper §5: `~c = ⟨x, k, n⟩`), evaluation errors,
//! and the cooperative evaluation budget ([`EvalBudget`]).

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use xpath_xml::NodeId;

/// An XPath evaluation context: context node `x`, context position `k`,
/// context size `n` with `1 ≤ k ≤ n` (paper §5).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Context {
    /// The context node `x`.
    pub node: NodeId,
    /// The context position `k` (1-based).
    pub position: u32,
    /// The context size `n`.
    pub size: u32,
}

impl Context {
    /// A context with position = size = 1 (the usual top-level context).
    pub fn of(node: NodeId) -> Context {
        Context { node, position: 1, size: 1 }
    }

    /// A full context.
    pub fn new(node: NodeId, position: u32, size: u32) -> Context {
        debug_assert!(position >= 1 && position <= size.max(1));
        Context { node, position, size }
    }
}

impl fmt::Display for Context {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨{}, {}, {}⟩", self.node, self.position, self.size)
    }
}

/// Errors raised during query compilation or evaluation.
#[derive(Clone, Debug, PartialEq)]
pub enum EvalError {
    /// The query text failed to lex, parse, or normalize (including
    /// unbound variables discovered during binding substitution). Raised
    /// by the static phase — [`crate::query::Compiler`] — never by the
    /// evaluators themselves.
    Parse(String),
    /// An unknown function was called.
    UnknownFunction(String),
    /// A function was called with the wrong number of arguments.
    WrongArity {
        /// Function name.
        function: String,
        /// Number of arguments supplied.
        got: usize,
        /// Expected arity description (e.g. "2" or "2..=3").
        expected: &'static str,
    },
    /// An operand had a type the operation does not accept (e.g. applying a
    /// location step to a number).
    TypeMismatch(String),
    /// A variable had no binding (the paper assumes bindings are inlined by
    /// normalization).
    UnboundVariable(String),
    /// The evaluator's step budget was exhausted. Only the exponential-time
    /// baseline evaluators use budgets, so experiment harnesses can bound
    /// runaway queries the way the paper's experiments bounded wall-clock
    /// time.
    BudgetExhausted,
    /// A context-value table would exceed the configured capacity (the
    /// bottom-up algorithm materializes `O(|D|)`–`O(|D|³)` rows per
    /// subexpression; see Theorem 6.6).
    Capacity(String),
    /// The query is outside the fragment this evaluator supports (e.g. a
    /// non-Core-XPath query given to the Core XPath engine).
    UnsupportedFragment(String),
    /// The evaluation was cancelled through the [`EvalBudget`] cancel
    /// flag. The worker unwinds cleanly at the next block boundary —
    /// nothing is poisoned, no buffers leak.
    Cancelled,
    /// The [`EvalBudget`] deadline passed before the evaluation finished.
    /// Like [`EvalError::Cancelled`], this is a clean cooperative exit.
    DeadlineExceeded,
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Parse(m) => write!(f, "parse error: {m}"),
            EvalError::UnknownFunction(n) => write!(f, "unknown function {n}()"),
            EvalError::WrongArity { function, got, expected } => {
                write!(f, "{function}() expects {expected} argument(s), got {got}")
            }
            EvalError::TypeMismatch(m) => write!(f, "type mismatch: {m}"),
            EvalError::UnboundVariable(v) => write!(f, "unbound variable ${v}"),
            EvalError::BudgetExhausted => write!(f, "evaluation step budget exhausted"),
            EvalError::Capacity(m) => write!(f, "capacity exceeded: {m}"),
            EvalError::UnsupportedFragment(m) => write!(f, "unsupported fragment: {m}"),
            EvalError::Cancelled => write!(f, "evaluation cancelled"),
            EvalError::DeadlineExceeded => write!(f, "evaluation deadline exceeded"),
        }
    }
}

impl std::error::Error for EvalError {}

/// Result alias for evaluation.
pub type EvalResult<T> = Result<T, EvalError>;

/// A cooperative evaluation budget: an optional wall-clock deadline and
/// an optional shared cancel flag.
///
/// Every evaluation entry point accepts a budget (`evaluate_with`,
/// [`Plan::execute`](crate::plan::Plan::execute),
/// `QuerySet::evaluate_all_with`, the cursor layer) and polls it at
/// **block boundaries** — between axis passes, CVT row fills, cursor
/// blocks — never inside a kernel's inner loop. A tripped budget surfaces as
/// [`EvalError::Cancelled`] or [`EvalError::DeadlineExceeded`]; the
/// evaluator unwinds through ordinary `Result` propagation, so pooled
/// buffers are released by `Drop` as usual and the worker thread is
/// reusable immediately.
///
/// The check granularity is a pass over the document (or a ~4096-node
/// cursor block), so cancellation latency is bounded by one pass, not
/// by whole-query time — the property a deadline exists to provide on
/// pathological queries.
#[derive(Clone, Debug, Default)]
pub struct EvalBudget {
    deadline: Option<Instant>,
    cancel: Option<Arc<AtomicBool>>,
}

impl EvalBudget {
    /// A budget that never trips (the default for every plain
    /// `evaluate` entry point).
    pub fn unlimited() -> EvalBudget {
        EvalBudget::default()
    }

    /// A budget that trips once `deadline` passes.
    pub fn deadline(deadline: Instant) -> EvalBudget {
        EvalBudget { deadline: Some(deadline), cancel: None }
    }

    /// A budget that trips `timeout` from now.
    pub fn timeout(timeout: Duration) -> EvalBudget {
        EvalBudget::deadline(Instant::now() + timeout)
    }

    /// Attach a shared cancel flag; setting it to `true` (any ordering)
    /// trips the budget at the next check.
    #[must_use]
    pub fn with_cancel(mut self, cancel: Arc<AtomicBool>) -> EvalBudget {
        self.cancel = Some(cancel);
        self
    }

    /// Poll the budget: `Err(Cancelled)` if the cancel flag is set,
    /// `Err(DeadlineExceeded)` if the deadline has passed, else `Ok`.
    /// Cancellation wins over the deadline when both apply.
    #[inline]
    pub fn check(&self) -> EvalResult<()> {
        if let Some(c) = &self.cancel {
            if c.load(Ordering::Relaxed) {
                return Err(EvalError::Cancelled);
            }
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Err(EvalError::DeadlineExceeded);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_of() {
        let c = Context::of(NodeId(3));
        assert_eq!(c.position, 1);
        assert_eq!(c.size, 1);
        assert_eq!(c.to_string(), "⟨n3, 1, 1⟩");
    }

    #[test]
    fn error_display() {
        assert_eq!(
            EvalError::UnknownFunction("frob".into()).to_string(),
            "unknown function frob()"
        );
        assert_eq!(
            EvalError::WrongArity { function: "concat".into(), got: 1, expected: "2 or more" }
                .to_string(),
            "concat() expects 2 or more argument(s), got 1"
        );
        assert_eq!(EvalError::BudgetExhausted.to_string(), "evaluation step budget exhausted");
        assert_eq!(
            EvalError::Parse("unexpected token".into()).to_string(),
            "parse error: unexpected token"
        );
        assert_eq!(EvalError::Cancelled.to_string(), "evaluation cancelled");
        assert_eq!(EvalError::DeadlineExceeded.to_string(), "evaluation deadline exceeded");
    }

    #[test]
    fn budget_unlimited_never_trips() {
        assert_eq!(EvalBudget::unlimited().check(), Ok(()));
    }

    #[test]
    fn budget_deadline_trips() {
        let b = EvalBudget::deadline(Instant::now() - Duration::from_millis(1));
        assert_eq!(b.check(), Err(EvalError::DeadlineExceeded));
        let later = EvalBudget::timeout(Duration::from_secs(3600));
        assert_eq!(later.check(), Ok(()));
    }

    #[test]
    fn budget_cancel_wins_over_deadline() {
        let flag = Arc::new(AtomicBool::new(false));
        let b = EvalBudget::deadline(Instant::now() - Duration::from_millis(1))
            .with_cancel(Arc::clone(&flag));
        assert_eq!(b.check(), Err(EvalError::DeadlineExceeded));
        flag.store(true, Ordering::Relaxed);
        assert_eq!(b.check(), Err(EvalError::Cancelled));
    }
}
