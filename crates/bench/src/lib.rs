//! # xpath-bench — workloads and harness for the paper's evaluation
//!
//! Query generators for every experiment of §2/§9.3/§10–§12, wall-clock
//! timing helpers, growth-shape diagnostics (exponential doubling,
//! polynomial fits) and the closed-loop serve harness. Two binaries use
//! them: `experiments` regenerates the paper's tables and figures, each
//! ending in a SHAPE verdict, and `bench_axes` writes `BENCH_axes.json`
//! and re-measures its claims under `--check`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod serve_bench;
pub mod shape;
pub mod workloads;

use std::time::{Duration, Instant};

use xpath_core::{Context, EvalError, EvalResult, Strategy, Value};
use xpath_syntax::Expr;
use xpath_xml::Document;

/// Outcome of one timed evaluation point.
#[derive(Clone, Debug)]
pub struct Sample {
    /// The independent variable (query size or document size).
    pub x: usize,
    /// Wall-clock evaluation time.
    pub time: Duration,
    /// The value produced (None if the budget/cutoff aborted the run).
    pub value: Option<Value>,
}

/// Evaluate `query` on `doc` with `strategy`, timing a single run (the
/// workloads are macro-benchmarks).
pub fn time_once(
    doc: &Document,
    query: &Expr,
    strategy: Strategy,
) -> EvalResult<(Duration, Value)> {
    let ctx = Context::of(doc.root());
    let t = Instant::now();
    let v = xpath_core::plan::execute_adhoc(query, strategy, None, doc, ctx)?;
    Ok((t.elapsed(), v))
}

/// Run a series `xs → query(x)` under `strategy`, stopping once a point
/// exceeds `cutoff` (the paper's experiments likewise truncate the
/// exponential curves). The point that exceeded the cutoff is included.
///
/// For [`Strategy::Naive`] a location-step budget derived from the cutoff
/// additionally bounds each point: the next point of an exponential series
/// can be `|D|×` slower than the previous one, so a wall-clock check after
/// the fact is not enough.
pub fn run_series(
    doc: &Document,
    xs: &[usize],
    make_query: impl Fn(usize) -> String,
    strategy: Strategy,
    cutoff: Duration,
) -> Vec<Sample> {
    // Rough calibration: release-mode step throughput of the naive engine.
    const NAIVE_STEPS_PER_SEC: f64 = 1_000_000.0;
    let budget = (cutoff.as_secs_f64() * 4.0 * NAIVE_STEPS_PER_SEC) as u64;
    let mut out = Vec::new();
    for &x in xs {
        let q = make_query(x);
        let parsed = match xpath_syntax::parse_normalized(&q) {
            Ok(p) => p,
            Err(e) => panic!("workload query {q:?} failed to parse: {e}"),
        };
        let result = if strategy == Strategy::Naive {
            let ev = xpath_core::naive::NaiveEvaluator::with_budget(doc, budget);
            let ctx = Context::of(doc.root());
            let t = Instant::now();
            ev.evaluate(&parsed, ctx).map(|v| (t.elapsed(), v))
        } else {
            time_once(doc, &parsed, strategy)
        };
        match result {
            Ok((time, value)) => {
                let over = time > cutoff;
                out.push(Sample { x, time, value: Some(value) });
                if over {
                    break;
                }
            }
            Err(EvalError::BudgetExhausted) | Err(EvalError::Capacity(_)) => {
                out.push(Sample { x, time: cutoff, value: None });
                break;
            }
            Err(e) => panic!("workload query {q:?} failed: {e}"),
        }
    }
    out
}

/// Format a duration in seconds with millisecond resolution, matching the
/// paper's tables.
pub fn fmt_secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpath_xml::generate::doc_flat;

    #[test]
    fn run_series_stops_at_cutoff() {
        let d = doc_flat(2);
        let samples = run_series(
            &d,
            &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18],
            workloads::exp1_query,
            Strategy::Naive,
            Duration::from_millis(50),
        );
        assert!(!samples.is_empty());
        assert!(samples.len() < 18, "exponential series must hit the cutoff");
    }

    #[test]
    fn time_once_works() {
        let d = doc_flat(4);
        let q = xpath_syntax::parse_normalized("count(//b)").unwrap();
        let (t, v) = time_once(&d, &q, Strategy::TopDown).unwrap();
        assert_eq!(v, Value::Number(4.0));
        assert!(t < Duration::from_secs(1));
    }
}
