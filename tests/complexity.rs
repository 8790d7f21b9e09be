//! Empirical complexity assertions — the paper's headline claims as tests.
//! Wall-clock checks use generous margins; where possible we assert on the
//! naive evaluator's deterministic step counter instead of time.

use std::time::{Duration, Instant};

use gkp_xpath::core::naive::NaiveEvaluator;
use gkp_xpath::core::pool::PoolEvaluator;
use gkp_xpath::core::{Context, Strategy};
use gkp_xpath::xml::generate::{doc_flat, doc_flat_text};
use gkp_xpath::Engine;

fn exp1_query(k: usize) -> String {
    let mut q = String::from("//a/b");
    for _ in 0..k {
        q.push_str("/parent::a/b");
    }
    q
}

/// §2: the naive recurrence Time(|Q|) = |D|^|Q| — on DOC(2) each
/// antagonist step multiplies the step count by the branching factor 2.
#[test]
fn naive_step_counts_follow_the_recurrence() {
    let d = doc_flat(2);
    let mut counts = Vec::new();
    for k in 4..10 {
        let e = gkp_xpath::syntax::parse_normalized(&exp1_query(k)).unwrap();
        let ev = NaiveEvaluator::new(&d);
        ev.evaluate(&e, Context::of(d.root())).unwrap();
        counts.push(ev.steps_applied() as f64);
    }
    for w in counts.windows(2) {
        let ratio = w[1] / w[0];
        assert!((1.7..2.3).contains(&ratio), "expected ~2x per step, got {counts:?}");
    }
}

/// §2 on wider documents: the branching factor tracks |D|.
#[test]
fn naive_branching_scales_with_document() {
    // On DOC(i) the same query family multiplies by ~i per step.
    for i in [3usize, 5] {
        let d = doc_flat(i);
        let steps: Vec<f64> = (3..6)
            .map(|k| {
                let e = gkp_xpath::syntax::parse_normalized(&exp1_query(k)).unwrap();
                let ev = NaiveEvaluator::new(&d);
                ev.evaluate(&e, Context::of(d.root())).unwrap();
                ev.steps_applied() as f64
            })
            .collect();
        let ratio = steps[1] / steps[0];
        assert!(
            (i as f64 * 0.7..i as f64 * 1.3).contains(&ratio),
            "DOC({i}): expected ~{i}x per step, ratios from {steps:?}"
        );
    }
}

/// Theorem 9.2: the data pool's step count grows linearly, not
/// exponentially, in query size.
#[test]
fn pool_step_counts_are_linear_in_query_size() {
    let d = doc_flat(2);
    let mut counts = Vec::new();
    for k in [5usize, 10, 20, 40] {
        let e = gkp_xpath::syntax::parse_normalized(&exp1_query(k)).unwrap();
        let ev = PoolEvaluator::new(&d);
        ev.evaluate(&e, Context::of(d.root())).unwrap();
        counts.push(ev.stats().steps_applied as f64);
    }
    // Doubling the query size should roughly double (not square) the steps.
    for w in counts.windows(2) {
        let ratio = w[1] / w[0];
        assert!(ratio < 3.0, "pool steps not linear: {counts:?}");
    }
}

/// Theorem 10.5: Core XPath time is close to linear in |D| (allow 4x
/// per doubling for allocator noise on a loaded machine).
#[test]
fn core_xpath_linear_in_data() {
    let q = "//b[not(following-sibling::b) or c]";
    let mut times = Vec::new();
    for n in [8_000usize, 16_000, 32_000] {
        let d = doc_flat(n);
        let engine = Engine::new(&d);
        let e = engine.prepare(q).unwrap();
        // Warm-up + best-of-3 to damp noise.
        let mut best = Duration::MAX;
        for _ in 0..3 {
            let t = Instant::now();
            engine.evaluate_expr(&e, Strategy::CoreXPath, Context::of(d.root())).unwrap();
            best = best.min(t.elapsed());
        }
        times.push(best.as_secs_f64());
    }
    for w in times.windows(2) {
        assert!(w[1] < w[0] * 4.0 + 0.005, "not linear-ish: {times:?}");
    }
}

/// §7: the top-down engine handles the paper's hardest workload (Table
/// VII's Experiment-2 queries) in time linear in query depth.
#[test]
fn topdown_linear_in_query_depth() {
    fn exp2_query(depth: usize) -> String {
        let mut inner = String::from("parent::a/child::* = 'c'");
        for _ in 1..depth {
            inner = format!("parent::a/child::*[{inner}] = 'c'");
        }
        format!("//*[{inner}]")
    }
    let d = doc_flat_text(100);
    let engine = Engine::new(&d);
    let mut times = Vec::new();
    for depth in [10usize, 20, 40] {
        let e = engine.prepare(&exp2_query(depth)).unwrap();
        let mut best = Duration::MAX;
        for _ in 0..3 {
            let t = Instant::now();
            engine.evaluate_expr(&e, Strategy::TopDown, Context::of(d.root())).unwrap();
            best = best.min(t.elapsed());
        }
        times.push(best.as_secs_f64());
    }
    // Doubling depth should at most ~quadruple time (linear + noise), and
    // must certainly not square it.
    for w in times.windows(2) {
        assert!(w[1] < w[0] * 5.0 + 0.01, "not linear-ish in depth: {times:?}");
    }
}

/// Pre/post-plane construction is a single linear pass: 16x the nodes must
/// cost far less than 16²x the time.
#[test]
fn plane_construction_is_linear() {
    use gkp_xpath::axes::PrePostPlane;
    let small = doc_flat(4_000);
    let large = doc_flat(64_000);
    let time = |d: &gkp_xpath::Document| {
        let mut best = Duration::MAX;
        for _ in 0..3 {
            let t = Instant::now();
            std::hint::black_box(PrePostPlane::new(d));
            best = best.min(t.elapsed());
        }
        best.as_secs_f64()
    };
    let (ts, tl) = (time(&small), time(&large));
    assert!(tl < ts * 80.0 + 0.01, "not linear-ish: {ts} -> {tl}");
}

/// All polynomial engines finish the full antagonist suite that stalls the
/// naive engine within its budget.
#[test]
fn polynomial_engines_survive_the_antagonist_suite() {
    let d = doc_flat(4);
    let engine = Engine::new(&d);
    let q = exp1_query(30);
    let e = engine.prepare(&q).unwrap();
    // Naive: blown budget.
    let naive = NaiveEvaluator::with_budget(&d, 500_000);
    assert!(naive.evaluate(&e, Context::of(d.root())).is_err());
    // Everything else: instant.
    for s in [
        Strategy::DataPool,
        Strategy::BottomUp,
        Strategy::TopDown,
        Strategy::MinContext,
        Strategy::OptMinContext,
        Strategy::CoreXPath,
    ] {
        let t = Instant::now();
        let v = engine.evaluate_expr(&e, s, Context::of(d.root())).unwrap();
        assert_eq!(v.as_node_set().unwrap().len(), 4, "{s:?}");
        assert!(t.elapsed() < Duration::from_secs(5), "{s:?} too slow");
    }
}
