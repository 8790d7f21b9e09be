//! Query-plan explanation: make the paper's static analyses visible.
//!
//! For a prepared query, [`explain`] reports
//!
//! * the Figure 1 fragment classification and the strategy `Auto` picks;
//! * for a query whose paths were lifted onto the §10 algebra
//!   ([`crate::lift`]), each lifted path with its dialect and the outer
//!   fold over them;
//! * Extended-Wadler restriction violations, if the query runs on a
//!   general evaluator;
//! * the relevant-context set `Relev(N)` (§8.2) of every subexpression;
//! * which subexpressions OptMinContext will evaluate bottom-up
//!   (`boolean(π)` / `π RelOp c` occurrences, §11.1), and which
//!   predicates MinContext decides by index (`[by position]`: the closed
//!   form `position() op R` of [`crate::mincontext`]);
//! * the context-value-table row counts the bottom-up algorithm would
//!   materialize for a given document size (Theorem 6.6 made concrete).

use std::fmt::Write as _;

use xpath_syntax::{Expr, PathStart};

use crate::analyze::Laziness;
use crate::corexpath::CoreDialect;
use crate::fragment::Fragment;
use crate::mincontext::position_test;
use crate::plan::{Plan, Strategy};
use crate::relev::relev;
use crate::wadler;

/// A rendered explanation of how the engines will treat a query.
#[derive(Clone, Debug)]
pub struct Explanation {
    /// The Figure 1 fragment.
    pub fragment: Fragment,
    /// Human-readable multi-line report.
    pub report: String,
    /// Number of bottom-up path occurrences OptMinContext will seed.
    pub bottomup_paths: usize,
}

/// Explain a compiled plan. `doc_size` parameterizes the table-size
/// estimates; pass the target document's `len()` or an indicative size.
pub fn explain(plan: &Plan, doc_size: usize) -> Explanation {
    let e = &plan.expr;
    let c = &plan.classification;
    let mut report = String::new();
    let _ = writeln!(report, "query:     {e}");
    let _ = writeln!(report, "fragment:  {} ({})", c.fragment.name(), c.fragment.complexity());
    let _ = match plan.strategy {
        Strategy::CoreXPath => writeln!(report, "strategy:  CoreXPath (S→/S←/E1 algebra)"),
        Strategy::XPatterns => {
            writeln!(report, "strategy:  XPatterns (Core XPath + id axis + value tests π op c)")
        }
        Strategy::OptMinContext => writeln!(
            report,
            "strategy:  OptMinContext (Algorithm 11.1: bottom-up paths + MinContext)"
        ),
        other => writeln!(report, "strategy:  {other:?} (explicitly requested)"),
    };
    match plan.program() {
        // Lifted paths under an outer fold: the fragment label above is
        // the whole query's, the work is the paths'.
        Some(program) if program.whole_path().is_none() => {
            let _ = writeln!(
                report,
                "lifted:    {} path(s) on the §10 algebra; outer fold: {}",
                program.paths().len(),
                program.fold()
            );
            for (i, p) in program.paths().iter().enumerate() {
                let dialect = match p.dialect {
                    CoreDialect::CoreXPath => "Core XPath",
                    CoreDialect::XPatterns => "XPatterns",
                };
                let _ = writeln!(report, "  #{i} {dialect:<10} {}", p.source);
            }
        }
        Some(_) => {}
        // Why the query is outside the Extended Wadler fragment, which
        // is what the general evaluators' bounds depend on.
        None => {
            for v in &c.wadler_violations {
                let _ = writeln!(report, "  wadler:  {v}");
            }
        }
    }
    // Static analysis (crate::analyze): satisfiability, diagnostics.
    let analysis = plan.report();
    if let Some(v) = &analysis.const_result {
        let _ = writeln!(
            report,
            "const:     result is document-independent — the plan short-circuits to {v}"
        );
    }
    for d in &analysis.diagnostics {
        let _ = writeln!(report, "  lint:    {d}");
    }

    // Axis kernel: how each axis of the fragment program materializes —
    // interval axes by the node set's density rule at this |D| (the
    // exact result size decides at runtime), chain axes per node for a
    // single input node.
    if let Some(program) = plan.program() {
        let mut axes = std::collections::BTreeMap::new();
        for p in program.paths() {
            collect_axes(&p.query.path, &mut axes);
        }
        let _ = writeln!(report, "axis planner (kernel routes @ |D| = {doc_size}):");
        for axis in axes.into_values() {
            let _ = writeln!(report, "  {}", xpath_axes::stats::describe(axis, doc_size as u32));
        }
    }
    // The analyzer's lazy verdict (the one the cursor dispatches on), and
    // for lazy queries the rule that picks the route per take.
    let _ = match &analysis.laziness {
        Laziness::Lazy => writeln!(
            report,
            "lazy:      lazy — spine streams (forward axes, preorder-monotone); \
             a take hint runs it window by window; full drains materialize"
        ),
        materialize => writeln!(report, "lazy:      {materialize}"),
    };

    // Per-subexpression relevance, bottom-up candidacy, and the
    // predicates MinContext decides by index.
    let mut by_position = std::collections::HashSet::new();
    e.walk(&mut |sub| {
        let preds: Vec<&Expr> = match sub {
            Expr::Path(p) => p.steps.iter().flat_map(|s| &s.predicates).collect(),
            Expr::Filter { predicates, .. } => predicates.iter().collect(),
            _ => Vec::new(),
        };
        by_position.extend(
            preds.into_iter().filter(|p| position_test(p).is_some()).map(|p| p as *const Expr),
        );
    });
    let mut bottomup_paths = 0usize;
    let _ = writeln!(report, "subexpressions (Relev, CVT rows @ |D| = {doc_size}):");
    e.walk(&mut |sub| {
        let rel = relev(sub);
        let rows = estimated_rows(doc_size, rel.has_cn(), rel.has_cp(), rel.has_cs());
        let tag = if wadler::bottomup_candidate(sub).is_some() {
            bottomup_paths += 1;
            "  [bottom-up]"
        } else if by_position.contains(&(sub as *const Expr)) {
            "  [by position]"
        } else {
            ""
        };
        let shown = one_line(sub, 52);
        let _ = writeln!(report, "  {rel:?}  rows≈{rows:<10} {shown}{tag}");
    });
    Explanation { fragment: c.fragment, report, bottomup_paths }
}

/// Explain how a [`QuerySet`](crate::batch::QuerySet) will evaluate on a
/// document of `doc_size` nodes: the static sharing profile and whether
/// the batch memo is attached — the batch counterpart of [`explain`],
/// surfaced by `xpq --explain` when several `-e` expressions (or a
/// `--query-file`) form a batch.
pub fn explain_batch(set: &crate::batch::QuerySet, doc_size: usize) -> String {
    let sharing = set.sharing();
    let memo = sharing.shared_units > 0;
    let mut report = String::new();
    let _ = writeln!(
        report,
        "batch:     {} queries ({} fragment-engine), {}/{} step units shared",
        set.len(),
        sharing.fragment_queries,
        sharing.shared_units,
        sharing.total_units,
    );
    let mode = crate::batch::mode_of(memo);
    let _ = writeln!(report, "batch mode @ |D| = {doc_size}: {}", mode.name());
    let _ = if memo {
        writeln!(
            report,
            "  memo: attached, {} repeated units, each a guaranteed hit",
            sharing.shared_units
        )
    } else {
        writeln!(report, "  memo: off, no unit repeats")
    };
    report
}

/// Collect every axis a compiled Core XPath / XPatterns program applies
/// (spine and predicate paths alike), keyed by name for stable output.
fn collect_axes(
    p: &crate::corexpath::CorePath,
    out: &mut std::collections::BTreeMap<&'static str, xpath_syntax::Axis>,
) {
    for step in &p.steps {
        out.insert(step.axis.name(), step.axis);
        for pred in &step.preds {
            collect_pred_axes(pred, out);
        }
    }
}

fn collect_pred_axes(
    pred: &crate::corexpath::CorePred,
    out: &mut std::collections::BTreeMap<&'static str, xpath_syntax::Axis>,
) {
    use crate::corexpath::CorePred;
    match pred {
        CorePred::And(l, r) | CorePred::Or(l, r) => {
            collect_pred_axes(l, out);
            collect_pred_axes(r, out);
        }
        CorePred::Not(inner) => collect_pred_axes(inner, out),
        CorePred::Path(p, _) => collect_axes(p, out),
    }
}

fn estimated_rows(n: usize, cn: bool, cp: bool, cs: bool) -> u64 {
    let n = n as u64;
    let mut rows = 1u64;
    if cn {
        rows = rows.saturating_mul(n);
    }
    match (cp, cs) {
        (true, true) => rows = rows.saturating_mul(n.saturating_mul(n.saturating_add(1)) / 2),
        (true, false) | (false, true) => rows = rows.saturating_mul(n),
        (false, false) => {}
    }
    rows
}

fn one_line(e: &Expr, max: usize) -> String {
    let s = match e {
        // Paths print with their predicates, which is often the whole
        // query; abbreviate to the spine.
        Expr::Path(p) => {
            let start = match &p.start {
                PathStart::Root => "/".to_string(),
                PathStart::ContextNode => String::new(),
                PathStart::Expr(_) => "(…)/".to_string(),
            };
            let steps: Vec<String> = p
                .steps
                .iter()
                .map(|s| {
                    if s.predicates.is_empty() {
                        format!("{}::{}", s.axis.name(), s.test)
                    } else {
                        format!("{}::{}[…]", s.axis.name(), s.test)
                    }
                })
                .collect();
            format!("{start}{}", steps.join("/"))
        }
        other => other.to_string(),
    };
    if s.chars().count() > max {
        let cut: String = s.chars().take(max - 1).collect();
        format!("{cut}…")
    } else {
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Compiler;

    fn explain_q(q: &str, doc_size: usize) -> Explanation {
        explain(Compiler::new().compile(q).unwrap().plan(), doc_size)
    }

    #[test]
    fn explain_core_query() {
        let x = explain_q("//a[b]", 100);
        assert_eq!(x.fragment, Fragment::CoreXPath);
        assert!(x.report.contains("CoreXPath"), "{}", x.report);
        assert_eq!(x.bottomup_paths, 1, "boolean(child::b) is a candidate");
    }

    #[test]
    fn explain_reports_axis_planner_kernels() {
        let x = explain_q("//a[b]/following::c/ancestor::d", 21846);
        assert!(x.report.contains("axis planner"), "{}", x.report);
        // One line per distinct axis, naming the kernel choice and why.
        assert!(x.report.contains("descendant: staircase"), "{}", x.report);
        assert!(x.report.contains("following: staircase"), "{}", x.report);
        assert!(x.report.contains("ancestor: pointer-chain"), "{}", x.report);
        assert!(x.report.contains("child: link-array"), "{}", x.report);
        // The interval rule is the node set's: ⌈21846 / 32⌉ = 683.
        assert!(x.report.contains("sorted vec below 683 result nodes"), "{}", x.report);
        assert!(x.report.contains("per node for a single input node"), "{}", x.report);
        // Lifted paths get a planner section too.
        let y = explain_q("count(//a/following::b)", 100);
        assert!(y.report.contains("following: "), "{}", y.report);
        // Outside the fragment engines there is no planner section.
        let y = explain_q("count(//a[count(b) > 1])", 100);
        assert!(!y.report.contains("axis planner"), "{}", y.report);
    }

    #[test]
    fn explain_reports_the_static_analysis() {
        // Provably empty: the constant-empty short-circuit is visible.
        let x = explain_q("//text()/child::*", 100);
        assert!(x.report.contains("const:"), "{}", x.report);
        assert!(x.report.contains("lint:"), "{}", x.report);
        // The const-folded plan never runs the cursor pipeline.
        assert!(
            x.report.contains("lazy:      materialize — the plan short-circuits"),
            "{}",
            x.report
        );
    }

    #[test]
    fn explain_reports_lazy_cursor_verdict() {
        // Streamable spine: hinted takes stream and full drains
        // materialize, the same rule at every document size.
        for size in [100, 200_000] {
            let x = explain_q("//a[b]", size);
            assert!(x.report.contains("lazy:      lazy — spine streams"), "{}", x.report);
            let rule = "a take hint runs it window by window; full drains materialize";
            assert!(x.report.contains(rule), "{}", x.report);
        }
        // A reverse step in the spine rules the pipeline out.
        let x = explain_q("//a/parent::b", 100);
        assert!(x.report.contains("lazy:      materialize — parent::"), "{}", x.report);
        // Outside the fragment engines the verdict still prints.
        let x = explain_q("count(//a[count(b) > 1])", 100);
        assert!(
            x.report.contains("lazy:      materialize — runs on OptMinContext"),
            "{}",
            x.report
        );
        // Lifted paths under a fold materialize: the fold needs every node.
        let x = explain_q("count(//a)", 100);
        assert!(x.report.contains("lazy:      materialize — paths lifted"), "{}", x.report);
    }

    #[test]
    fn explain_lists_lifted_paths_and_the_fold() {
        let x = explain_q("sum(//a/@n) > count(//b[c = 'x'])", 100);
        assert!(x.report.contains("strategy:  XPatterns"), "{}", x.report);
        assert!(
            x.report.contains(
                "lifted:    2 path(s) on the §10 algebra; outer fold: sum(#0) > count(#1)"
            ),
            "{}",
            x.report
        );
        assert!(x.report.contains("#0 Core XPath"), "{}", x.report);
        assert!(x.report.contains("#1 XPatterns"), "{}", x.report);
        // The Figure-1 label stays; the Wadler restrictions, which only
        // bound the general evaluators, do not print.
        assert!(x.report.contains("fragment:  Full XPath"), "{}", x.report);
        assert!(!x.report.contains("wadler:"), "{}", x.report);
        // A whole-query path prints no lifted section.
        assert!(!explain_q("//a[b]", 100).report.contains("lifted:"));
    }

    #[test]
    fn explain_full_xpath_query() {
        let x = explain_q("//a[count(b) > 1]", 100);
        assert_eq!(x.fragment, Fragment::FullXPath);
        assert!(x.report.contains("OptMinContext"), "{}", x.report);
        assert!(x.report.contains("Restriction 2"), "{}", x.report);
    }

    #[test]
    fn closed_form_predicates_are_tagged_by_position() {
        let x = explain_q("//a[position() mod 2 = 1][last()]/b[@c][2]", 100);
        let tagged: Vec<&str> = x
            .report
            .lines()
            .filter(|l| l.ends_with("[by position]"))
            .map(|l| l.rsplit("  ").nth(1).unwrap())
            .collect();
        assert_eq!(tagged, ["position() = last()", "position() = 2"], "{}", x.report);
        // `@c` stays a bottom-up candidate; the modulus runs per candidate.
        assert!(x.report.contains("boolean(attribute::c)  [bottom-up]"), "{}", x.report);
        assert!(x.report.contains("position() mod 2 = 1\n"), "{}", x.report);
    }

    #[test]
    fn row_estimates() {
        assert_eq!(estimated_rows(10, false, false, false), 1);
        assert_eq!(estimated_rows(10, true, false, false), 10);
        assert_eq!(estimated_rows(10, false, true, false), 10);
        assert_eq!(estimated_rows(10, false, true, true), 55);
        assert_eq!(estimated_rows(10, true, true, true), 550);
        // Saturates instead of overflowing.
        assert!(estimated_rows(usize::MAX, true, true, true) > 0);
    }

    #[test]
    fn relevances_listed() {
        let x = explain_q("//a[position() != last()]", 50);
        assert!(x.report.contains("{cp,cs}"), "{}", x.report);
        assert!(x.report.contains("{cp}"), "{}", x.report);
        assert!(x.report.contains("{cs}"), "{}", x.report);
    }

    #[test]
    fn long_queries_abbreviated() {
        let x = explain_q("//a[b[c[d[e = 'a very long string literal that goes on and on']]]]", 10);
        // Subexpression lines are abbreviated (the header echoes the full
        // query and is exempt).
        for line in x.report.lines().filter(|l| l.trim_start().starts_with('{')) {
            assert!(line.chars().count() < 120, "overlong line: {line}");
        }
        assert!(x.report.contains('…'), "{}", x.report);
    }
}
