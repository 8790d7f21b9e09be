//! Results files and `bench_e2e compare`.
//!
//! A results file holds every run a command made:
//! `{"runs":[{"seed":…,"trace":…,"seconds":…,"workloads":{"<name>":{"correct":…,
//! "attempted":…,"failed":…,"metrics":{"<metric>":{"value":…,"unit":…}},
//! "validity":{…}}}}]}`.
//!
//! `compare A.json B.json` reads the end-to-end metrics, directions and
//! bounds from `BENCHMARK.json` and gives each (workload, metric) a
//! verdict for B against A:
//!
//! - **worse** — B's median is worse than A's by more than the bound
//!   (a regression: the command exits non-zero);
//! - **better** — B wins at least 9 of 10 run pairs and the medians
//!   differ by more than A's interquartile range;
//! - **unresolved** — either side's spread (IQR over median) is wider
//!   than the bound, and not every B run beats every A run;
//! - **unchanged** — otherwise.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use xpath_core::serve::Json;

use crate::run::Outcome;

/// One command's run of the selected workloads.
#[derive(Debug)]
pub struct RunRecord {
    /// Seed the run's inputs came from.
    pub seed: u64,
    /// Whether the run was traced.
    pub trace: bool,
    /// Seconds measured per workload.
    pub seconds: f64,
    /// Outcomes by workload, in run order.
    pub workloads: Vec<(&'static str, Outcome)>,
}

/// An outcome as JSON: `correct`, `attempted`, `failed`, `metrics`
/// (and, when `validity`, the validity data).
pub fn outcome_json(out: &Outcome, validity: bool) -> Json {
    let metrics = out
        .metrics
        .iter()
        .map(|m| {
            let v = Json::obj(vec![
                ("value", Json::Num(m.value)),
                ("unit", Json::Str(m.unit.to_owned())),
            ]);
            (m.name.clone(), v)
        })
        .collect();
    let mut fields = vec![
        ("correct", Json::Bool(out.failed == 0)),
        ("attempted", Json::num(out.attempted)),
        ("failed", Json::num(out.failed)),
        ("metrics", Json::Obj(metrics)),
    ];
    if validity {
        let notes = out.validity.iter().map(|(k, v)| (k.clone(), Json::Num(*v))).collect();
        fields.push(("validity", Json::Obj(notes)));
    }
    Json::obj(fields)
}

/// Render runs as a results file.
pub fn results_json(runs: &[RunRecord]) -> Json {
    let runs = runs
        .iter()
        .map(|r| {
            let workloads = r
                .workloads
                .iter()
                .map(|(name, out)| ((*name).to_owned(), outcome_json(out, true)))
                .collect();
            Json::obj(vec![
                ("seed", Json::num(r.seed)),
                ("trace", Json::Bool(r.trace)),
                ("seconds", Json::Num(r.seconds)),
                ("workloads", Json::Obj(workloads)),
            ])
        })
        .collect();
    Json::obj(vec![("runs", Json::Arr(runs))])
}

/// The runs of a results file (empty when it has none).
pub fn runs_of(results: &Json) -> Vec<Json> {
    results.get("runs").and_then(Json::as_arr).map(<[Json]>::to_vec).unwrap_or_default()
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the default "exclusive" method); `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    Some(std::array::from_fn(|i| {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        #[allow(clippy::cast_precision_loss)]
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    }))
}

/// One end-to-end metric as `BENCHMARK.json` defines it.
#[derive(Clone, Debug)]
pub struct MetricDef {
    /// Metric name.
    pub name: String,
    /// `true` when lower values are better.
    pub lower_is_better: bool,
    /// Share of the baseline median by which it may worsen.
    pub bound: f64,
}

/// The `end_to_end` metrics of a `BENCHMARK.json`.
///
/// # Errors
/// When the file is not valid JSON or lacks `end_to_end`.
pub fn metric_defs(bench: &str) -> Result<Vec<MetricDef>, String> {
    let json = Json::parse(bench)?;
    let list = json.get("end_to_end").and_then(Json::as_arr).ok_or("no end_to_end list")?;
    list.iter()
        .map(|m| {
            Ok(MetricDef {
                name: m.get("name").and_then(Json::as_str).ok_or("metric without name")?.to_owned(),
                lower_is_better: m.get("better").and_then(Json::as_str) == Some("lower"),
                bound: m.get("bound").and_then(Json::as_f64).ok_or("metric without bound")?,
            })
        })
        .collect()
}

/// A (workload, metric) comparison.
#[derive(Clone, Debug, PartialEq)]
pub enum Verdict {
    /// B is better by the pair and spread rules.
    Better,
    /// B is worse than A by more than the bound.
    Worse,
    /// Within the bound and resolvable.
    Unchanged,
    /// Too noisy to tell.
    Unresolved,
}

/// Pairs (by index) in which B's value beats A's.
fn wins(def: &MetricDef, a: &[f64], b: &[f64]) -> usize {
    let sign = if def.lower_is_better { 1.0 } else { -1.0 };
    a.iter().zip(b).filter(|(x, y)| sign * (*x - *y) > 0.0).count()
}

/// Judge B's values against A's (paired by index) for one metric.
pub fn verdict(def: &MetricDef, a: &[f64], b: &[f64]) -> Verdict {
    let (Some(qa), Some(qb)) = (quartiles(a), quartiles(b)) else {
        return Verdict::Unresolved;
    };
    let sign = if def.lower_is_better { 1.0 } else { -1.0 };
    // Positive when B is worse.
    let change = sign * (qb[1] - qa[1]) / qa[1].abs().max(f64::MIN_POSITIVE);
    if change > def.bound {
        return Verdict::Worse;
    }
    let pairs = a.len().min(b.len());
    if wins(def, a, b) * 10 >= pairs * 9 && change < 0.0 && (qb[1] - qa[1]).abs() > qa[2] - qa[0] {
        return Verdict::Better;
    }
    let spread = |q: &[f64; 3]| (q[2] - q[0]) / q[1].abs().max(f64::MIN_POSITIVE);
    let all_better = a.iter().all(|x| b.iter().all(|y| sign * (x - y) > 0.0));
    if (spread(&qa) > def.bound || spread(&qb) > def.bound) && !all_better {
        return Verdict::Unresolved;
    }
    Verdict::Unchanged
}

/// Compare two results files; returns the report and whether any
/// (workload, metric) regressed.
///
/// # Errors
/// Unreadable inputs.
pub fn compare(bench: &str, a: &str, b: &str) -> Result<(String, bool), String> {
    let defs = metric_defs(bench)?;
    let (a, b) = (Json::parse(a)?, Json::parse(b)?);
    let values = |results: &Json| -> BTreeMap<(String, String), Vec<f64>> {
        let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
        for run in runs_of(results) {
            let Some(Json::Obj(workloads)) = run.get("workloads") else { continue };
            for (w, outcome) in workloads {
                let Some(Json::Obj(metrics)) = outcome.get("metrics") else { continue };
                for (m, v) in metrics {
                    if let Some(x) = v.get("value").and_then(Json::as_f64) {
                        out.entry((w.clone(), m.clone())).or_default().push(x);
                    }
                }
            }
        }
        out
    };
    let (va, vb) = (values(&a), values(&b));
    let mut report = String::new();
    let _ = writeln!(
        report,
        "{:<9} {:<26} {:>26} {:>26} {:>8} {:>5}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "wins"
    );
    let mut regressed = false;
    let workloads: Vec<&String> = {
        let mut w: Vec<&String> = va.keys().map(|(w, _)| w).collect();
        w.dedup();
        w
    };
    for w in workloads {
        for def in &defs {
            let key = (w.clone(), def.name.clone());
            let (Some(xa), Some(xb)) = (va.get(&key), vb.get(&key)) else { continue };
            let v = verdict(def, xa, xb);
            regressed |= v == Verdict::Worse;
            let num = |x: f64| if x.abs() >= 100.0 { format!("{x:.0}") } else { format!("{x:.4}") };
            let fmt = |x: &[f64]| {
                quartiles(x).map_or_else(
                    || "-".to_owned(),
                    |q| format!("{} [{}, {}]", num(q[1]), num(q[0]), num(q[2])),
                )
            };
            let (ma, mb) =
                (quartiles(xa).map_or(0.0, |q| q[1]), quartiles(xb).map_or(0.0, |q| q[1]));
            let _ = writeln!(
                report,
                "{w:<9} {:<26} {:>26} {:>26} {:>+7.1}% {:>2}/{:<2}  {v:?}",
                def.name,
                fmt(xa),
                fmt(xb),
                (mb - ma) / ma.abs().max(f64::MIN_POSITIVE) * 100.0,
                wins(def, xa, xb),
                xa.len().min(xb.len()),
            );
        }
    }
    Ok((report, regressed))
}
