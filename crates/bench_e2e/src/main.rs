//! `bench_e2e` — run the served-query benchmark, or compare two results
//! files.
//!
//! ```text
//! bench_e2e --xpq PATH [--workload NAME]... [--seed N] [--seconds S]
//!           [--trace [0|1]] [--runs N] [--out FILE [--append]] [--smoke]
//! bench_e2e compare A.json B.json [--bench BENCHMARK.json]
//! ```
//!
//! Without `--workload` every workload runs. `--xpq` (required) names
//! the server binary to start per workload. Every metric is printed by
//! name with its unit; the last line of standard output is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. Exit
//! status: 0 when every
//! response was correct, 1 when any was wrong, 2 on usage or set-up
//! errors (no result line is printed then).

use std::path::PathBuf;
use std::process::ExitCode;

use bench_e2e::compare::{compare, outcome_json, results_json, runs_of, RunRecord};
use bench_e2e::run::{run_e2e, Options, Outcome};
use bench_e2e::server::Launch;
use bench_e2e::trace::run_traced;
use bench_e2e::workload::{spec, Prepared, Spec, WORKLOADS};
use xpath_core::serve::Json;

/// Seconds measured per workload unless `--seconds` says otherwise
/// (`run_seconds` in `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 30.0;
/// Set-ups per run (`setup_s` is their median).
const SETUPS: usize = 5;

const USAGE: &str = "usage: bench_e2e --xpq PATH [--workload NAME]... [--seed N] [--seconds S] \
     [--trace [0|1]] [--runs N] [--out FILE [--append]] [--smoke]\n       \
     bench_e2e compare A.json B.json [--bench BENCHMARK.json]";

struct Args {
    workloads: Vec<&'static Spec>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: u64,
    out: Option<PathBuf>,
    append: bool,
    smoke: bool,
    xpq: PathBuf,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        runs: 1,
        out: None,
        append: false,
        smoke: false,
        xpq: PathBuf::new(),
    };
    let mut seconds = None;
    let mut xpq = None;
    let mut it = raw.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                args.workloads.push(spec(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => args.seed = value("--seed")?.parse().map_err(|_| "--seed: not a number")?,
            "--seconds" => {
                let s: f64 = value("--seconds")?.parse().map_err(|_| "--seconds: not a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                args.trace = true;
                if let Some(v) = it.peek().filter(|v| matches!(v.as_str(), "0" | "1")) {
                    args.trace = v.as_str() == "1";
                    it.next();
                }
            }
            "--runs" => args.runs = value("--runs")?.parse().map_err(|_| "--runs: not a number")?,
            "--out" => args.out = Some(PathBuf::from(value("--out")?)),
            "--append" => args.append = true,
            "--smoke" => args.smoke = true,
            "--xpq" => xpq = Some(PathBuf::from(value("--xpq")?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    args.xpq = xpq.ok_or("--xpq is required: the server binary to benchmark")?;
    if args.workloads.is_empty() {
        args.workloads = WORKLOADS.iter().collect();
    }
    args.seconds = seconds.unwrap_or(if args.smoke { 0.5 } else { DEFAULT_SECONDS });
    if args.runs == 0 {
        return Err("--runs must be at least 1".to_owned());
    }
    Ok(args)
}

fn compare_cmd(raw: &[String]) -> ExitCode {
    let mut files = Vec::new();
    let mut bench = PathBuf::from("BENCHMARK.json");
    let mut it = raw.iter();
    while let Some(arg) = it.next() {
        match (arg.as_str(), it.clone().next()) {
            ("--bench", Some(path)) => {
                bench = PathBuf::from(path);
                it.next();
            }
            _ => files.push(arg.clone()),
        }
    }
    let [a, b] = files.as_slice() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let read = |p: &std::path::Path| {
        std::fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))
    };
    let result = (|| compare(&read(&bench)?, &read(a.as_ref())?, &read(b.as_ref())?))();
    match result {
        Ok((report, regressed)) => {
            print!("{report}");
            if regressed {
                println!("regression: B is worse than A beyond a bound");
                ExitCode::from(1)
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("bench_e2e compare: {e}");
            ExitCode::from(2)
        }
    }
}

fn print_outcome(name: &str, out: &Outcome) {
    for m in &out.metrics {
        println!("{name:<9} {:<32} {:>14.6} {}", m.name, m.value, m.unit);
    }
    for (k, v) in &out.validity {
        println!("{name:<9} {k:<32} {v:>14.6}   (validity)");
    }
    println!("{name:<9} {:<32} {:>14} / {} failed", "requests", out.attempted, out.failed);
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().is_some_and(|a| a == "compare") {
        return compare_cmd(&raw[1..]);
    }
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let opts = Options {
        launch: Launch::Xpq(args.xpq.clone()),
        seconds: args.seconds,
        setups: if args.smoke { 1 } else { SETUPS },
        scratch: PathBuf::from("target/bench/tmp"),
        trace_dir: PathBuf::from("target/bench"),
    };

    let mut runs = Vec::new();
    for run in 0..args.runs {
        let seed = args.seed + run;
        let mut record =
            RunRecord { seed, trace: args.trace, seconds: args.seconds, workloads: Vec::new() };
        for spec in &args.workloads {
            let prepared = Prepared::new(spec, seed);
            let outcome =
                if args.trace { run_traced(&opts, &prepared) } else { run_e2e(&opts, &prepared) };
            match outcome {
                Ok(out) => {
                    print_outcome(spec.name, &out);
                    record.workloads.push((spec.name, out));
                }
                Err(e) => {
                    eprintln!("bench_e2e: {} (seed {seed}): {e}", spec.name);
                    return ExitCode::from(2);
                }
            }
        }
        runs.push(record);
    }

    if let Some(path) = &args.out {
        let mut json = results_json(&runs);
        if args.append {
            if let Some(old) = std::fs::read_to_string(path).ok().and_then(|t| Json::parse(&t).ok())
            {
                let mut all = runs_of(&old);
                all.extend(runs_of(&json));
                json = Json::obj(vec![("runs", Json::Arr(all))]);
            }
        }
        if let Err(e) = std::fs::write(path, json.render() + "\n") {
            eprintln!("bench_e2e: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    // The result line: one workload's metrics by name, or every
    // workload's as `<workload>/<metric>`.
    let all: Vec<&(&str, Outcome)> = runs.iter().flat_map(|r| &r.workloads).collect();
    let mut total = Outcome::default();
    for (name, out) in &all {
        total.attempted += out.attempted;
        total.failed += out.failed;
        for m in &out.metrics {
            let mut m = m.clone();
            if all.len() > 1 {
                m.name = format!("{name}/{}", m.name);
            }
            total.metrics.push(m);
        }
    }
    println!("{}", outcome_json(&total, false).render());
    if total.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
