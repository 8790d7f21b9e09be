//! # bench_serve — closed-loop load harness for the line-JSON server
//!
//! Spins up an in-process [`xpath_core::serve::Server`] on a Unix socket
//! over the standard bench document (balanced 4-ary, depth 7), drives it
//! with N concurrent closed-loop clients, and records throughput and
//! round-trip latency quantiles into the `serve` section of
//! `BENCH_axes.json` — read-modify-write, preserving every section the
//! axis harness wrote.
//!
//! ```text
//! bench_serve [PATH]           update PATH (default BENCH_axes.json)
//! bench_serve --clients N      closed-loop client count (default 4)
//! bench_serve --requests N     measured requests per client (default 200)
//! bench_serve --check          exit non-zero if the socket round trip
//!                              costs more than 5x a direct in-process
//!                              evaluation (+1ms fixed allowance)
//! ```
//!
//! `threads_available` is recorded because qps under concurrent clients
//! needs real cores: on a 1-core runner the multi-client columns measure
//! fair interleaving over one core, not parallel speedup.

use xpath_bench::serve_bench::{
    check_serve, closed_loop, measure_overhead, BenchServer, LoadSummary, ServeOverhead,
};
use xpath_core::serve::Json;
use xpath_xml::generate::doc_balanced;

/// The request lines driven against the server, closed-loop. The batch
/// workload sends four queries per request so the per-request cost is
/// dominated by evaluation, exposing per-line framing overhead by
/// contrast with `single`.
const WORKLOADS: &[(&str, &str)] = &[
    ("single", r#"{"doc":"bench","query":"count(//c)"}"#),
    (
        "batch4",
        r#"{"doc":"bench","queries":["count(//a)","count(//b)","count(//c)","count(//d)"]}"#,
    ),
];

fn summary_json(name: &str, load: &LoadSummary) -> Json {
    Json::obj(vec![
        ("workload", Json::Str(name.to_string())),
        ("clients", Json::num(load.clients as u64)),
        ("requests", Json::num(load.requests)),
        ("elapsed_ns", Json::num(load.elapsed_ns)),
        ("qps", Json::Num((load.qps * 10.0).round() / 10.0)),
        ("mean_us", Json::num(load.mean_us)),
        ("p50_us", Json::num(load.p50_us)),
        ("p95_us", Json::num(load.p95_us)),
        ("p99_us", Json::num(load.p99_us)),
        ("max_us", Json::num(load.max_us)),
    ])
}

/// Replace (or append) the `serve` key of the existing document, keeping
/// every other section and their order intact.
fn splice_serve(existing: Option<Json>, serve: Json) -> Json {
    let mut fields = match existing {
        Some(Json::Obj(fields)) => fields,
        // A missing or malformed file degrades to a serve-only document
        // rather than silently discarding the measurements.
        _ => Vec::new(),
    };
    if let Some(slot) = fields.iter_mut().find(|(k, _)| k == "serve") {
        slot.1 = serve;
    } else {
        fields.push(("serve".to_string(), serve));
    }
    Json::Obj(fields)
}

#[allow(clippy::cast_precision_loss)]
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str, default: usize| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map_or(default, |v| v.parse().unwrap_or_else(|_| panic!("bad {name} value: {v}")))
    };

    let doc = doc_balanced(4, 7, &["a", "b", "c", "d"]);

    if args.iter().any(|a| a == "--check") {
        match check_serve(&doc) {
            Ok(()) => {
                eprintln!("check: serve roundtrip within 5x of direct evaluation (+1ms)");
                return;
            }
            Err(failure) => {
                eprintln!("check FAILED:\n{failure}");
                std::process::exit(1);
            }
        }
    }

    let clients = flag("--clients", 4);
    let requests = flag("--requests", 200);
    let out_path = {
        let mut positional = Vec::new();
        let mut skip_next = false;
        for a in &args {
            if skip_next {
                skip_next = false;
            } else if a == "--clients" || a == "--requests" {
                skip_next = true;
            } else if !a.starts_with("--") {
                positional.push(a.clone());
            }
        }
        positional.pop().unwrap_or_else(|| "BENCH_axes.json".to_string())
    };

    let threads_available = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let bench = BenchServer::start(&doc, clients.max(1));

    let mut workload_rows = Vec::new();
    for (name, request) in WORKLOADS {
        let load = closed_loop(&bench.sock, clients, requests, request);
        eprintln!(
            "serve {name:<7} {} clients  {} req  {:>8.1} qps  p50 {}us  p95 {}us  p99 {}us",
            load.clients, load.requests, load.qps, load.p50_us, load.p95_us, load.p99_us
        );
        workload_rows.push(summary_json(name, &load));
    }

    // Single-client round trip vs direct in-process evaluation: the
    // protocol tax (framing + socket + admission) on one request, both
    // sides sampled interleaved.
    let ServeOverhead { direct_ns, roundtrip_ns, samples } =
        measure_overhead(&bench.sock, &doc, requests);
    eprintln!(
        "serve overhead: roundtrip p50 {roundtrip_ns}ns vs direct p50 {direct_ns}ns ({:.2}x, \
         {samples} interleaved samples each)",
        roundtrip_ns as f64 / direct_ns.max(1) as f64
    );
    bench.shutdown();

    let serve = Json::obj(vec![
        ("doc", Json::Str("balanced 4-ary, depth 7".to_string())),
        ("nodes", Json::num(doc.len() as u64)),
        ("threads_available", Json::num(threads_available as u64)),
        ("transport", Json::Str("unix socket, line-delimited JSON".to_string())),
        ("workloads", Json::Arr(workload_rows)),
        ("direct_eval_ns", Json::num(direct_ns)),
        ("roundtrip_p50_ns", Json::num(roundtrip_ns)),
        ("overhead_samples", Json::num(samples as u64)),
        (
            "overhead_ratio",
            Json::Num(((roundtrip_ns as f64 / direct_ns.max(1) as f64) * 100.0).round() / 100.0),
        ),
    ]);

    let existing = std::fs::read_to_string(&out_path).ok().and_then(|text| Json::parse(&text).ok());
    let merged = splice_serve(existing, serve);
    let rendered = merged.render_pretty() + "\n";
    std::fs::write(&out_path, &rendered).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    eprintln!("wrote serve section to {out_path}");
}
