//! `xpq` — command-line XPath 1.0 query tool built on the
//! Gottlob–Koch–Pichler engines.
//!
//! ```text
//! xpq [OPTIONS] <QUERY> [FILE]
//! xpq [OPTIONS] -e EXPR [-e EXPR]... [FILE]
//! xpq [OPTIONS] --query-file QUERIES [FILE]
//! xpq snapshot build [--ns] <XML> <SNAP>
//! xpq snapshot info <SNAP>
//! xpq snapshot verify <SNAP>
//! xpq serve --store DIR (--unix PATH | --tcp ADDR) [--permits N]
//!           [--cache N] [--admission-ms N] [--verify]
//! xpq client (--unix PATH | --tcp ADDR) [--timeout-ms N]
//!
//! Reads FILE (or stdin) as XML and evaluates the query — or the whole
//! batch of queries — at the document root. With --snapshot, the
//! document comes from an mmap'd snapshot file instead of XML text.
//!
//! The snapshot subcommand manages on-disk document snapshots
//! (`xpath_xml::snap` format): `build` parses an XML file once and
//! serializes it; `info` prints the header of a snapshot without
//! loading it; `verify` additionally checks every section checksum and
//! the semantic invariants of the node arenas.
//!
//! The serve subcommand runs the long-lived line-JSON query server of
//! `xpath_core::serve` over a snapshot store directory (see the README
//! "Serving" section for the protocol); `client` is the matching
//! scriptable client — request lines on stdin, response lines on
//! stdout — used by CI and handy wherever `nc` isn't.
//!
//! Options:
//!   -e, --expr <EXPR>       add one query to the batch (repeatable). Two
//!                           or more batch queries evaluate together in
//!                           ONE pass through a QuerySet: when a step or
//!                           predicate repeats across the batch, every
//!                           query runs with one shared axis memo, so
//!                           identical axis applications run once (see
//!                           --explain)
//!       --query-file <F>    read batch queries from F, one per line
//!                           (blank lines and #-comments skipped);
//!                           combines with -e
//!   -s, --strategy <name>   naive | pool | bottomup | topdown | mincontext |
//!                           optmincontext | corexpath | xpatterns |
//!                           auto (default) — overrides the Figure-1 auto
//!                           dispatch
//!   -r, --repeat <N>        evaluate N times through a QueryCache
//!                           (compiled on first sight, cache hits
//!                           thereafter; hit/miss stats are printed to
//!                           stderr; with --time, reports the amortized
//!                           per-evaluation cost). Batches re-run
//!                           evaluate_all N times
//!   -c, --classify          print the Figure-1 fragment classification and exit
//!   -n, --normalize         print the normalized (unabbreviated) query, after
//!                           the rewrite pass every compile runs, and exit
//!       --explain           print the query plan (fragment, Relev sets,
//!                           bottom-up candidates, axis-kernel routes,
//!                           static-analysis verdicts including the lazy
//!                           verdict; for batches, additionally whether
//!                           the memo is attached) and exit. Sizes are the
//!                           FILE's or --snapshot's node count, else an
//!                           assumed 1000 nodes
//!       --lint              compile every query and print the static
//!                           analyzer's findings (satisfiability, const
//!                           folding, the lazy verdict the cursor uses)
//!                           without reading a document.
//!                           Exits 1 if any diagnostic has error severity
//!                           (unknown functions, unparseable queries) —
//!                           suitable as a CI gate over query corpora
//!       --json              with --lint, emit the report as JSON (one
//!                           object per query plus a summary) instead of
//!                           human-readable text
//!   -v, --verbose           print fragment + chosen strategy before
//!                           results, and the axis kernel's
//!                           materialization tally (per-node / bulk-sparse / bulk-dense /
//!                           memo-shared) after evaluation; batches also
//!                           report what ran (memo or serial) and the
//!                           memo hits and misses
//!       --serialize         print matched subtrees as XML instead of string values
//!       --verify            run all algorithms and require agreement (the
//!                           differential oracle) before printing results
//!       --stats             print document statistics after parsing
//!       --ns                synthesize namespace nodes from xmlns declarations
//!       --snapshot <SNAP>   evaluate against the snapshot file SNAP
//!                           (mmap'd, zero parse work) instead of
//!                           reading XML; excludes a FILE argument
//!       --time              print parse, compile and evaluation wall times
//!       --exists            print "true"/"false" and exit 0/1 on whether the
//!                           query matches at all — early-exits on the first
//!                           witness via the lazy cursor, never materializing
//!                           the full answer (single node-set query only);
//!                           an evaluation error exits 2 under --exists,
//!                           --first and --limit, since 1 means "no match"
//!       --first             print only the first match in document order
//!                           (early-exiting like --exists); exit 1 if none
//!       --limit <K>         print at most the first K matches in document
//!                           order, stopping the evaluation there
//!       --timeout-ms <N>    give the whole evaluation a deadline of N
//!                           milliseconds; a deadline trip exits 124 (like
//!                           timeout(1)) with no partial output. Applies to
//!                           every mode, including batches and --repeat
//!       --bench-info        print the detected CPU features, the kernel
//!                           dispatch tier the word-sweep kernels will run
//!                           on (scalar / vector), the GKP_NO_SIMD
//!                           override state (any value but unset, empty,
//!                           0, false or auto pins scalar), then exit
//!                           (no query needed)
//! ```
//!
//! The tool follows the two-phase API: queries are **compiled once**
//! (document-independent static phase) into [`gkp_xpath::CompiledQuery`]
//! handles — a batch into one [`gkp_xpath::QuerySet`] — then evaluated
//! `--repeat` times against the document, on the calling thread. Batch
//! results print in input order, each preceded by a `# <query>` header
//! line.

use std::io::Read;
use std::process::ExitCode;

use gkp_xpath::core::serve::Json;
use gkp_xpath::core::{EvalBudget, EvalError, NodeCursor, Value};
use gkp_xpath::{Compiler, Document, QuerySetBuilder, Strategy};

/// `timeout(1)`-compatible exit code for a tripped deadline/cancellation.
const EXIT_TIMED_OUT: u8 = 124;

fn exit_for(e: &EvalError) -> u8 {
    match e {
        EvalError::DeadlineExceeded | EvalError::Cancelled => EXIT_TIMED_OUT,
        _ => 1,
    }
}

/// The document size `--explain` assumes when no document is given.
const ASSUMED_DOC_SIZE: usize = 1000;

struct Options {
    strategy: Strategy,
    repeat: u32,
    classify_only: bool,
    normalize_only: bool,
    explain_only: bool,
    lint_only: bool,
    json: bool,
    verbose: bool,
    serialize: bool,
    verify: bool,
    stats: bool,
    namespaces: bool,
    time: bool,
    bench_info: bool,
    exists: bool,
    first: bool,
    limit: Option<usize>,
    timeout_ms: Option<u64>,
    snapshot: Option<String>,
    exprs: Vec<String>,
    query_file: Option<String>,
    query: Option<String>,
    file: Option<String>,
}

/// The `-s` names, as listed in the usage text.
const STRATEGIES: &str =
    "naive pool bottomup topdown mincontext optmincontext corexpath xpatterns auto";

fn usage() -> &'static str {
    "usage: xpq [-s STRATEGY] [-r N] [-c] [-n] [--explain] [--lint [--json]] [-v] [--serialize] [--verify] [--stats] [--ns] [--time] [--exists | --first | --limit K] [--timeout-ms N] (<QUERY> | -e EXPR... | --query-file F) [FILE]\n\
     strategies: naive pool bottomup topdown mincontext optmincontext corexpath xpatterns auto\n\
     -e/--expr: add a query to the batch (repeatable); --query-file: one query per line (#-comments skipped)\n\
     --lint: static-analyze the queries (no document); exits 1 on error-severity diagnostics\n\
     --exists/--first/--limit: early-exit evaluation via the lazy cursor (single node-set query); exit 1 = no match, 2 = evaluation error\n\
     --timeout-ms: deadline for the whole evaluation; exits 124 when it trips\n\
     --snapshot: evaluate against an mmap'd snapshot file instead of XML (see `xpq snapshot`)\n\
     --bench-info: print detected CPU features, the active kernel tier (scalar / vector), and the GKP_NO_SIMD state, then exit\n\
     snapshot subcommand: xpq snapshot (build [--ns] <XML> <SNAP> | info <SNAP> | verify <SNAP>)"
}

fn parse_args() -> Result<Options, String> {
    let mut o = Options {
        strategy: Strategy::Auto,
        repeat: 1,
        classify_only: false,
        normalize_only: false,
        explain_only: false,
        lint_only: false,
        json: false,
        verbose: false,
        serialize: false,
        verify: false,
        stats: false,
        namespaces: false,
        time: false,
        bench_info: false,
        exists: false,
        first: false,
        limit: None,
        timeout_ms: None,
        snapshot: None,
        exprs: Vec::new(),
        query_file: None,
        query: None,
        file: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "-s" | "--strategy" => {
                let name = args.next().ok_or("missing strategy name")?;
                o.strategy = match name.as_str() {
                    "naive" => Strategy::Naive,
                    "pool" => Strategy::DataPool,
                    "bottomup" => Strategy::BottomUp,
                    "topdown" => Strategy::TopDown,
                    "mincontext" => Strategy::MinContext,
                    "optmincontext" => Strategy::OptMinContext,
                    "corexpath" => Strategy::CoreXPath,
                    "xpatterns" => Strategy::XPatterns,
                    "auto" => Strategy::Auto,
                    other => {
                        return Err(format!(
                            "unknown strategy {other:?}; valid strategies: {STRATEGIES}"
                        ))
                    }
                };
            }
            // Kept as input validation, not as a knob: an unknown
            // dash-prefixed argument is a valid XPath text (`xpq -P
            // //book/title` evaluates the query `-P` and fails with
            // "cannot read //book/title"), so without this arm a script
            // still passing the removed flag would run a different query.
            "-O" | "--optimize" => {
                return Err(format!("{a} was removed: every compile runs the rewrite pass"))
            }
            "-r" | "--repeat" => {
                let n = args.next().ok_or("missing repeat count")?;
                o.repeat = n
                    .parse::<u32>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or(format!("invalid repeat count {n:?}"))?;
            }
            "-e" | "--expr" => {
                o.exprs.push(args.next().ok_or("missing expression after -e/--expr")?);
            }
            "--query-file" => {
                o.query_file = Some(args.next().ok_or("missing path after --query-file")?);
            }
            "-c" | "--classify" => o.classify_only = true,
            "-n" | "--normalize" => o.normalize_only = true,
            "--explain" => o.explain_only = true,
            "--lint" => o.lint_only = true,
            "--json" => o.json = true,
            "-v" | "--verbose" => o.verbose = true,
            "--serialize" => o.serialize = true,
            "--verify" => o.verify = true,
            "--stats" => o.stats = true,
            "--ns" => o.namespaces = true,
            "--time" => o.time = true,
            "--bench-info" => o.bench_info = true,
            "--exists" => o.exists = true,
            "--first" => o.first = true,
            "--limit" => {
                let n = args.next().ok_or("missing count after --limit")?;
                o.limit = Some(
                    n.parse::<usize>()
                        .ok()
                        .filter(|&k| k >= 1)
                        .ok_or(format!("invalid limit {n:?}"))?,
                );
            }
            "--timeout-ms" => {
                let n = args.next().ok_or("missing milliseconds after --timeout-ms")?;
                o.timeout_ms =
                    Some(n.parse::<u64>().map_err(|_| format!("invalid timeout {n:?}"))?);
            }
            "--snapshot" => {
                o.snapshot = Some(args.next().ok_or("missing path after --snapshot")?);
            }
            "-h" | "--help" => return Err(usage().to_string()),
            _ if o.query.is_none() => o.query = Some(a),
            _ if o.file.is_none() => o.file = Some(a),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    if o.json && !o.lint_only {
        return Err("--json requires --lint".to_string());
    }
    if (o.exists as u8) + (o.first as u8) + (o.limit.is_some() as u8) > 1 {
        return Err("--exists, --first and --limit are mutually exclusive".to_string());
    }
    if (o.exists || o.first || o.limit.is_some()) && o.repeat > 1 {
        return Err("--exists/--first/--limit do not combine with --repeat".to_string());
    }
    if !o.exprs.is_empty() || o.query_file.is_some() {
        // Batch invocation: the only positional argument is the XML file.
        if o.file.is_some() {
            return Err("too many positional arguments for a batch invocation".to_string());
        }
        o.file = o.query.take();
    } else if o.query.is_none() && !o.bench_info {
        return Err(usage().to_string());
    }
    if o.snapshot.is_some() {
        if o.file.is_some() {
            return Err("--snapshot and an XML FILE argument are mutually exclusive".to_string());
        }
        if o.namespaces {
            return Err(
                "--ns applies at parse time; rebuild with `xpq snapshot build --ns`".to_string()
            );
        }
    }
    Ok(o)
}

/// The batch's query texts in input order: `-e` expressions first, then
/// the `--query-file` lines (blank lines and `#` comments skipped).
fn collect_queries(opts: &Options) -> Result<Vec<String>, String> {
    let mut queries = opts.exprs.clone();
    if let Some(path) = &opts.query_file {
        let content =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        queries.extend(
            content
                .lines()
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(String::from),
        );
    }
    if let Some(q) = &opts.query {
        // Single-query invocation: a batch of one.
        queries.push(q.clone());
    }
    if queries.is_empty() {
        return Err("no queries given (empty --query-file?)".to_string());
    }
    Ok(queries)
}

fn read_document(opts: &Options) -> Result<Document, (String, u8)> {
    if let Some(path) = &opts.snapshot {
        // Quick open: O(header) validation, arenas mapped in place. Deep
        // per-section verification is available via `xpq snapshot verify`.
        return gkp_xpath::xml::snap::load(std::path::Path::new(path))
            .map_err(|e| (format!("snapshot error in {path}: {e}"), 1u8));
    }
    let xml = match &opts.file {
        Some(path) => {
            std::fs::read_to_string(path).map_err(|e| (format!("cannot read {path}: {e}"), 1u8))?
        }
        None => {
            let mut s = String::new();
            std::io::stdin()
                .read_to_string(&mut s)
                .map_err(|e| (format!("cannot read stdin: {e}"), 1u8))?;
            s
        }
    };
    Document::parse_str_opts(
        &xml,
        gkp_xpath::xml::ParseOptions { namespaces: opts.namespaces, ..Default::default() },
    )
    .map_err(|e| (format!("XML error: {e}"), 1u8))
}

fn print_value(doc: &Document, opts: &Options, value: &Value) {
    match value {
        Value::NodeSet(nodes) => {
            for n in nodes {
                if opts.serialize {
                    println!("{}", doc.serialize(n));
                } else {
                    let shown = match doc.kind(n) {
                        gkp_xpath::NodeKind::Attribute => format!(
                            "@{}={}",
                            doc.name(n).unwrap_or("?"),
                            doc.value(n).unwrap_or("")
                        ),
                        _ => doc.string_value(n).to_string(),
                    };
                    println!("{shown}");
                }
            }
        }
        v => println!("{v}"),
    }
}

/// `--lint`: compile every query (document-free) and report the static
/// analyzer's findings from the compiled plan, so the lazy verdict is the
/// one the cursor dispatches on. Exit code 1 when any diagnostic reaches
/// error severity — including unparseable queries and queries outside an
/// explicitly requested fragment — so corpora can be gated in CI;
/// warnings exit 0.
fn lint(compiler: &Compiler, queries: &[String], json: bool) -> ExitCode {
    use gkp_xpath::core::analyze::{AnalysisStats, Laziness, Severity};

    let mut any_error = false;
    let mut stats = AnalysisStats::default();
    // (query text, Ok(compiled) | Err((code, message))) in input order.
    let reports: Vec<_> = queries
        .iter()
        .map(|q| {
            let outcome = compiler.compile(q).map_err(|err| match err {
                EvalError::Parse(msg) => ("parse-error", msg),
                other => ("compile-error", other.to_string()),
            });
            match &outcome {
                Ok(c) => {
                    stats = stats.plus(AnalysisStats::of(c.report()));
                    any_error |= c.report().max_severity() == Some(Severity::Error);
                }
                Err(_) => any_error = true,
            }
            (q, outcome)
        })
        .collect();

    if json {
        // One string literal of the report, escaped by the serve codec.
        let string = |text: &str| Json::Str(text.to_owned()).render();
        println!("{{");
        println!("  \"queries\": [");
        for (i, (q, outcome)) in reports.iter().enumerate() {
            let comma = if i + 1 < reports.len() { "," } else { "" };
            match outcome {
                Ok(c) => {
                    let r = c.report();
                    let laziness = match &r.laziness {
                        Laziness::Lazy => "\"lazy\"".to_string(),
                        Laziness::Materialize(why) => {
                            format!("\"materialize\", \"reason\": {}", string(why))
                        }
                    };
                    let diags: Vec<String> = r
                        .diagnostics
                        .iter()
                        .map(|d| {
                            format!(
                                "{{\"severity\": \"{}\", \"code\": \"{}\", \"message\": {}}}",
                                d.severity.name(),
                                d.code,
                                string(&d.message)
                            )
                        })
                        .collect();
                    println!(
                        "    {{\"query\": {}, \"satisfiable\": {}, \"laziness\": {laziness}, \
                         \"const\": {}, \"diagnostics\": [{}]}}{comma}",
                        string(q),
                        !r.is_empty_query(),
                        r.const_result
                            .as_ref()
                            .map_or_else(|| "null".to_string(), |v| string(&v.to_string())),
                        diags.join(", ")
                    );
                }
                Err((code, msg)) => {
                    println!(
                        "    {{\"query\": {}, \"diagnostics\": [{{\"severity\": \"error\", \
                         \"code\": \"{code}\", \"message\": {}}}]}}{comma}",
                        string(q),
                        string(msg)
                    );
                }
            }
        }
        println!("  ],");
        println!(
            "  \"summary\": {{\"analyzed\": {}, \"provably_empty\": {}, \"const_folded\": {}, \
             \"lazy\": {}, \"materialized\": {}, \"errors\": {}, \"warnings\": {}}}",
            stats.analyzed,
            stats.provably_empty,
            stats.const_folded,
            stats.lazy,
            stats.materialized,
            stats.errors,
            stats.warnings
        );
        println!("}}");
    } else {
        for (q, outcome) in &reports {
            println!("# {q}");
            match outcome {
                Ok(c) => {
                    let r = c.report();
                    println!("  laziness: {}", r.laziness);
                    for d in &r.diagnostics {
                        println!("  {d}");
                    }
                    if r.diagnostics.is_empty() {
                        println!("  ok");
                    }
                }
                Err((code, msg)) => println!("  error[{code}]: {msg}"),
            }
        }
        println!("lint: {stats}");
    }
    if any_error {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// `--bench-info`: the runtime CPU-feature probe, the kernel tier the
/// word-sweep dispatch resolved to and the `GKP_NO_SIMD` override state —
/// the context needed to interpret a BENCH_axes.json `simd` section
/// captured on this machine.
fn print_bench_info() {
    use gkp_xpath::xml::simd;

    println!("cpu features:");
    for (name, present) in simd::detected_features() {
        println!("  {name:<12} {}", if present { "yes" } else { "no" });
    }
    let tier = simd::active_tier();
    println!("kernel tier:  {}", tier.name());
    match simd::no_simd_env_value() {
        Some(v) => println!("{}:  set ({v:?})", simd::NO_SIMD_ENV),
        None => println!("{}:  unset (auto dispatch)", simd::NO_SIMD_ENV),
    }
}

/// `xpq snapshot (build|info|verify)` — manage on-disk document
/// snapshots. Dispatched before normal option parsing.
fn snapshot_cmd(args: &[String]) -> ExitCode {
    use gkp_xpath::xml::snap;
    use std::path::Path;

    const USAGE: &str =
        "usage: xpq snapshot (build [--ns] <XML> <SNAP> | info <SNAP> | verify <SNAP>)";
    fn info_lines(verb: &str, path: &str, info: &snap::SnapshotInfo) {
        println!("{verb} {path}:");
        println!("  format version: {}", info.version);
        println!("  file bytes:     {}", info.file_bytes);
        println!("  nodes:          {}", info.nodes);
        println!("  names:          {}", info.names);
        println!("  text bytes:     {}", info.text_bytes);
        println!("  ids:            {}", info.ids);
        println!("  refs:           {}", info.refs);
    }

    let sub = args.first().map(String::as_str);
    match sub {
        Some("build") => {
            let mut rest = &args[1..];
            let namespaces = rest.first().is_some_and(|a| a == "--ns");
            if namespaces {
                rest = &rest[1..];
            }
            let [xml_path, snap_path] = rest else {
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            };
            let xml = match std::fs::read_to_string(xml_path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("cannot read {xml_path}: {e}");
                    return ExitCode::from(1);
                }
            };
            let doc = match Document::parse_str_opts(
                &xml,
                gkp_xpath::xml::ParseOptions { namespaces, ..Default::default() },
            ) {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("XML error in {xml_path}: {e}");
                    return ExitCode::from(1);
                }
            };
            match snap::write(&doc, Path::new(snap_path)) {
                Ok(info) => {
                    info_lines("wrote", snap_path, &info);
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("snapshot error writing {snap_path}: {e}");
                    ExitCode::from(1)
                }
            }
        }
        Some(verb @ ("info" | "verify")) => {
            let [path] = &args[1..] else {
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            };
            let result = if verb == "verify" {
                snap::verify(Path::new(path))
            } else {
                snap::info(Path::new(path))
            };
            match result {
                Ok(info) => {
                    info_lines(if verb == "verify" { "verified" } else { "snapshot" }, path, &info);
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("snapshot error in {path}: {e}");
                    ExitCode::from(1)
                }
            }
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn serve_cmd(args: &[String]) -> ExitCode {
    use gkp_xpath::core::serve::{ServeConfig, Server};
    use std::sync::Arc;
    use std::time::Duration;

    const USAGE: &str = "usage: xpq serve --store DIR (--unix PATH | --tcp ADDR) \
         [--permits N] [--cache N] [--admission-ms N] [--verify]";

    let mut store: Option<String> = None;
    let mut unix: Option<String> = None;
    let mut tcp: Option<String> = None;
    let mut permits: Option<usize> = None;
    let mut cache: Option<usize> = None;
    let mut admission_ms: Option<u64> = None;
    let mut verify = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut take = |name: &str| -> Result<String, String> {
            it.next().cloned().ok_or_else(|| format!("{name} needs a value"))
        };
        let parsed: Result<(), String> = match arg.as_str() {
            "--store" => take("--store").map(|v| store = Some(v)),
            "--unix" => take("--unix").map(|v| unix = Some(v)),
            "--tcp" => take("--tcp").map(|v| tcp = Some(v)),
            "--permits" => take("--permits")
                .and_then(|v| v.parse().map_err(|_| "--permits: not a number".into()))
                .map(|v| permits = Some(v)),
            "--cache" => take("--cache")
                .and_then(|v| v.parse().map_err(|_| "--cache: not a number".into()))
                .map(|v| cache = Some(v)),
            "--admission-ms" => take("--admission-ms")
                .and_then(|v| v.parse().map_err(|_| "--admission-ms: not a number".into()))
                .map(|v| admission_ms = Some(v)),
            "--verify" => {
                verify = true;
                Ok(())
            }
            other => Err(format!("unknown flag {other}")),
        };
        if let Err(msg) = parsed {
            eprintln!("xpq serve: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    }
    let Some(store) = store else {
        eprintln!("xpq serve: --store is required\n{USAGE}");
        return ExitCode::from(2);
    };
    if unix.is_some() == tcp.is_some() {
        eprintln!("xpq serve: exactly one of --unix / --tcp is required\n{USAGE}");
        return ExitCode::from(2);
    }

    let mut config = ServeConfig::new(&store);
    if let Some(p) = permits {
        config.permits = p.max(1);
    }
    if let Some(c) = cache {
        config.cache_capacity = c.max(1);
    }
    if let Some(ms) = admission_ms {
        config.admission_timeout = Duration::from_millis(ms);
    }
    config.verify_snapshots = verify;

    let mut server = match Server::new(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("xpq serve: cannot open store {store}: {e}");
            return ExitCode::from(1);
        }
    };
    // Install the signal watcher from the main thread before the accept
    // loop spawns anything, so SIGTERM/SIGINT stay observable (blocked
    // masks are inherited) and trigger a graceful drain.
    server.watch_signals();
    let server = Arc::new(server);
    let result = if let Some(path) = unix {
        eprintln!("xpq serve: listening on unix:{path} (store {store})");
        server.serve_unix(std::path::Path::new(&path))
    } else {
        let addr = tcp.expect("checked above");
        eprintln!("xpq serve: listening on tcp:{addr} (store {store})");
        server.serve_tcp(&addr)
    };
    match result {
        Ok(()) => {
            eprintln!("xpq serve: drained, exiting");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("xpq serve: {e}");
            ExitCode::from(1)
        }
    }
}

fn client_cmd(args: &[String]) -> ExitCode {
    use std::io::{BufRead, BufReader, Write};
    use std::time::Duration;

    const USAGE: &str = "usage: xpq client (--unix PATH | --tcp ADDR) [--timeout-ms N]\n\
         reads request lines from stdin, prints one response line each";

    let mut unix: Option<String> = None;
    let mut tcp: Option<String> = None;
    let mut timeout_ms: u64 = 10_000;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match (arg.as_str(), it.next()) {
            ("--unix", Some(v)) => unix = Some(v.clone()),
            ("--tcp", Some(v)) => tcp = Some(v.clone()),
            ("--timeout-ms", Some(v)) => match v.parse() {
                Ok(ms) => timeout_ms = ms,
                Err(_) => {
                    eprintln!("xpq client: --timeout-ms: not a number\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            _ => {
                eprintln!("xpq client: bad arguments\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    if unix.is_some() == tcp.is_some() {
        eprintln!("xpq client: exactly one of --unix / --tcp is required\n{USAGE}");
        return ExitCode::from(2);
    }

    // One request line in, one response line out, over either stream
    // type, erased behind boxed Read/Write halves.
    let timeout = Some(Duration::from_millis(timeout_ms.max(1)));
    let (reader, mut writer): (Box<dyn std::io::Read>, Box<dyn Write>) = if let Some(path) = unix {
        match std::os::unix::net::UnixStream::connect(&path) {
            Ok(stream) => {
                let _ = stream.set_read_timeout(timeout);
                let r = match stream.try_clone() {
                    Ok(r) => r,
                    Err(e) => {
                        eprintln!("xpq client: {e}");
                        return ExitCode::from(1);
                    }
                };
                (Box::new(r), Box::new(stream))
            }
            Err(e) => {
                eprintln!("xpq client: cannot connect to unix:{path}: {e}");
                return ExitCode::from(1);
            }
        }
    } else {
        let addr = tcp.expect("checked above");
        match std::net::TcpStream::connect(&addr) {
            Ok(stream) => {
                let _ = stream.set_read_timeout(timeout);
                let r = match stream.try_clone() {
                    Ok(r) => r,
                    Err(e) => {
                        eprintln!("xpq client: {e}");
                        return ExitCode::from(1);
                    }
                };
                (Box::new(r), Box::new(stream))
            }
            Err(e) => {
                eprintln!("xpq client: cannot connect to tcp:{addr}: {e}");
                return ExitCode::from(1);
            }
        }
    };
    let mut responses = BufReader::new(reader);
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(l) => l,
            Err(e) => {
                eprintln!("xpq client: stdin: {e}");
                return ExitCode::from(1);
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        if writer.write_all(line.as_bytes()).is_err() || writer.write_all(b"\n").is_err() {
            eprintln!("xpq client: connection closed while writing");
            return ExitCode::from(1);
        }
        let _ = writer.flush();
        let mut response = String::new();
        match responses.read_line(&mut response) {
            Ok(0) => {
                eprintln!("xpq client: server closed the connection");
                return ExitCode::from(1);
            }
            Ok(_) => print!("{response}"),
            Err(e) => {
                eprintln!("xpq client: read: {e}");
                return ExitCode::from(1);
            }
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    // The snapshot/serve/client subcommands have their own argument
    // grammars; peel them off before the flag parser sees anything.
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().is_some_and(|a| a == "snapshot") {
        return snapshot_cmd(&raw[1..]);
    }
    if raw.first().is_some_and(|a| a == "serve") {
        return serve_cmd(&raw[1..]);
    }
    if raw.first().is_some_and(|a| a == "client") {
        return client_cmd(&raw[1..]);
    }
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    // Kernel-dispatch introspection: which word-sweep tier the SIMD
    // module selected and why. No query or document is involved.
    if opts.bench_info {
        print_bench_info();
        return ExitCode::SUCCESS;
    }
    let queries = match collect_queries(&opts) {
        Ok(q) => q,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let batch = queries.len() > 1;
    let compiler = Compiler::new().default_strategy(opts.strategy);

    // Lint mode: static analysis only, no document. Per-query parse
    // failures are reported as error-severity diagnostics (affecting the
    // exit code) rather than aborting the run, so a whole corpus is
    // always checked end to end.
    if opts.lint_only {
        return lint(&compiler, &queries, opts.json);
    }

    // Static-only modes (no document needed: the static phase is
    // document-independent). Each batch member prints under its own
    // header; --explain explains the compiled plan and additionally
    // reports the batch memo rule.
    if opts.normalize_only || opts.classify_only || opts.explain_only {
        // --explain states its |D|-dependent rules at the given document's
        // node count; without a FILE or --snapshot it assumes a size and
        // says so.
        let mut doc_size = ASSUMED_DOC_SIZE;
        if opts.explain_only {
            if opts.file.is_some() || opts.snapshot.is_some() {
                match read_document(&opts) {
                    Ok(doc) => doc_size = doc.len(),
                    Err((msg, code)) => {
                        eprintln!("{msg}");
                        return ExitCode::from(code);
                    }
                }
                println!("|D|:       {doc_size} nodes (the given document)");
            } else {
                println!("|D|:       {doc_size} nodes (assumed: no FILE or --snapshot given)");
            }
        }
        for q in &queries {
            let parsed = match compiler.parse(q) {
                Ok(e) => e,
                Err(e) => {
                    eprintln!("query error in {q:?}: {e}");
                    return ExitCode::from(2);
                }
            };
            if batch {
                println!("# {q}");
            }
            if opts.normalize_only {
                println!("{parsed}");
            } else if opts.classify_only {
                let c = gkp_xpath::core::classify(&parsed);
                println!("{} ({})", c.fragment.name(), c.fragment.complexity());
                for v in c.wadler_violations {
                    println!("  {v}");
                }
            } else {
                match compiler.compile(q) {
                    Ok(c) => {
                        print!("{}", gkp_xpath::core::explain::explain(c.plan(), doc_size).report);
                    }
                    Err(e) => {
                        eprintln!("evaluation error: {e}");
                        return ExitCode::from(1);
                    }
                }
            }
        }
        if batch && opts.explain_only {
            match QuerySetBuilder::with_compiler(compiler.clone())
                .queries(queries.iter().cloned())
                .build()
            {
                Ok(set) => print!("{}", set.explain(doc_size)),
                Err(e) => {
                    eprintln!("query error: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        return ExitCode::SUCCESS;
    }

    // Compile: one static phase for the whole invocation. A batch
    // compiles into a single QuerySet (shared-structure analysis
    // included); queries outside an explicitly requested fragment fail
    // here, before the document is even read.
    let compile_start = std::time::Instant::now();
    let set = match QuerySetBuilder::with_compiler(compiler.clone())
        .queries(queries.iter().cloned())
        .build()
    {
        Ok(s) => s,
        Err(e @ EvalError::Parse(_)) => {
            eprintln!("query error: {e}");
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("evaluation error: {e}");
            return ExitCode::from(1);
        }
    };
    let compile_time = compile_start.elapsed();
    if opts.verbose {
        for q in set.queries() {
            let fragment = q.fragment();
            if batch {
                eprintln!("query:    {}", q.text());
            }
            eprintln!("fragment: {} ({})", fragment.name(), fragment.complexity());
            eprintln!("strategy: {:?}", q.strategy());
        }
        // Aggregated static-analysis verdicts for the invocation (the
        // per-query details are available under --lint / --explain).
        let analysis = set
            .queries()
            .iter()
            .map(|q| gkp_xpath::AnalysisStats::of(q.report()))
            .fold(gkp_xpath::AnalysisStats::default(), gkp_xpath::AnalysisStats::plus);
        eprintln!("analysis: {analysis}");
    }

    // Load the document.
    let parse_start = std::time::Instant::now();
    let doc = match read_document(&opts) {
        Ok(d) => d,
        Err((msg, code)) => {
            eprintln!("{msg}");
            return ExitCode::from(code);
        }
    };
    let parse_time = parse_start.elapsed();
    if opts.stats {
        eprint!("{}", gkp_xpath::xml::stats::stats(&doc));
    }

    if opts.verify {
        let ctx = gkp_xpath::core::Context::of(doc.root());
        for q in set.queries() {
            match gkp_xpath::core::plan::evaluate_all_agree(q.expr(), &doc, ctx, 10_000_000) {
                Ok(_) => eprintln!("verify: all algorithms agree on {}", q.text()),
                Err(e) => {
                    eprintln!("verify FAILED on {}: {e}", q.text());
                    return ExitCode::from(1);
                }
            }
        }
    }

    let budget = match opts.timeout_ms {
        Some(ms) => EvalBudget::timeout(std::time::Duration::from_millis(ms)),
        None => EvalBudget::unlimited(),
    };

    // Early-exit modes: pull from the lazy cursor instead of
    // materializing the whole answer (streamable spines stop at the last
    // block they needed; everything else falls back to one budgeted
    // materialized run).
    if opts.exists || opts.first || opts.limit.is_some() {
        if batch {
            eprintln!("--exists/--first/--limit take exactly one query");
            return ExitCode::from(2);
        }
        let q = &set.queries()[0];
        let ctx = gkp_xpath::core::Context::of(doc.root());
        let take = if opts.limit.is_some() { opts.limit } else { Some(1) };
        let mut cursor = q.select_lazy_with(&doc, ctx, budget, take);
        let mut out = gkp_xpath::NodeSet::new();
        match cursor.next_block(&mut out, take.unwrap_or(usize::MAX)) {
            Ok(_) => {}
            Err(e) => {
                eprintln!("evaluation error: {e}");
                // Exit 1 means "no match" here, so an error exits 2.
                let code = exit_for(&e);
                return ExitCode::from(if code == EXIT_TIMED_OUT { code } else { 2 });
            }
        }
        if opts.exists {
            println!("{}", !out.is_empty());
        } else {
            print_value(&doc, &opts, &Value::NodeSet(out.clone()));
        }
        return if out.is_empty() && opts.limit.is_none() {
            ExitCode::from(1)
        } else {
            ExitCode::SUCCESS
        };
    }

    // Runtime phase: `--repeat` batch evaluations. For single queries,
    // repeated runs additionally go through a QueryCache — the
    // compile-once / evaluate-many path a service would take — and its
    // hit/miss counters are surfaced afterwards. The cache is warmed (one
    // miss, compiling outside the timed region) so the timed loop
    // measures the steady state.
    let cache = gkp_xpath::core::QueryCache::new(16);
    let single = (!batch && opts.repeat > 1).then(|| queries[0].as_str());
    if let Some(q) = single {
        let _ = cache.get_or_compile(&compiler, q);
    }
    let eval_start = std::time::Instant::now();
    let ctx = gkp_xpath::core::Context::of(doc.root());
    let mut batch_stats = None;
    let results: Vec<Result<Value, EvalError>> = if let Some(q) = single {
        // Single query under -r: first run on the precompiled handle,
        // steady-state runs through the warmed cache.
        let mut result = set.queries()[0].evaluate_with(&doc, ctx, &budget);
        for _ in 1..opts.repeat {
            result = match cache.get_or_compile(&compiler, q) {
                Ok(compiled) => compiled.evaluate_with(&doc, ctx, &budget),
                Err(e) => Err(e),
            };
        }
        vec![result]
    } else {
        let mut out = set.evaluate_all_with(&doc, ctx, &budget);
        for _ in 1..opts.repeat {
            out = set.evaluate_all_with(&doc, ctx, &budget);
        }
        batch_stats = Some(*out.stats());
        out.into_results()
    };
    let eval_time = eval_start.elapsed();
    if single.is_some() {
        let stats = cache.stats();
        eprintln!(
            "cache: {} hits, {} misses, {} resident",
            stats.hits, stats.misses, stats.entries
        );
    }
    if opts.verbose || opts.repeat > 1 {
        if let (true, Some(s)) = (batch, batch_stats) {
            eprintln!(
                "batch: mode={}, {} queries ({} fragment), {} memo hits / {} misses",
                s.mode.name(),
                s.queries,
                s.fragment_queries,
                s.memo_hits,
                s.memo_misses
            );
        }
        // Axis-kernel provenance: which materializations actually ran,
        // and how many applications the batch memo shared. Zero-total
        // tallies (non-fragment strategies) are omitted.
        let mut kernels = set.planner_stats().plus(cache.planner_stats());
        for q in set.queries() {
            kernels = kernels.plus(q.planner_stats());
        }
        if kernels.total() > 0 {
            eprintln!("planner: {kernels} axis applications");
        }
    }
    if opts.time {
        if opts.repeat > 1 {
            eprintln!(
                "parse: {parse_time:?}  compile: {compile_time:?}  evaluate: {eval_time:?} \
                 total ({} runs, {:?}/run)",
                opts.repeat,
                eval_time / opts.repeat
            );
        } else {
            eprintln!("parse: {parse_time:?}  compile: {compile_time:?}  evaluate: {eval_time:?}");
        }
    }

    let mut failed: u8 = 0;
    for (q, result) in queries.iter().zip(&results) {
        if batch {
            println!("# {q}");
        }
        match result {
            Ok(v) => print_value(&doc, &opts, v),
            Err(e) => {
                eprintln!("evaluation error in {q:?}: {e}");
                failed = failed.max(exit_for(e));
            }
        }
    }
    ExitCode::from(failed)
}
