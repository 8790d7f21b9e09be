//! The traced run: the per-layer breakdown.
//!
//! Spans are recorded from the benchmark's side, around calls into each
//! layer's public functions, in three parts:
//!
//! 1. the workload's open-loop stream over the socket at its fixed rate,
//!    with client spans (`client.wait`: due → sent, `client.request`:
//!    sent → received), then pings paced like the stream, which time the
//!    socket with no query work;
//! 2. a sequential in-process replay of the same requests, making the
//!    layer calls in the order `Server::handle_line` makes them, with a
//!    `QueryCache` of the served capacity, against the store of an
//!    in-process `Server` over the same store directory; every request
//!    then also goes through that `Server`'s `handle_line` (with its own
//!    cache, so it compiles what the replay compiled). Sharing the store
//!    gives both paths one `Document` per generation, as in the served
//!    process;
//! 3. the spans, kept in memory and written at exit to
//!    `<trace_dir>/trace-<workload>.jsonl` (one JSON object per line:
//!    `id`, `name`, `part`, `req`, `parent`, `start_us`, `end_us`).
//!
//! `serve.residual` (admission, rendering, bookkeeping) is `handle_line`
//! minus the layer spans of the same request; `serve.transport` is the
//! median ping round trip.
//!
//! `trace.reconcile` checks that the layers account for a request. The
//! median over requests of the summed layer spans (part 2, timed without
//! `handle_line`) plus the median ping round trip (part 1) is divided by
//! the median socket round trip of the same requests (part 1). The three
//! are measured apart from one another, so a layer left untimed, or a
//! span around the wrong call, moves the ratio away from 1.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use xpath_core::serve::{Json, ServeConfig, Server};
use xpath_core::{Compiler, Context, EvalBudget, QueryCache, QuerySetBuilder, Strategy, Value};
use xpath_xml::Document;

use crate::client::{closed_loop, median, open_loop, ping_loop, quantile, Record};
use crate::run::{
    beside_publisher, check_against_timeline, checking, connect_all, note_server_stats, set_up,
    Options, Outcome, PHASE_OPEN, PHASE_WARM,
};
use crate::server::PERMITS;
use crate::workload::{check_response, Prepared, DOC_NAME};

/// Requests whose spans are written to the trace file (the per-layer
/// table uses every span).
const REQUESTS_WRITTEN: u64 = 2_000;

/// Layers reported with `calls` and `busy_ms` (self time).
const LAYERS: [&str; 9] = [
    "serve.decode",
    "store.open",
    "cache.lookup",
    "batch.build",
    "plan.execute",
    "batch.execute",
    "serve.residual",
    "xml.parse",
    "store.publish",
];

/// Strategies `Auto` resolves to, reported as shares of evaluated
/// queries.
const STRATEGIES: [Strategy; 3] =
    [Strategy::CoreXPath, Strategy::XPatterns, Strategy::OptMinContext];

/// Batch modes, reported as shares of batch requests.
const MODES: [&str; 3] = ["lock_step_shared", "per_query_sharded", "serial"];

/// One recorded span. Times are offsets from the run's epoch.
#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    part: u8,
    /// Request id (`None` for spans outside a request, e.g. publishes).
    req: Option<u64>,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

impl Span {
    fn us(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e6
    }
}

/// In-memory span store.
struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    fn now(&self) -> Duration {
        self.epoch.elapsed()
    }

    fn push(
        &mut self,
        name: &'static str,
        part: u8,
        req: Option<u64>,
        start: Duration,
        end: Duration,
    ) {
        self.spans.push(Span { name, part, req, parent: None, start, end });
    }

    /// Time `f` as a part-2 span named `name` of request `req`; returns
    /// its value and duration in µs.
    fn time<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let start = self.now();
        let value = f();
        let end = self.now();
        self.push(name, 2, Some(req), start, end);
        (value, (end - start).as_secs_f64() * 1e6)
    }
}

/// Counts gathered by the layer replay.
#[derive(Default)]
struct Tally {
    hit_us: Vec<f64>,
    miss_us: Vec<f64>,
    queries: u64,
    strategies: BTreeMap<String, u64>,
    nodes_out: u64,
    axes: [u64; 3],
    batches: u64,
    batch_queries: u64,
    fragment_queries: u64,
    memo: (u64, u64),
    modes: BTreeMap<&'static str, u64>,
}

/// The replay side: a cache and compiler like the served ones, and an
/// in-process `Server` whose store the layer calls share, so both paths
/// read one `Document` per generation, as the served process does.
struct Replay {
    server: Server,
    cache: QueryCache,
    compiler: Compiler,
    fingerprint: String,
    budget: EvalBudget,
}

impl Replay {
    /// `Server::handle_line`'s layer calls for one request, each under
    /// its own span. Returns the request's summed layer time in µs.
    fn request(
        &self,
        rec: &mut Recorder,
        tally: &mut Tally,
        k: u64,
        line: &str,
    ) -> io::Result<f64> {
        let mut us = 0.0;
        let first = rec.spans.len();
        let (decoded, t) = rec.time("serve.decode", k, || decode(line));
        us += t;
        let (doc_name, texts) = decoded.map_err(io::Error::other)?;
        let (doc, t) = rec.time("store.open", k, || self.server.store().open_doc(&doc_name));
        us += t;
        let doc = doc.map_err(io::Error::other)?;

        let mut compiled = Vec::with_capacity(texts.len());
        for text in &texts {
            let misses = self.cache.stats().misses;
            let (q, t) = rec.time("cache.lookup", k, || {
                self.cache.get_or_compile_keyed(&self.compiler, &self.fingerprint, text)
            });
            us += t;
            let missed = self.cache.stats().misses > misses;
            if missed { &mut tally.miss_us } else { &mut tally.hit_us }.push(t);
            compiled.push(q.map_err(io::Error::other)?);
        }

        let ctx = Context::of(doc.root());
        let results: Vec<Value> = if let [q] = compiled.as_slice() {
            let before = q.planner_stats();
            let (value, t) =
                rec.time("plan.execute", k, || q.evaluate_with(&doc, ctx, &self.budget));
            us += t;
            let after = q.planner_stats();
            tally.axes[0] += after.per_node - before.per_node;
            tally.axes[1] += after.bulk_sparse - before.bulk_sparse;
            tally.axes[2] += after.bulk_dense - before.bulk_dense;
            vec![value.map_err(io::Error::other)?]
        } else {
            let (set, t) = rec.time("batch.build", k, || {
                let mut b = QuerySetBuilder::with_compiler(self.compiler.clone()).threads(1);
                for q in &compiled {
                    b = b.compiled(Arc::clone(q));
                }
                b.build()
            });
            us += t;
            let set = set.map_err(io::Error::other)?;
            let (result, t) =
                rec.time("batch.execute", k, || set.evaluate_all_with(&doc, ctx, &self.budget));
            us += t;
            let stats = result.stats();
            tally.batches += 1;
            tally.batch_queries += stats.queries as u64;
            tally.fragment_queries += stats.fragment_queries as u64;
            tally.memo.0 += stats.memo_hits;
            tally.memo.1 += stats.memo_misses;
            *tally.modes.entry(stats.mode.name()).or_default() += 1;
            let kc = set.planner_stats();
            tally.axes[0] += kc.per_node;
            tally.axes[1] += kc.bulk_sparse;
            tally.axes[2] += kc.bulk_dense;
            result.into_results().into_iter().collect::<Result<_, _>>().map_err(io::Error::other)?
        };
        for (q, v) in compiled.iter().zip(&results) {
            tally.queries += 1;
            *tally.strategies.entry(format!("{:?}", q.strategy())).or_default() += 1;
            tally.nodes_out += match v {
                Value::NodeSet(ns) => ns.len() as u64,
                _ => 1,
            };
        }

        // A request root over the layer spans.
        let (start, end) = (rec.spans[first].start, rec.now());
        rec.push("request", 2, Some(k), start, end);
        let root = rec.spans.len() - 1;
        for s in &mut rec.spans[first..root] {
            s.parent = Some(root);
        }
        Ok(us)
    }
}

/// What `op_eval` extracts from a request line: the document name and
/// the query texts.
fn decode(line: &str) -> Result<(String, Vec<String>), String> {
    let req = Json::parse(line.trim_end())?;
    let texts = match (req.get("query"), req.get("queries")) {
        (Some(q), _) => q.as_str().map(str::to_owned).into_iter().collect(),
        (None, Some(qs)) => {
            qs.as_arr().unwrap_or(&[]).iter().filter_map(Json::as_str).map(str::to_owned).collect()
        }
        (None, None) => Vec::new(),
    };
    let doc = req.get("doc").and_then(Json::as_str).unwrap_or_default().to_owned();
    Ok((doc, texts))
}

/// The traced run of one workload.
///
/// # Errors
/// Set-up, transport or trace-file failures.
#[allow(clippy::too_many_lines)]
pub fn run_traced(opts: &Options, prepared: &Prepared) -> io::Result<Outcome> {
    let spec = prepared.spec;
    let mut out = Outcome::default();
    let setup = set_up(opts, prepared, &mut out)?;
    let served = &setup.served;
    let mut conns = connect_all(served, spec.connections)?;
    let checking = checking(prepared);
    let t = Duration::from_secs_f64(opts.seconds);
    let (warm_end, stream_end, part1_end, part2_budget) =
        (t / 15, t.mul_f64(0.35), t.mul_f64(0.4), t.mul_f64(0.6));

    // Part 1: the socket, at the workload's rate, then pings paced as
    // each connection's share of it.
    let epoch = Instant::now();
    #[allow(clippy::cast_precision_loss)]
    let ping_interval = Duration::from_secs_f64(spec.connections as f64 / spec.rate);
    let ((mut warm, mut part1, ping_us), log) = beside_publisher(served, prepared, epoch, || {
        let warm = closed_loop(&mut conns, prepared, PHASE_WARM, epoch, warm_end, checking)?;
        let from = epoch.elapsed() + Duration::from_millis(5);
        let window = (from, stream_end.max(from));
        let part1 =
            open_loop(&mut conns, prepared, PHASE_OPEN, epoch, window, spec.rate, checking)?;
        let from = epoch.elapsed() + Duration::from_millis(5);
        let ping_us = ping_loop(&mut conns[0], epoch, (from, part1_end.max(from)), ping_interval)?;
        Ok((warm, part1, ping_us))
    })?;
    for records in [&mut warm, &mut part1] {
        check_against_timeline(prepared, records, &log);
        out.tally(records);
    }
    let stats = served.stats()?;
    drop(conns);

    let mut rec = Recorder { epoch, spans: Vec::new() };
    for r in &part1 {
        rec.push("client.wait", 1, Some(r.k), r.due, r.sent);
        rec.push("client.request", 1, Some(r.k), r.sent, r.recv);
    }
    for p in &log {
        let parsed = p.start.saturating_sub(Duration::from_secs_f64(p.parse_ms / 1e3));
        rec.push("xml.parse", 1, None, parsed, p.start);
        rec.push("store.publish", 1, None, p.start, p.end);
    }

    // Part 2: the in-process replay, warmed with every distinct request
    // once so its caches hold what the served ones hold. The warmup
    // counts against the part's time budget.
    let part2_start = Instant::now();
    let capacity = ServeConfig::new(served.store_dir()).cache_capacity;
    let compiler = Compiler::new().threads(1);
    let mut config = ServeConfig::new(served.store_dir());
    config.permits = PERMITS;
    let replay = Replay {
        server: Server::new(config).map_err(io::Error::other)?,
        cache: QueryCache::new(capacity),
        fingerprint: compiler.options_fingerprint(),
        compiler,
        budget: EvalBudget::unlimited().with_cancel(Arc::new(AtomicBool::new(false))),
    };
    let (server, store) = (&replay.server, replay.server.store());
    let mut warmup = Recorder { epoch, spans: Vec::new() };
    for req in &prepared.requests {
        replay.request(&mut warmup, &mut Tally::default(), 0, &req.line)?;
        server.handle_line(req.line.trim_end());
    }
    let (store_before, cache_before) = (store.stats(), replay.cache.stats());

    let mut tally = Tally::default();
    let mut handle_us: BTreeMap<u64, f64> = BTreeMap::new();
    let mut request_us = Vec::new();
    let mut residual_us = Vec::new();
    let mut generation = log.last().map_or(0, |p| p.generation);
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let publish_every =
        spec.publish_every.map(|every| (spec.rate * every.as_secs_f64()).round().max(1.0) as usize);
    let gap = Duration::from_secs_f64(1.0 / spec.rate);
    for (i, r) in part1.iter().enumerate() {
        // At least one request, however long the warmup took.
        if i > 0 && part2_start.elapsed() >= part2_budget {
            break;
        }
        if publish_every.is_some_and(|n| i > 0 && i % n == 0) {
            generation = (generation + 1) % prepared.xml.len();
            let start = rec.now();
            let doc = Document::parse_str(&prepared.xml[generation]).map_err(io::Error::other)?;
            let parsed = rec.now();
            store.publish(DOC_NAME, &doc).map_err(io::Error::other)?;
            let published = rec.now();
            rec.push("xml.parse", 2, None, start, parsed);
            rec.push("store.publish", 2, None, parsed, published);
        }
        let req = &prepared.requests[r.req as usize];
        // Both paths start after one mean arrival gap, as the served
        // process idles between requests: back to back, the second
        // would find the first one's work in the CPU caches.
        thread::sleep(gap);
        let layers = replay.request(&mut rec, &mut tally, r.k, &req.line)?;
        thread::sleep(gap);
        let (response, handle) =
            rec.time("serve.handle_line", r.k, || server.handle_line(req.line.trim_end()));
        out.attempted += 1;
        if let Err(e) = check_response(&response, req, &[generation]) {
            out.failed += 1;
            eprintln!("bench_e2e: wrong in-process response to {}: {e}", req.line.trim_end());
        }
        handle_us.insert(r.k, handle);
        request_us.push(layers);
        residual_us.push(handle - layers);
    }
    let (store_after, cache_after) = (store.stats(), replay.cache.stats());
    drop(replay);
    setup.served.stop()?;

    // Self time per layer, from the spans (publishes from set-up when
    // the workload makes none beside reads).
    let mut busy: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in rec.spans.iter().filter(|s| LAYERS.contains(&s.name)) {
        if s.part == 2 || s.req.is_none() {
            busy.entry(s.name).or_default().push(s.us());
        }
    }
    if !busy.contains_key("store.publish") {
        busy.insert("xml.parse", setup.parse_ms.iter().map(|ms| ms * 1e3).collect());
        busy.insert("store.publish", setup.publish_ms.iter().map(|ms| ms * 1e3).collect());
    }
    busy.insert("serve.residual", residual_us.clone());
    let span_median = |name: &str| busy.get(name).map_or(0.0, |v| median(v));

    // Socket round trips of the requests the replay reached.
    let round_trip_us: Vec<f64> = part1
        .iter()
        .filter(|r| handle_us.contains_key(&r.k))
        .map(|r| (r.recv - r.sent).as_secs_f64() * 1e6)
        .collect();
    let reconcile = (median(&request_us) + median(&ping_us)) / median(&round_trip_us);

    let mut latency: Vec<f64> = part1.iter().map(Record::latency_ms).collect();
    latency.sort_by(f64::total_cmp);
    let mut lateness: Vec<f64> = part1.iter().map(Record::lateness_ms).collect();
    lateness.sort_by(f64::total_cmp);
    #[allow(clippy::cast_precision_loss)]
    let n = |v: u64| v as f64;
    let share = |num: u64, den: u64| if den == 0 { 0.0 } else { n(num) / n(den) };
    let replayed = handle_us.len() as u64;

    out.metric("serve.decode_us", span_median("serve.decode"), "us");
    out.metric("serve.residual_us", median(&residual_us), "us");
    out.metric("serve.transport_us", median(&ping_us), "us");
    let bytes: u64 = part1.iter().map(|r| r.bytes as u64).sum();
    out.metric("serve.response_bytes", share(bytes, part1.len() as u64), "B");
    out.metric("store.open_us", span_median("store.open"), "us");
    let opens = |s: &xpath_core::store::StoreStats| s.hits + s.misses + s.reloads;
    let store_opens = opens(&store_after) - opens(&store_before);
    out.metric(
        "store.hit_ratio",
        share(store_after.hits - store_before.hits, store_opens),
        "ratio",
    );
    out.metric("store.reloads", n(store_after.reloads - store_before.reloads), "count");
    out.metric("store.publish_ms", span_median("store.publish") / 1e3, "ms");
    out.metric("xml.parse_ms", span_median("xml.parse") / 1e3, "ms");
    let lookups = |s: &xpath_core::CacheStats| s.hits + s.misses;
    let cache_lookups = lookups(&cache_after) - lookups(&cache_before);
    out.metric(
        "cache.hit_ratio",
        share(cache_after.hits - cache_before.hits, cache_lookups),
        "ratio",
    );
    out.metric("cache.hit_us", median(&tally.hit_us), "us");
    out.metric("cache.miss_us", median(&tally.miss_us), "us");
    out.metric("plan.execute_us", span_median("plan.execute"), "us");
    for s in STRATEGIES {
        let name = format!("{s:?}");
        let count = tally.strategies.get(&name).copied().unwrap_or(0);
        out.metric(&format!("plan.strategy_share.{name}"), share(count, tally.queries), "ratio");
    }
    out.metric("plan.nodes_out", share(tally.nodes_out, tally.queries), "count");
    for (name, count) in
        ["axes.per_node", "axes.bulk_sparse", "axes.bulk_dense"].iter().zip(tally.axes)
    {
        out.metric(name, share(count, replayed), "count");
    }
    out.metric("batch.build_us", span_median("batch.build"), "us");
    out.metric("batch.execute_us", span_median("batch.execute"), "us");
    out.metric("batch.memo_hit_ratio", share(tally.memo.0, tally.memo.0 + tally.memo.1), "ratio");
    out.metric("batch.fragment_share", share(tally.fragment_queries, tally.batch_queries), "ratio");
    for m in MODES {
        let count = tally.modes.get(m).copied().unwrap_or(0);
        out.metric(&format!("batch.mode_share.{m}"), share(count, tally.batches), "ratio");
    }
    let snap = &setup.snapshot;
    out.metric("snap.bytes_per_node", n(snap.file_bytes) / f64::from(snap.nodes), "B");
    let stat = |a: &str, b: &str| {
        stats.get(a).and_then(|o| o.get(b)).and_then(Json::as_f64).unwrap_or(0.0)
    };
    out.metric("pool.peak_in_use", stat("pool", "peak_in_use"), "count");
    out.metric("pool.timeouts", stat("pool", "timeouts"), "count");
    out.metric("server.overloaded", stat("server", "overloaded"), "count");
    out.metric("client.wait_ms", quantile(&lateness, 0.99), "ms");
    out.metric("trace.rt_p50_ms", quantile(&latency, 0.5), "ms");
    out.metric("trace.reconcile", reconcile, "ratio");
    for layer in LAYERS {
        let v = busy.get(layer).map_or(&[][..], Vec::as_slice);
        out.metric(&format!("{layer}.calls"), n(v.len() as u64), "count");
        out.metric(&format!("{layer}.busy_ms"), v.iter().sum::<f64>() / 1e3, "ms");
    }

    out.note("part1.samples", n(part1.len() as u64));
    out.note("part1.pings", n(ping_us.len() as u64));
    out.note("part2.replayed", n(replayed));
    // How much of `handle_line` no layer span covers.
    let handle_p50 = median(&handle_us.values().copied().collect::<Vec<_>>());
    out.note("part2.residual_share", median(&residual_us) / handle_p50);
    note_server_stats(&mut out, &stats);
    write_spans(opts, prepared, &rec)?;
    Ok(out)
}

fn write_spans(opts: &Options, prepared: &Prepared, rec: &Recorder) -> io::Result<()> {
    std::fs::create_dir_all(&opts.trace_dir)?;
    let mut text = String::new();
    for (id, s) in rec.spans.iter().enumerate() {
        if s.req.is_some_and(|k| k >= REQUESTS_WRITTEN) {
            continue;
        }
        let opt = |v: Option<u64>| v.map_or_else(|| "null".to_owned(), |v| v.to_string());
        let _ = writeln!(
            text,
            "{{\"id\":{id},\"name\":\"{}\",\"part\":{},\"req\":{},\"parent\":{},\
             \"start_us\":{:.3},\"end_us\":{:.3}}}",
            s.name,
            s.part,
            opt(s.req),
            opt(s.parent.map(|p| p as u64)),
            s.start.as_secs_f64() * 1e6,
            s.end.as_secs_f64() * 1e6,
        );
    }
    std::fs::write(opts.trace_dir.join(format!("trace-{}.jsonl", prepared.spec.name)), text)
}
