//! One measured run of one workload: set-up, warmup, a closed-loop
//! capacity phase and an open-loop latency phase, with every response
//! checked.

use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use xpath_core::serve::Json;
use xpath_core::store::DocumentStore;
use xpath_xml::snap::SnapshotInfo;
use xpath_xml::Document;

use crate::client::{
    closed_loop, median, open_loop, quantile, supports_quantile, Checking, Conn, Record,
};
use crate::server::{Launch, Served, TempDir};
use crate::workload::{check_response, Prepared, DOC_NAME};

/// How runs are made.
#[derive(Clone, Debug)]
pub struct Options {
    /// The server to run.
    pub launch: Launch,
    /// Seconds measured per workload (set-up excluded).
    pub seconds: f64,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Parent of the per-server scratch directories.
    pub scratch: PathBuf,
    /// Where traced runs write their span files.
    pub trace_dir: PathBuf,
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of one run of one workload.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Requests sent and checked (set-up, warmup and measured phases).
    pub attempted: u64,
    /// Requests that failed, were refused or answered wrongly.
    pub failed: u64,
    /// The metrics the run reports.
    pub metrics: Vec<Metric>,
    /// Data that says whether the run was valid (sample counts,
    /// generator lateness, server counters) — reported, not compared.
    pub validity: Vec<(String, f64)>,
}

impl Outcome {
    pub(crate) fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.to_owned(), value, unit });
    }

    pub(crate) fn note(&mut self, name: &str, value: f64) {
        self.validity.push((name.to_owned(), value));
    }

    pub(crate) fn tally(&mut self, records: &[Record]) {
        self.attempted += records.len() as u64;
        self.failed += records.iter().filter(|r| r.ok != Some(true)).count() as u64;
    }
}

// Stream ids of the phases (see `client::stream_id`).
pub(crate) const PHASE_WARM: u64 = 2;
pub(crate) const PHASE_CAPACITY: u64 = 3;
pub(crate) const PHASE_OPEN: u64 = 4;

/// A server that has been set up and answered, plus what set-up cost.
pub(crate) struct SetUp {
    pub served: Served,
    pub setup_s: Vec<f64>,
    pub parse_ms: Vec<f64>,
    pub publish_ms: Vec<f64>,
    pub snapshot: SnapshotInfo,
}

/// Start a server over an empty store and, once it answers a ping on an
/// open connection, time parsing and publishing generation 0 until the
/// first correct answer — `opts.setups` times, keeping the last server.
/// (Process start and the first connect are not timed: they are paced
/// by the server's accept-loop tick, not by the work of set-up.)
pub(crate) fn set_up(opts: &Options, prepared: &Prepared, out: &mut Outcome) -> io::Result<SetUp> {
    let mut timings = (Vec::new(), Vec::new(), Vec::new());
    let mut kept = None;
    for rep in 0..opts.setups.max(1) {
        let dir = TempDir::new(&opts.scratch, prepared.spec.name)?;
        let served = Served::start(&opts.launch, dir)?;
        let mut conn = served.connect()?;
        conn.roundtrip("{\"op\":\"ping\"}\n")?;
        let t0 = Instant::now();
        let (parse_ms, publish_ms, snapshot) = parse_and_publish(&served, prepared, 0)?;
        // The same first request for every seed, so set-up time does not
        // depend on which query the stream happens to start with.
        let first = &prepared.requests[0];
        let reply = conn.roundtrip(&first.line)?;
        out.attempted += 1;
        if let Err(e) = check_response(reply, first, &[0]) {
            out.failed += 1;
            eprintln!("bench_e2e: wrong first answer: {e}");
        }
        timings.0.push(t0.elapsed().as_secs_f64());
        timings.1.push(parse_ms);
        timings.2.push(publish_ms);
        if rep + 1 == opts.setups.max(1) {
            kept = Some((served, snapshot));
        } else {
            served.stop()?;
        }
    }
    let (served, snapshot) = kept.expect("at least one set-up");
    Ok(SetUp { served, setup_s: timings.0, parse_ms: timings.1, publish_ms: timings.2, snapshot })
}

/// Parse generation `g` and publish it into the served store; returns
/// (parse ms, publish ms, snapshot info).
pub(crate) fn parse_and_publish(
    served: &Served,
    prepared: &Prepared,
    g: usize,
) -> io::Result<(f64, f64, SnapshotInfo)> {
    let store = DocumentStore::open(served.store_dir()).map_err(io::Error::other)?;
    let t = Instant::now();
    let doc = Document::parse_str(&prepared.xml[g]).map_err(io::Error::other)?;
    let parse_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let info = store.publish(DOC_NAME, &doc).map_err(io::Error::other)?;
    Ok((parse_ms, t.elapsed().as_secs_f64() * 1e3, info))
}

/// One publish made beside the reads.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Publish {
    pub generation: usize,
    /// The rename happened somewhere in `[start, end]` (offsets from the
    /// run's epoch).
    pub start: Duration,
    pub end: Duration,
    pub parse_ms: f64,
    pub publish_ms: f64,
}

/// Re-publish the alternate generation every `every` until `stop` is
/// set, recording each publish.
pub(crate) fn publisher(
    store: &DocumentStore,
    prepared: &Prepared,
    epoch: Instant,
    every: Duration,
    stop: &AtomicBool,
    log: &Mutex<Vec<Publish>>,
) -> io::Result<()> {
    let generations = prepared.xml.len();
    let mut n = 1u32;
    while !stop.load(Ordering::SeqCst) {
        let next = every * n;
        while epoch.elapsed() < next && !stop.load(Ordering::SeqCst) {
            thread::sleep(Duration::from_millis(1).min(next.saturating_sub(epoch.elapsed())));
        }
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let generation = n as usize % generations;
        let t = Instant::now();
        let doc = Document::parse_str(&prepared.xml[generation]).map_err(io::Error::other)?;
        let parse_ms = t.elapsed().as_secs_f64() * 1e3;
        let start = epoch.elapsed();
        store.publish(DOC_NAME, &doc).map_err(io::Error::other)?;
        let end = epoch.elapsed();
        let publish_ms = (end - start).as_secs_f64() * 1e3;
        log.lock().expect("publish log poisoned").push(Publish {
            generation,
            start,
            end,
            parse_ms,
            publish_ms,
        });
        n += 1;
    }
    Ok(())
}

/// Run `phases` while, for a workload that republishes, a second thread
/// publishes the other generation into the served store. Returns what
/// the phases returned and the publish log.
pub(crate) fn beside_publisher<T>(
    served: &Served,
    prepared: &Prepared,
    epoch: Instant,
    phases: impl FnOnce() -> io::Result<T>,
) -> io::Result<(T, Vec<Publish>)> {
    let store = DocumentStore::open(served.store_dir()).map_err(io::Error::other)?;
    let stop = AtomicBool::new(false);
    let log = Mutex::new(Vec::new());
    let result = thread::scope(|scope| {
        let publishing = prepared.spec.publish_every.map(|every| {
            let (store, stop, log) = (&store, &stop, &log);
            scope.spawn(move || publisher(store, prepared, epoch, every, stop, log))
        });
        let result = phases();
        stop.store(true, Ordering::SeqCst);
        if let Some(p) = publishing {
            p.join().expect("publisher panicked")?;
        }
        result
    })?;
    Ok((result, log.into_inner().expect("publish log poisoned")))
}

/// Check deferred responses against the generations that could have
/// been live while each request was in flight.
pub(crate) fn check_against_timeline(prepared: &Prepared, records: &mut [Record], log: &[Publish]) {
    for r in records.iter_mut() {
        let Some(response) = r.response.take() else { continue };
        let live = log.iter().rev().find(|p| p.end <= r.sent).map_or(0, |p| p.generation);
        let mut allowed = vec![live];
        for p in log.iter().filter(|p| p.start <= r.recv && p.end >= r.sent) {
            if !allowed.contains(&p.generation) {
                allowed.push(p.generation);
            }
        }
        let req = &prepared.requests[r.req as usize];
        let outcome = check_response(&response, req, &allowed);
        if let Err(e) = &outcome {
            eprintln!("bench_e2e: wrong response to {}: {e}", req.line.trim_end());
        }
        r.ok = Some(outcome.is_ok());
    }
}

pub(crate) fn connect_all(served: &Served, n: usize) -> io::Result<Vec<Conn>> {
    (0..n).map(|_| served.connect()).collect()
}

pub(crate) fn checking(prepared: &Prepared) -> Checking {
    if prepared.xml.len() > 1 {
        Checking::Deferred
    } else {
        Checking::Inline
    }
}

/// Server counters worth reporting beside the metrics.
pub(crate) fn note_server_stats(out: &mut Outcome, stats: &Json) {
    let get = |a: &str, b: &str| stats.get(a).and_then(|o| o.get(b)).and_then(Json::as_f64);
    for (a, b) in [
        ("server", "overloaded"),
        ("server", "errors"),
        ("pool", "peak_in_use"),
        ("pool", "timeouts"),
        ("cache", "hits"),
        ("cache", "misses"),
        ("store", "reloads"),
    ] {
        if let Some(v) = get(a, b) {
            out.note(&format!("stats.{a}.{b}"), v);
        }
    }
}

/// Rate of correct completions between `start` and `end`.
fn completion_rate(records: &[Record], start: Duration, end: Duration) -> f64 {
    let done = records.iter().filter(|r| r.ok == Some(true) && r.recv >= start).count();
    #[allow(clippy::cast_precision_loss)]
    let rate = done as f64 / end.saturating_sub(start).as_secs_f64().max(1e-3);
    rate
}

/// Time of a fixed CPU-only loop, reported beside each run so a reader
/// can tell a slow machine from a slow server.
fn host_probe_ms() -> f64 {
    let t = Instant::now();
    let mut x = 1u64;
    for i in 0..20_000_000u64 {
        x = xpath_xml::rng::splitmix64(x ^ i);
    }
    std::hint::black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

fn ms(samples: impl Iterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = samples.collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Run `phase` and return its requests with the server's CPU time per
/// request in µs, summed over the threads that lived through the whole
/// phase. (The server starts none during a phase: its connections are
/// opened before.)
fn with_server_cpu_us(
    served: &Served,
    phase: impl FnOnce() -> io::Result<Vec<Record>>,
) -> io::Result<(Vec<Record>, f64)> {
    let sample = || {
        served.thread_cpu_ns().ok_or_else(|| io::Error::other("cannot read the server's CPU time"))
    };
    let before = sample()?;
    let records = phase()?;
    let after = sample()?;
    let ns: u64 = after
        .iter()
        .filter_map(|(tid, ns)| before.get(tid).map(|was| ns.saturating_sub(*was)))
        .sum();
    #[allow(clippy::cast_precision_loss)]
    let us = ns as f64 / 1e3 / records.len().max(1) as f64;
    Ok((records, us))
}

/// The untraced run: every end-to-end metric.
///
/// # Errors
/// Set-up or transport failures (a wrong answer is not an error; it is
/// counted in [`Outcome::failed`]).
pub fn run_e2e(opts: &Options, prepared: &Prepared) -> io::Result<Outcome> {
    let spec = prepared.spec;
    let mut out = Outcome::default();
    let setup = set_up(opts, prepared, &mut out)?;
    let served = &setup.served;
    let mut conns = connect_all(served, spec.connections)?;
    let checking = checking(prepared);
    // At 30 s: a 2 s warmup, a 4 s closed loop, 24 s of open loop.
    let t = Duration::from_secs_f64(opts.seconds);
    let (warm_end, cap_end, open_end) = (t / 15, t / 5, t);

    let epoch = Instant::now();
    let ((mut warm, mut capacity, (mut open, cpu_us), cap_start), log) =
        beside_publisher(served, prepared, epoch, || {
            let warm = closed_loop(&mut conns, prepared, PHASE_WARM, epoch, warm_end, checking)?;
            let cap_start = epoch.elapsed();
            let capacity =
                closed_loop(&mut conns, prepared, PHASE_CAPACITY, epoch, cap_end, checking)?;
            let from = epoch.elapsed() + Duration::from_millis(5);
            let window = (from, open_end.max(from));
            let open = with_server_cpu_us(served, || {
                open_loop(&mut conns, prepared, PHASE_OPEN, epoch, window, spec.rate, checking)
            })?;
            Ok((warm, capacity, open, cap_start))
        })?;
    for records in [&mut warm, &mut capacity, &mut open] {
        check_against_timeline(prepared, records, &log);
        out.tally(records);
    }
    let stats = served.stats()?;
    let rss = served.peak_rss_mb().unwrap_or(0.0);
    drop(conns);
    setup.served.stop()?;

    let latency = ms(open.iter().map(Record::latency_ms));
    let lateness = ms(open.iter().map(Record::lateness_ms));
    let publishes: Vec<&Publish> = log.iter().filter(|p| p.start >= warm_end).collect();
    let publish_ms = if publishes.is_empty() {
        median(
            &setup.parse_ms.iter().zip(&setup.publish_ms).map(|(a, b)| a + b).collect::<Vec<_>>(),
        )
    } else {
        median(&publishes.iter().map(|p| p.parse_ms + p.publish_ms).collect::<Vec<_>>())
    };

    out.metric("setup_s", median(&setup.setup_s), "s");
    out.metric("p50_ms", quantile(&latency, 0.5), "ms");
    out.metric("server_cpu_us", cpu_us, "us");
    out.metric("peak_rss_mb", rss, "MiB");
    #[allow(clippy::cast_precision_loss)]
    let ratio = setup.snapshot.file_bytes as f64 / prepared.xml[0].len() as f64;
    out.metric("store_bytes_per_xml_byte", ratio, "B/B");

    out.note("doc.nodes", f64::from(setup.snapshot.nodes));
    #[allow(clippy::cast_precision_loss)]
    out.note("doc.xml_bytes", prepared.xml[0].len() as f64);
    #[allow(clippy::cast_precision_loss)]
    {
        out.note("warm.samples", warm.len() as f64);
        out.note("capacity.samples", capacity.len() as f64);
        out.note("open.samples", open.len() as f64);
        out.note("open.p99_supported", f64::from(u8::from(supports_quantile(open.len(), 0.99))));
        out.note("open.rate", spec.rate);
        out.note("publishes", publishes.len() as f64);
    }
    out.note("capacity_qps", completion_rate(&capacity, cap_start, cap_end));
    out.note("open.p90_ms", quantile(&latency, 0.90));
    out.note("open.p99_ms", quantile(&latency, 0.99));
    out.note("publish.p50_ms", publish_ms);
    out.note("host.probe_ms", host_probe_ms());
    out.note("lateness.p50_ms", quantile(&lateness, 0.5));
    out.note("lateness.p99_ms", quantile(&lateness, 0.99));
    out.note("lateness.max_ms", lateness.last().copied().unwrap_or(0.0));
    note_server_stats(&mut out, &stats);
    Ok(out)
}
