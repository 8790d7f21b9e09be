//! Closed-loop load harness for the line-JSON query server
//! ([`xpath_core::serve`]), shared by the `bench_serve` binary (which
//! writes the `serve` section of `BENCH_axes.json`) and the
//! `bench_axes --check` serve guard (which pins the protocol's
//! round-trip overhead against a direct in-process evaluation).

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use xpath_core::serve::{ServeConfig, Server};
use xpath_core::Compiler;
use xpath_xml::temp::TempPath;
use xpath_xml::Document;

/// An in-process [`Server`] bound to a Unix socket in a private temp
/// directory, with one published document named `bench`. Dropping (or
/// calling [`BenchServer::shutdown`]) drains the accept loop and removes
/// the directory.
pub struct BenchServer {
    /// The running server (shared with the accept-loop thread).
    pub server: Arc<Server>,
    /// Path of the Unix socket clients should connect to.
    pub sock: PathBuf,
    /// The private directory; removed when the server drops, after
    /// `stop` has drained the accept loop.
    _dir: TempPath,
    accept: Option<thread::JoinHandle<std::io::Result<()>>>,
}

impl BenchServer {
    /// Publish `doc` under the name `bench` in a fresh store and start
    /// serving it on a Unix socket. `permits` sizes the admission pool
    /// (use at least the number of closed-loop clients, or admission
    /// control — not the protocol — becomes the measured subject).
    ///
    /// # Panics
    /// On any I/O failure while setting up the store or socket (this is
    /// a bench harness; there is nothing to recover).
    pub fn start(doc: &Document, permits: usize) -> BenchServer {
        let dir = TempPath::new(&format!("bench_serve_{permits}"));
        let mut config = ServeConfig::new(dir.join("store"));
        config.permits = permits;
        config.read_timeout = Duration::from_millis(25);
        config.drain_timeout = Duration::from_secs(10);
        let server = Arc::new(Server::new(config).expect("create bench store"));
        server.store().publish("bench", doc).expect("publish bench document");
        let sock = dir.join("bench.sock");
        let accept = {
            let server = Arc::clone(&server);
            let sock = sock.clone();
            thread::spawn(move || server.serve_unix(&sock))
        };
        // Wait for the listener before handing the socket to clients.
        let deadline = Instant::now() + Duration::from_secs(10);
        while !sock.exists() && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(5));
        }
        BenchServer { server, sock, _dir: dir, accept: Some(accept) }
    }

    /// Drain the accept loop and delete the temp directory.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.server.begin_shutdown();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

impl Drop for BenchServer {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.stop();
        }
    }
}

/// Latency/throughput summary of one closed-loop run.
#[derive(Clone, Debug)]
pub struct LoadSummary {
    /// Number of concurrent closed-loop clients.
    pub clients: usize,
    /// Total requests measured (excluding warmup).
    pub requests: u64,
    /// Wall-clock time of the measured window (slowest client), ns.
    pub elapsed_ns: u64,
    /// Aggregate throughput over the measured window.
    pub qps: f64,
    /// Mean per-request round-trip latency, µs.
    pub mean_us: u64,
    /// Median per-request round-trip latency, µs.
    pub p50_us: u64,
    /// 95th-percentile round-trip latency, µs.
    pub p95_us: u64,
    /// 99th-percentile round-trip latency, µs.
    pub p99_us: u64,
    /// Worst observed round-trip latency, µs.
    pub max_us: u64,
}

fn quantile(sorted_us: &[u64], q: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let rank = ((q * sorted_us.len() as f64).ceil() as usize).clamp(1, sorted_us.len());
    sorted_us[rank - 1]
}

struct BenchClient {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    line: String,
}

impl BenchClient {
    fn connect(sock: &Path) -> BenchClient {
        let deadline = Instant::now() + Duration::from_secs(10);
        let stream = loop {
            match UnixStream::connect(sock) {
                Ok(s) => break s,
                Err(_) if Instant::now() < deadline => thread::sleep(Duration::from_millis(5)),
                Err(e) => panic!("bench client cannot connect: {e}"),
            }
        };
        stream.set_read_timeout(Some(Duration::from_secs(30))).expect("set read timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        BenchClient { reader, writer: stream, line: String::new() }
    }

    /// One request/response round trip; panics on transport errors or a
    /// transport-level error response (`"ok": false`), so a broken
    /// server cannot produce a plausible-looking timing.
    fn roundtrip(&mut self, request: &str) {
        self.writer.write_all(request.as_bytes()).expect("write request");
        self.writer.write_all(b"\n").expect("write newline");
        self.line.clear();
        let n = self.reader.read_line(&mut self.line).expect("read response");
        assert!(n > 0, "server closed connection mid-benchmark");
        assert!(
            self.line.contains("\"ok\": true") || self.line.contains("\"ok\":true"),
            "bench request failed: {}",
            self.line.trim()
        );
    }
}

/// Drive `clients` concurrent closed-loop clients, each sending
/// `request_line` `requests_per_client` times (after a short untimed
/// warmup), and aggregate latency quantiles across all clients.
///
/// # Panics
/// On transport errors or error responses, so a broken server cannot
/// produce a plausible-looking timing.
#[allow(clippy::cast_precision_loss)]
pub fn closed_loop(
    sock: &Path,
    clients: usize,
    requests_per_client: usize,
    request_line: &str,
) -> LoadSummary {
    const WARMUP: usize = 10;
    let barrier = Arc::new(Barrier::new(clients));
    let workers: Vec<_> = (0..clients)
        .map(|_| {
            let sock = sock.to_path_buf();
            let request = request_line.to_string();
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                let mut client = BenchClient::connect(&sock);
                for _ in 0..WARMUP {
                    client.roundtrip(&request);
                }
                barrier.wait();
                let started = Instant::now();
                let mut latencies_us = Vec::with_capacity(requests_per_client);
                for _ in 0..requests_per_client {
                    let t = Instant::now();
                    client.roundtrip(&request);
                    latencies_us.push(u64::try_from(t.elapsed().as_micros()).unwrap_or(u64::MAX));
                }
                (started.elapsed(), latencies_us)
            })
        })
        .collect();
    let mut all_us = Vec::with_capacity(clients * requests_per_client);
    let mut slowest = Duration::ZERO;
    for w in workers {
        let (elapsed, latencies) = w.join().expect("bench client panicked");
        slowest = slowest.max(elapsed);
        all_us.extend(latencies);
    }
    all_us.sort_unstable();
    let requests = all_us.len() as u64;
    let elapsed_ns = u64::try_from(slowest.as_nanos()).unwrap_or(u64::MAX);
    let sum: u64 = all_us.iter().sum();
    LoadSummary {
        clients,
        requests,
        elapsed_ns,
        qps: requests as f64 / (elapsed_ns as f64 / 1e9),
        mean_us: sum.checked_div(requests).unwrap_or(0),
        p50_us: quantile(&all_us, 0.50),
        p95_us: quantile(&all_us, 0.95),
        p99_us: quantile(&all_us, 0.99),
        max_us: all_us.last().copied().unwrap_or(0),
    }
}

/// The query both the guard and the `serve` section time end to end.
pub const SERVE_CHECK_QUERY: &str = "count(//c)";

/// The protocol tax on one request: medians of the direct (in-process,
/// no protocol) evaluation of [`SERVE_CHECK_QUERY`] and of its
/// single-client socket round trip, in nanoseconds.
#[derive(Clone, Copy, Debug)]
pub struct ServeOverhead {
    /// Median direct evaluation time.
    pub direct_ns: u64,
    /// Median socket round-trip time.
    pub roundtrip_ns: u64,
    /// Samples behind each median.
    pub samples: usize,
}

/// Measure [`ServeOverhead`] against the server listening on `sock`,
/// which serves `doc` as `bench`. The two sides are sampled interleaved
/// — one direct evaluation, then one round trip, `samples` times — so
/// both medians rest on the same sample count and see the same machine
/// state (frequency, co-tenants), and their ratio does not drift with
/// noise that hits only one phase.
///
/// # Panics
/// If the query fails to compile or evaluate, or on transport errors.
pub fn measure_overhead(sock: &Path, doc: &Document, samples: usize) -> ServeOverhead {
    const WARMUP: usize = 10;
    let compiled = Compiler::new().compile(SERVE_CHECK_QUERY).expect("compile check query");
    let request = format!(r#"{{"doc":"bench","query":"{SERVE_CHECK_QUERY}"}}"#);
    let mut client = BenchClient::connect(sock);
    let elapsed_ns = |t: Instant| u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let mut direct = Vec::with_capacity(samples);
    let mut roundtrip = Vec::with_capacity(samples);
    for i in 0..WARMUP + samples {
        let t = Instant::now();
        std::hint::black_box(compiled.evaluate_root(doc).expect("direct evaluation"));
        let d = elapsed_ns(t);
        let t = Instant::now();
        client.roundtrip(&request);
        let r = elapsed_ns(t);
        if i >= WARMUP {
            direct.push(d);
            roundtrip.push(r);
        }
    }
    direct.sort_unstable();
    roundtrip.sort_unstable();
    ServeOverhead {
        direct_ns: quantile(&direct, 0.5),
        roundtrip_ns: quantile(&roundtrip, 0.5),
        samples,
    }
}

/// `bench_serve --check` / `bench_axes --check` serve guard: a
/// single-client socket round trip of [`SERVE_CHECK_QUERY`] must stay
/// within `5×` the direct in-process evaluation (both medians of 100
/// interleaved samples, [`measure_overhead`]) plus a 1 ms fixed
/// allowance (socket wakeups + JSON framing; the observed overhead is
/// tens of µs — the loose bar only refuses a protocol layer that went
/// accidentally quadratic or started re-compiling per request). Like
/// the other timing guards the pass is re-measured on failure; only
/// persistent violations fail.
///
/// # Errors
/// A description of the violated bar, after all attempts failed.
pub fn check_serve(doc: &Document) -> Result<(), String> {
    const ATTEMPTS: u32 = 3;
    const MULT: u64 = 5;
    const FLOOR_NS: u64 = 1_000_000;
    const SAMPLES: usize = 100;
    let bench = BenchServer::start(doc, 2);
    let mut failure = None;
    for attempt in 1..=ATTEMPTS {
        let ServeOverhead { direct_ns, roundtrip_ns, .. } =
            measure_overhead(&bench.sock, doc, SAMPLES);
        let bar = MULT * direct_ns + FLOOR_NS;
        eprintln!(
            "check: serve roundtrip p50 {roundtrip_ns}ns  direct p50 {direct_ns}ns \
             ({SAMPLES} interleaved samples each)  bar {bar}ns ({MULT}x + {FLOOR_NS}ns)"
        );
        if roundtrip_ns <= bar {
            failure = None;
            break;
        }
        failure = Some(format!(
            "serve: socket roundtrip p50 {roundtrip_ns}ns vs direct eval {direct_ns}ns \
             (> {MULT}x + {FLOOR_NS}ns)"
        ));
        if attempt < ATTEMPTS {
            eprintln!("check: serve attempt {attempt}/{ATTEMPTS} over the bar; re-measuring");
        }
    }
    bench.shutdown();
    failure.map_or(Ok(()), Err)
}
