//! `xpath_core::serve` — a long-lived query server over
//! [`DocumentStore`] + [`QueryCache`] + [`QuerySet`](crate::batch::QuerySet), with admission
//! control and live metrics.
//!
//! The paper's point is that XPath evaluation fits on the hot path of a
//! real system; this module is that hot path: a dependency-free,
//! thread-per-connection server speaking **line-delimited JSON** over a
//! Unix or TCP socket. Each request names a snapshot (resolved through
//! the store's generational cache), one or more expressions (compiled
//! through the shared query cache, batched through [`QuerySet`](crate::batch::QuerySet) when
//! ≥ 2), and an optional per-request deadline (enforced through
//! [`EvalBudget`]; a tripped deadline is a **structured error
//! response**, never a dropped connection).
//!
//! # Protocol
//!
//! One JSON object per line, one JSON object per response line. Ops:
//!
//! | request | response |
//! |---|---|
//! | `{"op":"eval","doc":"d","query":"//a"}` | `{"ok":true,"results":[…],"elapsed_us":…}` |
//! | `{"op":"eval","doc":"d","queries":["//a","//b"]}` | same, one result per query, batched |
//! | `{"op":"stats"}` | `{"ok":true,"stats":{…}}` — see below |
//! | `{"op":"ping"}` | `{"ok":true,"pong":true,"uptime_us":…}` |
//! | `{"op":"shutdown"}` | `{"ok":true,"shutting_down":true}`, then drain |
//!
//! The `op` field may be omitted when `query`/`queries` is present.
//! Optional eval fields: `id` (echoed verbatim on the response),
//! `timeout_ms` (per-request deadline), `limit` (max node-set string
//! values returned; the `count` field is always exact). Unknown fields
//! are ignored.
//!
//! Each per-query result is `{"ok":true,"type":…,…}` or
//! `{"ok":false,"error":{"kind":…,"message":…}}`; request-level
//! failures (malformed JSON, unknown document, admission timeout) are
//! `{"ok":false,"error":{…}}` at the top level. Error kinds are stable
//! snake_case strings (`deadline_exceeded`, `cancelled`, `overloaded`,
//! `not_found`, `invalid_request`, `line_too_long`, `shutting_down`,
//! and the compile/eval kinds such as `parse_error`).
//!
//! # Admission control
//!
//! A semaphore-style [`PermitPool`] bounds concurrent evaluations: a
//! request acquires a permit before compiling/evaluating and waits at
//! most the configured admission timeout, failing with `overloaded`
//! instead of queueing unboundedly. Every evaluation, batched or not,
//! runs on its connection thread, so at most `permits` evaluations run
//! at once regardless of client count.
//!
//! # Metrics
//!
//! The `stats` op dumps planner tallies ([`KernelCounts`]), query-cache
//! hit/miss/eviction, batch memo hits, pool stats, store reload counts,
//! and per-endpoint latency histograms — log-bucketed (power-of-two
//! microsecond buckets, no dependencies) with p50/p95/p99 extraction —
//! as one JSON object.
//!
//! # Shutdown
//!
//! [`Server::begin_shutdown`] (or the `shutdown` op, or `SIGTERM`/
//! `SIGINT` observed through [`xpath_xml::signal`]) stops the accept
//! loop, **flips the shared cancel token attached to every in-flight
//! request's budget** (evaluators unwind at the next block boundary
//! with a structured `cancelled` error), then drains connections. The
//! `xpq serve` process exits 0.
//!
//! # Layout
//!
//! `json` holds the [`Json`] codec, `admission` the [`PermitPool`] and
//! the [`LatencyHistogram`], and `protocol` the pure request decoder and
//! response renderers (no I/O, no [`Server`], no metrics). This module
//! keeps [`Server`], [`ServeConfig`], [`Metrics`] and the socket loops;
//! [`Server::handle_line`] runs decode → admit → open → compile →
//! execute → render as named steps.
//!
//! [`KernelCounts`]: xpath_axes::KernelCounts

mod admission;
mod json;
mod protocol;

use std::fmt;
use std::io::{self, Read, Write};
use std::net::TcpListener;
use std::os::unix::net::UnixListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use xpath_xml::signal::ShutdownSignal;
use xpath_xml::Document;

pub use admission::{HistogramSnapshot, LatencyHistogram, Permit, PermitPool, PoolStats};
pub use json::Json;
use protocol::{decode_request, fail, ok, query_error, render_value, Endpoint, EvalRequest, Op};

use crate::batch::QuerySetBuilder;
use crate::cache::QueryCache;
use crate::context::{Context, EvalBudget, EvalError, EvalResult};
use crate::query::{CompiledQuery, Compiler};
use crate::store::{DocumentStore, StoreError};
use crate::value::Value;

// ---------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------

/// Server configuration. [`ServeConfig::new`] picks production-minded
/// defaults; every setting is a plain public field.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Directory of the [`DocumentStore`] to serve.
    pub store_dir: PathBuf,
    /// Capacity of the shared [`QueryCache`].
    pub cache_capacity: usize,
    /// Evaluation permits (max concurrent evaluations). Default: the
    /// machine's available parallelism.
    pub permits: usize,
    /// How long a request may wait for a permit before `overloaded`.
    pub admission_timeout: Duration,
    /// Socket read timeout; doubles as the shutdown-poll tick for
    /// connection threads.
    pub read_timeout: Duration,
    /// Maximum accepted request-line length in bytes.
    pub max_line_bytes: usize,
    /// How long shutdown waits for connection threads to drain.
    pub drain_timeout: Duration,
    /// Deep-verify snapshots on load (forwarded to the store).
    pub verify_snapshots: bool,
}

impl ServeConfig {
    /// Defaults over `store_dir`.
    pub fn new(store_dir: impl Into<PathBuf>) -> ServeConfig {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        ServeConfig {
            store_dir: store_dir.into(),
            cache_capacity: 256,
            permits: cores,
            admission_timeout: Duration::from_millis(100),
            read_timeout: Duration::from_millis(100),
            max_line_bytes: 1 << 20,
            drain_timeout: Duration::from_secs(5),
            verify_snapshots: false,
        }
    }
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

/// Live server counters + per-endpoint latency histograms.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Requests handled (all ops, including failed ones).
    pub requests: AtomicU64,
    /// Responses whose top level was `ok:false`.
    pub errors: AtomicU64,
    /// Per-query deadline trips (structured `deadline_exceeded`).
    pub deadline_exceeded: AtomicU64,
    /// Per-query cancellations (shutdown flipping in-flight budgets).
    pub cancelled: AtomicU64,
    /// Requests rejected by admission control.
    pub overloaded: AtomicU64,
    /// `invalid_request` replies: malformed request lines or objects, and
    /// `doc` names the store rejects.
    pub invalid: AtomicU64,
    /// Connections accepted since start.
    pub connections: AtomicU64,
    /// Connections currently open.
    pub active_connections: AtomicU64,
    /// Batch memo hits accumulated from [`QuerySet`](crate::batch::QuerySet) evaluations.
    pub batch_memo_hits: AtomicU64,
    /// Batch memo misses accumulated from [`QuerySet`](crate::batch::QuerySet) evaluations.
    pub batch_memo_misses: AtomicU64,
    /// Latency of single-query `eval` requests.
    pub eval_latency: LatencyHistogram,
    /// Latency of batched (≥ 2 queries) `eval` requests.
    pub batch_latency: LatencyHistogram,
    /// Latency of `stats` requests.
    pub stats_latency: LatencyHistogram,
    /// Latency of `ping` requests.
    pub ping_latency: LatencyHistogram,
}

// ---------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------

/// Why an `eval` stopped before evaluating: the response's error `kind`
/// and `message`.
type Failure = (&'static str, String);

/// The query server: store + cache + admission control + metrics. See
/// the [module docs](self) for the wire protocol.
///
/// Socket-free by construction — [`Server::handle_line`] maps one
/// request line to one response line, which is what the unit tests and
/// the in-process bench harness drive directly; [`Server::serve_unix`]
/// / [`Server::serve_tcp`] bolt the accept loop on top.
pub struct Server {
    config: ServeConfig,
    store: DocumentStore,
    cache: Arc<QueryCache>,
    pool: PermitPool,
    metrics: Metrics,
    shutdown: AtomicBool,
    cancel: Arc<AtomicBool>,
    signal: Option<ShutdownSignal>,
    started: Instant,
}

impl fmt::Debug for Server {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Server")
            .field("store_dir", &self.config.store_dir)
            .field("pool", &self.pool.stats())
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Open the store directory and assemble a server from `config`.
    pub fn new(config: ServeConfig) -> Result<Server, StoreError> {
        let opts = xpath_xml::snap::OpenOptions { mmap: true, verify: config.verify_snapshots };
        let store = DocumentStore::open_with(&config.store_dir, opts)?;
        let cache = Arc::new(QueryCache::new(config.cache_capacity.max(1)));
        let pool = PermitPool::new(config.permits);
        Ok(Server {
            config,
            store,
            cache,
            pool,
            metrics: Metrics::default(),
            shutdown: AtomicBool::new(false),
            cancel: Arc::new(AtomicBool::new(false)),
            signal: None,
            started: Instant::now(),
        })
    }

    /// The underlying store (benches/tests publish through this).
    pub fn store(&self) -> &DocumentStore {
        &self.store
    }

    /// The shared query cache.
    pub fn cache(&self) -> &Arc<QueryCache> {
        &self.cache
    }

    /// Live metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Watch `SIGTERM`/`SIGINT` (must be called from the main thread
    /// **before** any other thread is spawned, so the blocked-signal
    /// mask is inherited process-wide). No-op where the signal backend
    /// is unavailable.
    pub fn watch_signals(&mut self) -> bool {
        self.signal = ShutdownSignal::install();
        self.signal.is_some()
    }

    /// Begin graceful shutdown: stop accepting, flip the shared cancel
    /// token attached to every in-flight request budget, let connection
    /// threads drain. Idempotent.
    pub fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.cancel.store(true, Ordering::SeqCst);
    }

    /// Has shutdown begun?
    pub fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn uptime_us(&self) -> Json {
        Json::num(u64::try_from(self.started.elapsed().as_micros()).unwrap_or(0))
    }

    /// Handle one request line, producing one response line (no
    /// trailing newline). Never panics on malformed input.
    pub fn handle_line(&self, line: &str) -> String {
        let started = Instant::now();
        self.metrics.requests.fetch_add(1, Ordering::Relaxed);
        let (response, endpoint) = match decode_request(line) {
            Ok(request) => {
                let endpoint = request.endpoint();
                let id = request.id.as_ref();
                let response = match request.op {
                    Op::Eval(eval) => self
                        .eval(id, &eval)
                        .unwrap_or_else(|(kind, message)| fail(id, kind, &message)),
                    Op::Stats => ok(id, vec![("stats", self.stats())]),
                    Op::Ping => {
                        ok(id, vec![("pong", Json::Bool(true)), ("uptime_us", self.uptime_us())])
                    }
                    Op::Shutdown => {
                        self.begin_shutdown();
                        ok(id, vec![("shutting_down", Json::Bool(true))])
                    }
                };
                (response, endpoint)
            }
            Err(reject) => (reject.render(), reject.endpoint),
        };
        if matches!(response.get("ok"), Some(Json::Bool(false))) {
            self.metrics.errors.fetch_add(1, Ordering::Relaxed);
            // Decoder rejects and store-rejected `doc` names alike.
            let kind = response.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str);
            if kind == Some("invalid_request") {
                self.metrics.invalid.fetch_add(1, Ordering::Relaxed);
            }
        }
        let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        let hist = match endpoint {
            Endpoint::Eval => &self.metrics.eval_latency,
            Endpoint::Batch => &self.metrics.batch_latency,
            Endpoint::Stats => &self.metrics.stats_latency,
            Endpoint::Ping => &self.metrics.ping_latency,
        };
        hist.record(micros);
        response.render()
    }

    /// An `eval` request: admit → open → compile → execute → render.
    fn eval(&self, id: Option<&Json>, req: &EvalRequest) -> Result<Json, Failure> {
        let _permit = self.admit()?;
        let doc = self.open(&req.doc)?;
        let compiler = Compiler::new();
        let compiled = self.compile(&compiler, &req.texts);
        let started = Instant::now();
        let (evaluated, batch) = self.execute(&doc, compiler, &compiled, req.timeout_ms);
        let elapsed_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        let mut fields = vec![
            ("doc", Json::Str(req.doc.clone())),
            ("results", Json::Arr(self.render(&doc, &compiled, evaluated, req.limit))),
            ("elapsed_us", Json::num(elapsed_us)),
        ];
        fields.extend(batch.map(|batch| ("batch", batch)));
        Ok(ok(id, fields))
    }

    /// Admission control: refuse while draining, else take one permit
    /// per in-flight evaluation, waiting at most the admission timeout.
    fn admit(&self) -> Result<Permit<'_>, Failure> {
        if self.shutting_down() {
            return Err(("shutting_down", "server is draining".to_owned()));
        }
        self.pool.acquire(self.config.admission_timeout).ok_or_else(|| {
            self.metrics.overloaded.fetch_add(1, Ordering::Relaxed);
            ("overloaded", "no evaluation permit available; retry later".to_owned())
        })
    }

    /// Resolve the snapshot through the store's generational cache.
    fn open(&self, name: &str) -> Result<Arc<Document>, Failure> {
        self.store.open_doc(name).map_err(|e| {
            let kind = match &e {
                StoreError::NotFound(_) => "not_found",
                StoreError::InvalidName(_) => "invalid_request",
                StoreError::Snapshot(_) => "snapshot_error",
                StoreError::Io(_) => "io_error",
            };
            (kind, e.to_string())
        })
    }

    /// Compile each text through the shared cache (one fingerprint
    /// render per request). A compile error is a per-query result, not
    /// a request failure: the other queries still run.
    fn compile(
        &self,
        compiler: &Compiler,
        texts: &[String],
    ) -> Vec<EvalResult<Arc<CompiledQuery>>> {
        let fingerprint = compiler.options_fingerprint();
        texts
            .iter()
            .map(|text| self.cache.get_or_compile_keyed(compiler, &fingerprint, text))
            .collect()
    }

    /// Evaluate the queries that compiled: two or more as one `QuerySet`
    /// (so shared axis passes are memoized across the batch, whose stats
    /// come back beside the results), one on its own.
    fn execute(
        &self,
        doc: &Document,
        compiler: Compiler,
        compiled: &[EvalResult<Arc<CompiledQuery>>],
        timeout_ms: Option<u64>,
    ) -> (Vec<EvalResult<Value>>, Option<Json>) {
        let budget = match timeout_ms {
            Some(ms) => EvalBudget::timeout(Duration::from_millis(ms)),
            None => EvalBudget::unlimited(),
        }
        .with_cancel(Arc::clone(&self.cancel));
        let queries: Vec<&Arc<CompiledQuery>> =
            compiled.iter().filter_map(|r| r.as_ref().ok()).collect();
        let mut batch = None;
        let results = if queries.len() >= 2 {
            let mut builder = QuerySetBuilder::with_compiler(compiler);
            for q in &queries {
                builder = builder.compiled(Arc::clone(q));
            }
            match builder.build() {
                Ok(set) => {
                    let result = set.evaluate_all_with(doc, Context::of(doc.root()), &budget);
                    let stats = result.stats();
                    self.metrics.batch_memo_hits.fetch_add(stats.memo_hits, Ordering::Relaxed);
                    self.metrics.batch_memo_misses.fetch_add(stats.memo_misses, Ordering::Relaxed);
                    batch = Some(Json::obj(vec![
                        ("mode", Json::Str(stats.mode.name().to_string())),
                        ("queries", Json::num(stats.queries as u64)),
                        ("fragment_queries", Json::num(stats.fragment_queries as u64)),
                        ("memo_hits", Json::num(stats.memo_hits)),
                        ("memo_misses", Json::num(stats.memo_misses)),
                    ]));
                    result.into_results()
                }
                Err(e) => vec![Err(e); queries.len()],
            }
        } else {
            queries.iter().map(|q| q.evaluate_with(doc, Context::of(doc.root()), &budget)).collect()
        };
        (results, batch)
    }

    /// Merge compile errors and evaluation results back into input
    /// order, one structured result per query.
    fn render(
        &self,
        doc: &Document,
        compiled: &[EvalResult<Arc<CompiledQuery>>],
        evaluated: Vec<EvalResult<Value>>,
        limit: usize,
    ) -> Vec<Json> {
        let mut evaluated = evaluated.into_iter();
        compiled
            .iter()
            .map(|slot| match slot {
                Err(e) => self.query_error(e),
                Ok(_) => match evaluated.next() {
                    Some(Ok(value)) => render_value(doc, &value, limit),
                    Some(Err(e)) => self.query_error(&e),
                    None => self.query_error(&EvalError::Cancelled),
                },
            })
            .collect()
    }

    fn query_error(&self, e: &EvalError) -> Json {
        match e {
            EvalError::DeadlineExceeded => {
                self.metrics.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
            }
            EvalError::Cancelled => {
                self.metrics.cancelled.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
        query_error(e)
    }

    /// The `stats` op's payload: every live counter and histogram.
    fn stats(&self) -> Json {
        let m = &self.metrics;
        let load = |c: &AtomicU64| Json::num(c.load(Ordering::Relaxed));
        let planner = self.cache.planner_stats();
        let analysis = self.cache.analysis_stats();
        let cache = self.cache.stats();
        let store = self.store.stats();
        let pool = self.pool.stats();
        Json::obj(vec![
            ("uptime_us", self.uptime_us()),
            (
                "server",
                Json::obj(vec![
                    ("requests", load(&m.requests)),
                    ("errors", load(&m.errors)),
                    ("deadline_exceeded", load(&m.deadline_exceeded)),
                    ("cancelled", load(&m.cancelled)),
                    ("overloaded", load(&m.overloaded)),
                    ("invalid", load(&m.invalid)),
                    ("connections", load(&m.connections)),
                    ("active_connections", load(&m.active_connections)),
                    ("shutting_down", Json::Bool(self.shutting_down())),
                ]),
            ),
            (
                "pool",
                Json::obj(vec![
                    ("permits", Json::num(pool.permits as u64)),
                    ("in_use", Json::num(pool.in_use as u64)),
                    ("peak_in_use", Json::num(pool.peak_in_use as u64)),
                    ("acquired", Json::num(pool.acquired)),
                    ("timeouts", Json::num(pool.timeouts)),
                ]),
            ),
            (
                "cache",
                Json::obj(vec![
                    ("hits", Json::num(cache.hits)),
                    ("misses", Json::num(cache.misses)),
                    ("evictions", Json::num(cache.evictions)),
                    ("entries", Json::num(cache.entries as u64)),
                ]),
            ),
            (
                "planner",
                Json::obj(vec![
                    ("per_node", Json::num(planner.per_node)),
                    ("bulk_sparse", Json::num(planner.bulk_sparse)),
                    ("bulk_dense", Json::num(planner.bulk_dense)),
                    ("memo_hits", Json::num(planner.memo_hits)),
                ]),
            ),
            (
                "analysis",
                Json::obj(vec![
                    ("analyzed", Json::num(analysis.analyzed)),
                    ("provably_empty", Json::num(analysis.provably_empty)),
                    ("const_folded", Json::num(analysis.const_folded)),
                    ("lazy", Json::num(analysis.lazy)),
                    ("materialized", Json::num(analysis.materialized)),
                    ("errors", Json::num(analysis.errors)),
                    ("warnings", Json::num(analysis.warnings)),
                ]),
            ),
            (
                "batch",
                Json::obj(vec![
                    ("memo_hits", load(&m.batch_memo_hits)),
                    ("memo_misses", load(&m.batch_memo_misses)),
                ]),
            ),
            (
                "store",
                Json::obj(vec![
                    ("hits", Json::num(store.hits)),
                    ("misses", Json::num(store.misses)),
                    ("reloads", Json::num(store.reloads)),
                    ("publishes", Json::num(store.publishes)),
                ]),
            ),
            (
                "latency",
                Json::obj(vec![
                    ("eval", m.eval_latency.snapshot().to_json()),
                    ("batch", m.batch_latency.snapshot().to_json()),
                    ("stats", m.stats_latency.snapshot().to_json()),
                    ("ping", m.ping_latency.snapshot().to_json()),
                ]),
            ),
        ])
    }

    // -- socket layer --------------------------------------------------

    /// Serve over a Unix socket at `path` (any stale socket file is
    /// replaced). Blocks until shutdown, then drains and removes the
    /// socket file.
    pub fn serve_unix(self: &Arc<Self>, path: &Path) -> io::Result<()> {
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        let result = self.accept_loop(|| match listener.accept() {
            Ok((stream, _)) => Ok(Some(stream)),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        });
        let _ = std::fs::remove_file(path);
        result
    }

    /// Serve over TCP at `addr` (e.g. `127.0.0.1:7878`). Blocks until
    /// shutdown, then drains.
    pub fn serve_tcp(self: &Arc<Self>, addr: &str) -> io::Result<()> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        self.accept_loop(|| match listener.accept() {
            Ok((stream, _)) => Ok(Some(stream)),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        })
    }

    fn accept_loop<S>(
        self: &Arc<Self>,
        accept: impl Fn() -> io::Result<Option<S>>,
    ) -> io::Result<()>
    where
        S: Conn + Send + 'static,
    {
        let tick = self.config.read_timeout.min(Duration::from_millis(100));
        let mut workers = Vec::new();
        while !self.shutting_down() {
            if let Some(signal) = &self.signal {
                if signal.pending().is_some() {
                    self.begin_shutdown();
                    break;
                }
            }
            match accept()? {
                Some(stream) => {
                    stream.set_timeouts(self.config.read_timeout)?;
                    let server = Arc::clone(self);
                    self.metrics.connections.fetch_add(1, Ordering::Relaxed);
                    self.metrics.active_connections.fetch_add(1, Ordering::Relaxed);
                    workers.push(std::thread::spawn(move || server.client_loop(stream)));
                }
                None => std::thread::sleep(tick),
            }
            workers.retain(|w| !w.is_finished());
        }
        // Drain: connection threads notice the shutdown flag within one
        // read-timeout tick; in-flight evaluations are cancelled through
        // the shared budget token.
        let deadline = Instant::now() + self.config.drain_timeout;
        for worker in workers {
            if Instant::now() >= deadline {
                break; // detach stragglers; process exit reaps them
            }
            let _ = worker.join();
        }
        Ok(())
    }

    fn client_loop<S: Conn>(self: Arc<Self>, mut stream: S) {
        let mut buf: Vec<u8> = Vec::with_capacity(4096);
        let mut chunk = [0u8; 4096];
        loop {
            // The first buffered line, complete or not, may not pass the
            // limit: a complete one is rejected before decoding, a
            // partial one before reading more of it.
            let newline = buf.iter().position(|&b| b == b'\n');
            if newline.unwrap_or(buf.len()) > self.config.max_line_bytes {
                let response = fail(None, "line_too_long", "request line exceeds limit").render();
                let _ = stream.write_all(response.as_bytes());
                let _ = stream.write_all(b"\n");
                let _ = stream.flush();
                break;
            }
            // Serve every complete line already buffered.
            if let Some(pos) = newline {
                let line: Vec<u8> = buf.drain(..=pos).collect();
                let text = String::from_utf8_lossy(&line[..line.len() - 1]);
                let trimmed = text.trim();
                if trimmed.is_empty() {
                    continue;
                }
                let response = self.handle_line(trimmed);
                if stream.write_all(response.as_bytes()).is_err()
                    || stream.write_all(b"\n").is_err()
                    || stream.flush().is_err()
                {
                    break;
                }
                continue;
            }
            if self.shutting_down() && buf.is_empty() {
                break;
            }
            match stream.read(&mut chunk) {
                Ok(0) => break, // EOF
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
                {
                    // Read-timeout tick: loop to re-check the shutdown
                    // flag, keeping the connection open meanwhile.
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
        self.metrics.active_connections.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The two stream types the server accepts, unified over the pieces the
/// connection loop needs (`Read + Write` plus timeout setup).
trait Conn: Read + Write {
    fn set_timeouts(&self, read: Duration) -> io::Result<()>;
}

impl Conn for std::os::unix::net::UnixStream {
    fn set_timeouts(&self, read: Duration) -> io::Result<()> {
        self.set_read_timeout(Some(read))
    }
}

impl Conn for std::net::TcpStream {
    fn set_timeouts(&self, read: Duration) -> io::Result<()> {
        self.set_read_timeout(Some(read))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpath_xml::generate::doc_bookstore;
    use xpath_xml::temp::TempPath;

    fn test_server(tag: &str) -> (Arc<Server>, TempPath) {
        let dir = TempPath::new(&format!("serve_{tag}"));
        let server = Arc::new(Server::new(ServeConfig::new(dir.path())).unwrap());
        server.store().publish("books", &doc_bookstore()).unwrap();
        (server, dir)
    }

    fn respond(server: &Server, line: &str) -> Json {
        Json::parse(&server.handle_line(line)).expect("response is valid JSON")
    }

    #[test]
    fn single_query_roundtrips() {
        let (server, _dir) = test_server("single");
        let resp = respond(&server, r#"{"id":7,"doc":"books","query":"count(//book)"}"#);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(resp.get("id"), Some(&Json::Num(7.0)));
        let result = &resp.get("results").unwrap().as_arr().unwrap()[0];
        assert_eq!(result.get("type").unwrap().as_str(), Some("number"));
        assert!(result.get("value").unwrap().as_f64().unwrap() > 0.0);
    }

    #[test]
    fn batch_request_reports_batch_stats_and_per_query_results() {
        let (server, _dir) = test_server("batch");
        let resp = respond(
            &server,
            r#"{"doc":"books","queries":["//book[author]","//book[author]/title","count(//book)","//nosuch[","-1 div 0"]}"#,
        );
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
        let results = resp.get("results").unwrap().as_arr().unwrap();
        assert_eq!(results.len(), 5);
        assert_eq!(results[0].get("type").unwrap().as_str(), Some("node-set"));
        assert!(results[0].get("count").unwrap().as_u64().unwrap() > 0);
        assert_eq!(results[2].get("type").unwrap().as_str(), Some("number"));
        // The malformed query is a structured per-query error; the rest
        // of the batch still evaluated.
        assert_eq!(results[3].get("ok"), Some(&Json::Bool(false)));
        assert_eq!(
            results[3].get("error").unwrap().get("kind").unwrap().as_str(),
            Some("parse_error")
        );
        // Non-finite numbers are strings in XPath's spelling.
        assert_eq!(results[4].get("value").unwrap().as_str(), Some("-Infinity"));
        assert!(resp.get("batch").is_some(), "batched evals report batch stats");
    }

    #[test]
    fn zero_deadline_trips_as_structured_error() {
        let (server, _dir) = test_server("deadline");
        let resp = respond(&server, r#"{"doc":"books","query":"//book[author]","timeout_ms":0}"#);
        // The transport-level response is ok; the query's own slot
        // carries the structured deadline error.
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
        let result = &resp.get("results").unwrap().as_arr().unwrap()[0];
        assert_eq!(result.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(
            result.get("error").unwrap().get("kind").unwrap().as_str(),
            Some("deadline_exceeded")
        );
        assert_eq!(server.metrics().deadline_exceeded.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn malformed_and_invalid_requests_fail_structurally() {
        let (server, _dir) = test_server("invalid");
        let cases = [
            ("this is not json", "invalid_request"),
            ("[1,2,3]", "invalid_request"),
            (r#"{"op":"eval","doc":"books"}"#, "invalid_request"),
            (r#"{"op":"eval","query":"//a"}"#, "invalid_request"),
            (r#"{"op":"frobnicate"}"#, "invalid_request"),
            (r#"{"doc":"absent","query":"//a"}"#, "not_found"),
            (r#"{"doc":"../evil","query":"//a"}"#, "invalid_request"),
            (r#"{"doc":"books","query":"//a","timeout_ms":-5}"#, "invalid_request"),
            (r#"{"doc":"books","queries":[]}"#, "invalid_request"),
        ];
        for (line, kind) in cases {
            let resp = respond(&server, line);
            assert_eq!(resp.get("ok"), Some(&Json::Bool(false)), "{line}");
            assert_eq!(
                resp.get("error").unwrap().get("kind").unwrap().as_str(),
                Some(kind),
                "{line}"
            );
        }
        // Every `invalid_request` reply is counted, the store's rejected
        // `../evil` included.
        let invalid = cases.iter().filter(|(_, kind)| *kind == "invalid_request").count();
        assert_eq!(server.metrics().invalid.load(Ordering::Relaxed), invalid as u64);
    }

    #[test]
    fn limit_caps_values_but_count_stays_exact() {
        let (server, _dir) = test_server("limit");
        let resp = respond(&server, r#"{"doc":"books","query":"//*","limit":2}"#);
        let result = &resp.get("results").unwrap().as_arr().unwrap()[0];
        let count = result.get("count").unwrap().as_u64().unwrap();
        assert!(count > 2);
        assert_eq!(result.get("values").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn stats_probe_reports_live_metrics() {
        let (server, _dir) = test_server("stats");
        respond(&server, r#"{"doc":"books","query":"//book"}"#);
        respond(&server, r#"{"doc":"books","query":"//book"}"#);
        let resp = respond(&server, r#"{"op":"stats","id":"s1"}"#);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(resp.get("id").unwrap().as_str(), Some("s1"));
        let stats = resp.get("stats").unwrap();
        // Two evals: one compile miss, one cache hit.
        assert_eq!(stats.get("cache").unwrap().get("hits").unwrap().as_u64(), Some(1));
        assert_eq!(stats.get("cache").unwrap().get("misses").unwrap().as_u64(), Some(1));
        assert_eq!(stats.get("store").unwrap().get("publishes").unwrap().as_u64(), Some(1));
        assert_eq!(stats.get("pool").unwrap().get("acquired").unwrap().as_u64(), Some(2));
        assert_eq!(
            stats.get("latency").unwrap().get("eval").unwrap().get("count").unwrap().as_u64(),
            Some(2)
        );
        assert!(stats.get("planner").unwrap().get("per_node").is_some());
        assert!(stats.get("analysis").unwrap().get("analyzed").unwrap().as_u64().unwrap() >= 1);
    }

    #[test]
    fn shutdown_op_flips_cancel_and_rejects_new_evals() {
        let (server, _dir) = test_server("shutdown");
        let resp = respond(&server, r#"{"op":"shutdown"}"#);
        assert_eq!(resp.get("shutting_down"), Some(&Json::Bool(true)));
        assert!(server.shutting_down());
        assert!(server.cancel.load(Ordering::SeqCst), "in-flight budgets see the cancel token");
        let resp = respond(&server, r#"{"doc":"books","query":"//book"}"#);
        assert_eq!(resp.get("error").unwrap().get("kind").unwrap().as_str(), Some("shutting_down"));
        // Introspection ops still answer during the drain.
        let resp = respond(&server, r#"{"op":"stats"}"#);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
    }

    #[test]
    fn generational_reload_is_visible_through_eval() {
        let (server, _dir) = test_server("reload");
        let before = respond(&server, r#"{"doc":"books","query":"count(//extra)"}"#);
        let n_before =
            before.get("results").unwrap().as_arr().unwrap()[0].get("value").unwrap().as_f64();
        assert_eq!(n_before, Some(0.0));
        // Republish under the same name: the next request sees the new
        // generation without any server restart.
        let xml = "<shelf><extra/><extra/></shelf>";
        let new_doc = xpath_xml::Document::parse_str(xml).unwrap();
        server.store().publish("books", &new_doc).unwrap();
        let after = respond(&server, r#"{"doc":"books","query":"count(//extra)"}"#);
        let n_after =
            after.get("results").unwrap().as_arr().unwrap()[0].get("value").unwrap().as_f64();
        assert_eq!(n_after, Some(2.0));
    }
}
