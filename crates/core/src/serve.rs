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
//! `timeout_ms` (per-request deadline), `threads` (per-request batch
//! fan-out budget, clamped to the server's cap), `limit` (max node-set string
//! values returned; the `count` field is always exact).
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
//! instead of queueing unboundedly. The per-request `threads` budget is
//! fed to [`Compiler::threads`]; it caps the workers a batched request
//! (`queries`) fans out to, and a single query always evaluates on its
//! connection thread. So worst-case CPU oversubscription is bounded by
//! `permits × max_request_threads` regardless of client count.
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
//! [`KernelCounts`]: xpath_axes::KernelCounts

use std::fmt;
use std::io::{self, Read, Write};
use std::net::TcpListener;
use std::os::unix::net::UnixListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use xpath_xml::signal::ShutdownSignal;
use xpath_xml::Document;

use crate::batch::QuerySetBuilder;
use crate::cache::QueryCache;
use crate::context::{Context, EvalBudget, EvalError};
use crate::query::Compiler;
use crate::store::{DocumentStore, StoreError};
use crate::value::Value;

// ---------------------------------------------------------------------
// Minimal JSON (the workspace vendors no serializer)
// ---------------------------------------------------------------------

/// A parsed JSON value. Objects preserve insertion order (they are
/// association lists, not maps); duplicate keys keep the first.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse one complete JSON value; trailing non-whitespace is an
    /// error. Nesting depth is capped (anti-abuse; the protocol needs
    /// depth ≤ 3).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { b: text.as_bytes(), i: 0 };
        p.ws();
        let v = p.value(0)?;
        p.ws();
        if p.i != p.b.len() {
            return Err(format!("trailing bytes at offset {}", p.i));
        }
        Ok(v)
    }

    /// Object field lookup (`None` for non-objects and absent keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Render to compact JSON text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(*n, out),
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Convenience constructor for an object literal.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Convenience constructor for an integer number.
    #[allow(clippy::cast_precision_loss)]
    pub fn num(n: u64) -> Json {
        Json::Num(n as f64)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

fn write_number(n: f64, out: &mut String) {
    use fmt::Write as _;
    if !n.is_finite() {
        // JSON has no NaN/Infinity; the protocol renders them as
        // strings so a structured consumer still sees *something*
        // unambiguous rather than a parse failure.
        write_string(&format!("{n}"), out);
    } else if n.fract() == 0.0 && n.abs() < 2f64.powi(53) {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

const MAX_JSON_DEPTH: u32 = 64;

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at offset {}", c as char, self.i))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at offset {}", self.i))
        }
    }

    fn value(&mut self, depth: u32) -> Result<Json, String> {
        if depth > MAX_JSON_DEPTH {
            return Err("nesting too deep".to_owned());
        }
        match self.peek() {
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.peek() == Some(b']') {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    self.ws();
                    items.push(self.value(depth + 1)?);
                    self.ws();
                    match self.peek() {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at offset {}", self.i)),
                    }
                }
            }
            Some(b'{') => {
                self.i += 1;
                let mut fields: Vec<(String, Json)> = Vec::new();
                self.ws();
                if self.peek() == Some(b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.ws();
                    self.eat(b':')?;
                    self.ws();
                    let val = self.value(depth + 1)?;
                    if !fields.iter().any(|(k, _)| *k == key) {
                        fields.push((key, val));
                    }
                    self.ws();
                    match self.peek() {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("expected ',' or '}}' at offset {}", self.i)),
                    }
                }
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected byte at offset {}", self.i)),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).expect("ASCII slice");
        text.parse::<f64>().map(Json::Num).map_err(|_| format!("invalid number at offset {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let Some(c) = self.peek() else {
                return Err("unterminated string".to_owned());
            };
            self.i += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(e) = self.peek() else {
                        return Err("unterminated escape".to_owned());
                    };
                    self.i += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require \uXXXX low half.
                                if self.peek() == Some(b'\\') {
                                    self.i += 1;
                                    self.eat(b'u')?;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err("invalid low surrogate".to_owned());
                                    }
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                                } else {
                                    return Err("lone surrogate".to_owned());
                                }
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| "invalid codepoint".to_owned())?,
                            );
                        }
                        _ => return Err(format!("invalid escape at offset {}", self.i)),
                    }
                }
                c if c < 0x20 => return Err("control byte in string".to_owned()),
                c if c < 0x80 => out.push(c as char),
                _ => {
                    // Multi-byte UTF-8: the input is a &str, so the
                    // sequence is valid; re-decode from the byte slice.
                    let rest = std::str::from_utf8(&self.b[self.i - 1..])
                        .map_err(|_| "invalid UTF-8".to_owned())?;
                    let ch = rest.chars().next().ok_or_else(|| "empty".to_owned())?;
                    out.push(ch);
                    self.i += ch.len_utf8() - 1;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.i + 4;
        let s = self
            .b
            .get(self.i..end)
            .and_then(|s| std::str::from_utf8(s).ok())
            .ok_or_else(|| "truncated \\u escape".to_owned())?;
        let v = u32::from_str_radix(s, 16).map_err(|_| "invalid \\u escape".to_owned())?;
        self.i = end;
        Ok(v)
    }
}

// ---------------------------------------------------------------------
// Log-bucketed latency histogram
// ---------------------------------------------------------------------

const HIST_BUCKETS: usize = 40;

/// A lock-free latency histogram with power-of-two microsecond buckets:
/// bucket `i` counts samples in `[2^i, 2^(i+1))` µs (bucket 0 also
/// takes 0 µs). Recording is two relaxed atomic adds; percentiles are
/// read from a [`HistogramSnapshot`] and are upper bounds of the bucket
/// containing the rank (≤ 2× the true value by construction).
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// Record one sample.
    pub fn record(&self, micros: u64) {
        let idx = (63 - micros.max(1).leading_zeros() as usize).min(HIST_BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(micros, Ordering::Relaxed);
        self.max_us.fetch_max(micros, Ordering::Relaxed);
    }

    /// A consistent-enough point-in-time copy for reporting.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum_us: self.sum_us.load(Ordering::Relaxed),
            max_us: self.max_us.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of a [`LatencyHistogram`].
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (bucket `i` spans `[2^i, 2^(i+1))` µs).
    pub buckets: [u64; HIST_BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of all samples in µs.
    pub sum_us: u64,
    /// Largest sample in µs.
    pub max_us: u64,
}

impl HistogramSnapshot {
    /// The `q`-quantile (`0.0..=1.0`) as the upper bound of the bucket
    /// holding that rank, clamped to the observed maximum.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        #[allow(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            clippy::cast_precision_loss
        )]
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let upper = if i + 1 >= 64 { u64::MAX } else { (1u64 << (i + 1)) - 1 };
                return upper.min(self.max_us);
            }
        }
        self.max_us
    }

    /// Render as a JSON object (`count`, `p50_us`…, plus the non-empty
    /// buckets as `[lower_bound_us, count]` pairs).
    pub fn to_json(&self) -> Json {
        let buckets: Vec<Json> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| Json::Arr(vec![Json::num(1u64 << i), Json::num(c)]))
            .collect();
        let mean = self.sum_us.checked_div(self.count).unwrap_or(0);
        Json::obj(vec![
            ("count", Json::num(self.count)),
            ("mean_us", Json::num(mean)),
            ("p50_us", Json::num(self.quantile(0.50))),
            ("p95_us", Json::num(self.quantile(0.95))),
            ("p99_us", Json::num(self.quantile(0.99))),
            ("max_us", Json::num(self.max_us)),
            ("buckets", Json::Arr(buckets)),
        ])
    }
}

// ---------------------------------------------------------------------
// Admission control: a permit pool
// ---------------------------------------------------------------------

/// Counters describing a [`PermitPool`]'s behaviour.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct PoolStats {
    /// Total permits in the pool.
    pub permits: usize,
    /// Permits currently held.
    pub in_use: usize,
    /// High-water mark of `in_use`.
    pub peak_in_use: usize,
    /// Successful acquisitions.
    pub acquired: u64,
    /// Acquisitions that timed out (surfaced as `overloaded`).
    pub timeouts: u64,
}

struct PoolState {
    in_use: usize,
    peak_in_use: usize,
    acquired: u64,
    timeouts: u64,
}

/// A semaphore-style pool of evaluation permits (`Mutex` + `Condvar`;
/// the standard library has no semaphore and the workspace vendors no
/// dependencies). Bounded waiting: [`PermitPool::acquire`] gives up
/// after a timeout so overload turns into fast structured rejections
/// instead of an unbounded queue.
pub struct PermitPool {
    permits: usize,
    state: Mutex<PoolState>,
    cv: Condvar,
}

impl fmt::Debug for PermitPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PermitPool").field("stats", &self.stats()).finish_non_exhaustive()
    }
}

impl PermitPool {
    /// A pool of `permits` permits (at least 1).
    pub fn new(permits: usize) -> PermitPool {
        PermitPool {
            permits: permits.max(1),
            state: Mutex::new(PoolState { in_use: 0, peak_in_use: 0, acquired: 0, timeouts: 0 }),
            cv: Condvar::new(),
        }
    }

    /// Acquire a permit, waiting at most `timeout`. `None` on timeout.
    pub fn acquire(&self, timeout: Duration) -> Option<Permit<'_>> {
        let deadline = Instant::now() + timeout;
        let mut st = self.state.lock().expect("permit pool poisoned");
        while st.in_use >= self.permits {
            let now = Instant::now();
            if now >= deadline {
                st.timeouts += 1;
                return None;
            }
            let (next, res) =
                self.cv.wait_timeout(st, deadline - now).expect("permit pool poisoned");
            st = next;
            if res.timed_out() && st.in_use >= self.permits {
                st.timeouts += 1;
                return None;
            }
        }
        st.in_use += 1;
        st.peak_in_use = st.peak_in_use.max(st.in_use);
        st.acquired += 1;
        Some(Permit { pool: self })
    }

    /// Current counters.
    pub fn stats(&self) -> PoolStats {
        let st = self.state.lock().expect("permit pool poisoned");
        PoolStats {
            permits: self.permits,
            in_use: st.in_use,
            peak_in_use: st.peak_in_use,
            acquired: st.acquired,
            timeouts: st.timeouts,
        }
    }
}

/// RAII guard for one held permit; releases (and wakes one waiter) on
/// drop.
pub struct Permit<'a> {
    pool: &'a PermitPool,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut st = self.pool.state.lock().expect("permit pool poisoned");
        st.in_use -= 1;
        drop(st);
        self.pool.cv.notify_one();
    }
}

// ---------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------

/// Server configuration. [`ServeConfig::new`] picks production-minded
/// defaults; every knob is a plain public field.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Directory of the [`DocumentStore`] to serve.
    pub store_dir: PathBuf,
    /// Capacity of the shared [`QueryCache`].
    pub cache_capacity: usize,
    /// Evaluation permits (max concurrent evaluations). Default: the
    /// machine's available parallelism.
    pub permits: usize,
    /// Per-request thread-budget cap fed to [`Compiler::threads`]
    /// (requests asking for more are clamped); it bounds a batched
    /// request's fan-out. Worst-case CPU use is
    /// `permits × max_request_threads`. Default 1: under concurrent
    /// load, parallelism comes from requests, not from fan-out.
    pub max_request_threads: u32,
    /// How long a request may wait for a permit before `overloaded`.
    pub admission_timeout: Duration,
    /// Socket read timeout; doubles as the shutdown-poll tick for
    /// connection threads.
    pub read_timeout: Duration,
    /// Maximum accepted request-line length in bytes.
    pub max_line_bytes: usize,
    /// Default cap on node-set string values per result (`limit`
    /// overrides per request; `count` is always exact).
    pub default_value_limit: usize,
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
            max_request_threads: 1,
            admission_timeout: Duration::from_millis(100),
            read_timeout: Duration::from_millis(100),
            max_line_bytes: 1 << 20,
            default_value_limit: 16,
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
    /// Malformed request lines / objects.
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
// Error kinds
// ---------------------------------------------------------------------

fn eval_error_kind(e: &EvalError) -> &'static str {
    match e {
        EvalError::Parse(_) => "parse_error",
        EvalError::UnknownFunction(_) => "unknown_function",
        EvalError::WrongArity { .. } => "wrong_arity",
        EvalError::TypeMismatch(_) => "type_mismatch",
        EvalError::UnboundVariable(_) => "unbound_variable",
        EvalError::BudgetExhausted => "budget_exhausted",
        EvalError::Capacity(_) => "capacity",
        EvalError::UnsupportedFragment(_) => "unsupported_fragment",
        EvalError::Cancelled => "cancelled",
        EvalError::DeadlineExceeded => "deadline_exceeded",
    }
}

fn error_json(kind: &str, message: &str) -> Json {
    Json::obj(vec![
        ("kind", Json::Str(kind.to_owned())),
        ("message", Json::Str(message.to_owned())),
    ])
}

fn fail(id: Option<&Json>, kind: &str, message: &str) -> Json {
    let mut fields = Vec::new();
    if let Some(id) = id {
        fields.push(("id".to_owned(), id.clone()));
    }
    fields.push(("ok".to_owned(), Json::Bool(false)));
    fields.push(("error".to_owned(), error_json(kind, message)));
    Json::Obj(fields)
}

// ---------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------

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

    /// Handle one request line, producing one response line (no
    /// trailing newline). Never panics on malformed input.
    pub fn handle_line(&self, line: &str) -> String {
        let started = Instant::now();
        self.metrics.requests.fetch_add(1, Ordering::Relaxed);
        let (response, endpoint) = match Json::parse(line) {
            Err(e) => {
                self.metrics.invalid.fetch_add(1, Ordering::Relaxed);
                (fail(None, "invalid_request", &format!("bad JSON: {e}")), Endpoint::Eval)
            }
            Ok(req) => self.handle_request(&req),
        };
        if matches!(response.get("ok"), Some(Json::Bool(false))) {
            self.metrics.errors.fetch_add(1, Ordering::Relaxed);
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

    fn handle_request(&self, req: &Json) -> (Json, Endpoint) {
        let id = req.get("id");
        if !matches!(req, Json::Obj(_)) {
            self.metrics.invalid.fetch_add(1, Ordering::Relaxed);
            return (fail(id, "invalid_request", "request must be a JSON object"), Endpoint::Eval);
        }
        let op = match req.get("op").map(|v| v.as_str()) {
            None if req.get("query").is_some() || req.get("queries").is_some() => "eval",
            None => "",
            Some(Some(op)) => op,
            Some(None) => {
                self.metrics.invalid.fetch_add(1, Ordering::Relaxed);
                return (fail(id, "invalid_request", "op must be a string"), Endpoint::Eval);
            }
        };
        match op {
            "eval" | "query" => self.op_eval(req, id),
            "stats" => (self.op_stats(id), Endpoint::Stats),
            "ping" => (
                Json::Obj(id_fields(
                    id,
                    vec![
                        ("ok".to_owned(), Json::Bool(true)),
                        ("pong".to_owned(), Json::Bool(true)),
                        (
                            "uptime_us".to_owned(),
                            Json::num(
                                u64::try_from(self.started.elapsed().as_micros()).unwrap_or(0),
                            ),
                        ),
                    ],
                )),
                Endpoint::Ping,
            ),
            "shutdown" => {
                self.begin_shutdown();
                (
                    Json::Obj(id_fields(
                        id,
                        vec![
                            ("ok".to_owned(), Json::Bool(true)),
                            ("shutting_down".to_owned(), Json::Bool(true)),
                        ],
                    )),
                    Endpoint::Ping,
                )
            }
            other => {
                self.metrics.invalid.fetch_add(1, Ordering::Relaxed);
                (fail(id, "invalid_request", &format!("unknown op {other:?}")), Endpoint::Eval)
            }
        }
    }

    #[allow(clippy::too_many_lines)]
    fn op_eval(&self, req: &Json, id: Option<&Json>) -> (Json, Endpoint) {
        // Collect query texts: "query" (single) or "queries" (array).
        let texts: Vec<&str> = if let Some(q) = req.get("query") {
            match q.as_str() {
                Some(text) => vec![text],
                None => {
                    self.metrics.invalid.fetch_add(1, Ordering::Relaxed);
                    return (fail(id, "invalid_request", "query must be a string"), Endpoint::Eval);
                }
            }
        } else if let Some(qs) = req.get("queries") {
            match qs.as_arr() {
                Some(items) if !items.is_empty() => {
                    let mut texts = Vec::with_capacity(items.len());
                    for item in items {
                        match item.as_str() {
                            Some(text) => texts.push(text),
                            None => {
                                self.metrics.invalid.fetch_add(1, Ordering::Relaxed);
                                return (
                                    fail(id, "invalid_request", "queries must be strings"),
                                    Endpoint::Eval,
                                );
                            }
                        }
                    }
                    texts
                }
                _ => {
                    self.metrics.invalid.fetch_add(1, Ordering::Relaxed);
                    return (
                        fail(id, "invalid_request", "queries must be a non-empty array"),
                        Endpoint::Eval,
                    );
                }
            }
        } else {
            self.metrics.invalid.fetch_add(1, Ordering::Relaxed);
            return (fail(id, "invalid_request", "eval needs query or queries"), Endpoint::Eval);
        };
        let endpoint = if texts.len() >= 2 { Endpoint::Batch } else { Endpoint::Eval };

        let Some(doc_name) = req.get("doc").and_then(Json::as_str) else {
            self.metrics.invalid.fetch_add(1, Ordering::Relaxed);
            return (fail(id, "invalid_request", "eval needs a doc name"), endpoint);
        };
        if self.shutting_down() {
            return (fail(id, "shutting_down", "server is draining"), endpoint);
        }

        // Per-request knobs.
        let timeout_ms = match req.get("timeout_ms") {
            None => None,
            Some(v) => match v.as_u64() {
                Some(ms) => Some(ms),
                None => {
                    self.metrics.invalid.fetch_add(1, Ordering::Relaxed);
                    return (
                        fail(id, "invalid_request", "timeout_ms must be a non-negative integer"),
                        endpoint,
                    );
                }
            },
        };
        let threads = req
            .get("threads")
            .and_then(Json::as_u64)
            .map_or(1, |t| u32::try_from(t).unwrap_or(u32::MAX))
            .clamp(1, self.config.max_request_threads.max(1));
        let limit = req
            .get("limit")
            .and_then(Json::as_u64)
            .map_or(self.config.default_value_limit, |l| usize::try_from(l).unwrap_or(usize::MAX))
            .min(65_536);

        // Admission control: one permit per in-flight evaluation.
        let Some(_permit) = self.pool.acquire(self.config.admission_timeout) else {
            self.metrics.overloaded.fetch_add(1, Ordering::Relaxed);
            return (
                fail(id, "overloaded", "no evaluation permit available; retry later"),
                endpoint,
            );
        };

        // Resolve the snapshot through the store's generational cache.
        let doc = match self.store.open_doc(doc_name) {
            Ok(doc) => doc,
            Err(e) => {
                let kind = match &e {
                    StoreError::NotFound(_) => "not_found",
                    StoreError::InvalidName(_) => "invalid_request",
                    StoreError::Snapshot(_) => "snapshot_error",
                    StoreError::Io(_) => "io_error",
                };
                return (fail(id, kind, &e.to_string()), endpoint);
            }
        };

        // Compile each text through the shared cache (one fingerprint
        // render per request). A compile error is a per-query result,
        // not a connection drop — other queries still run.
        let compiler = Compiler::new().threads(threads);
        let fingerprint = compiler.options_fingerprint();
        let mut compiled = Vec::with_capacity(texts.len());
        for text in &texts {
            compiled.push(self.cache.get_or_compile_keyed(&compiler, &fingerprint, text));
        }

        let budget = match timeout_ms {
            Some(ms) => EvalBudget::timeout(Duration::from_millis(ms)),
            None => EvalBudget::unlimited(),
        }
        .with_cancel(Arc::clone(&self.cancel));

        let started = Instant::now();
        let ok_queries: Vec<&Arc<crate::query::CompiledQuery>> =
            compiled.iter().filter_map(|r| r.as_ref().ok()).collect();
        let mut batch_stats = None;
        let mut evaluated = if ok_queries.len() >= 2 {
            // ≥ 2 compiled queries: evaluate as one QuerySet so shared
            // axis passes are memoized across the batch.
            let mut builder = QuerySetBuilder::with_compiler(compiler.clone()).threads(threads);
            for q in &ok_queries {
                builder = builder.compiled(Arc::clone(q));
            }
            match builder.build() {
                Ok(set) => {
                    let result = set.evaluate_all_with(&doc, Context::of(doc.root()), &budget);
                    let stats = result.stats();
                    self.metrics.batch_memo_hits.fetch_add(stats.memo_hits, Ordering::Relaxed);
                    self.metrics.batch_memo_misses.fetch_add(stats.memo_misses, Ordering::Relaxed);
                    batch_stats = Some(Json::obj(vec![
                        ("mode", Json::Str(stats.mode.name().to_string())),
                        ("queries", Json::num(stats.queries as u64)),
                        ("fragment_queries", Json::num(stats.fragment_queries as u64)),
                        ("memo_hits", Json::num(stats.memo_hits)),
                        ("memo_misses", Json::num(stats.memo_misses)),
                        ("workers", Json::num(stats.workers as u64)),
                    ]));
                    result.into_results().into_iter()
                }
                Err(e) => {
                    let err = Err(e);
                    vec![err; ok_queries.len()].into_iter()
                }
            }
        } else {
            ok_queries
                .iter()
                .map(|q| q.evaluate_with(&doc, Context::of(doc.root()), &budget))
                .collect::<Vec<_>>()
                .into_iter()
        };
        let elapsed_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);

        // Merge compile errors and evaluation results back into input
        // order, rendering each slot as a structured per-query result.
        let results: Vec<Json> = compiled
            .iter()
            .map(|slot| match slot {
                Err(e) => self.render_query_error(e),
                Ok(_) => match evaluated.next() {
                    Some(Ok(value)) => render_value(&doc, &value, limit),
                    Some(Err(e)) => self.render_query_error(&e),
                    None => self.render_query_error(&EvalError::Cancelled),
                },
            })
            .collect();

        let mut fields = id_fields(
            id,
            vec![
                ("ok".to_owned(), Json::Bool(true)),
                ("doc".to_owned(), Json::Str(doc_name.to_owned())),
                ("results".to_owned(), Json::Arr(results)),
                ("elapsed_us".to_owned(), Json::num(elapsed_us)),
            ],
        );
        if let Some(batch) = batch_stats {
            fields.push(("batch".to_owned(), batch));
        }
        (Json::Obj(fields), endpoint)
    }

    fn render_query_error(&self, e: &EvalError) -> Json {
        match e {
            EvalError::DeadlineExceeded => {
                self.metrics.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
            }
            EvalError::Cancelled => {
                self.metrics.cancelled.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
        Json::obj(vec![
            ("ok", Json::Bool(false)),
            ("error", error_json(eval_error_kind(e), &e.to_string())),
        ])
    }

    fn op_stats(&self, id: Option<&Json>) -> Json {
        let m = &self.metrics;
        let load = |c: &AtomicU64| Json::num(c.load(Ordering::Relaxed));
        let planner = self.cache.planner_stats();
        let analysis = self.cache.analysis_stats();
        let cache = self.cache.stats();
        let store = self.store.stats();
        let pool = self.pool.stats();
        let stats = Json::obj(vec![
            (
                "uptime_us",
                Json::num(u64::try_from(self.started.elapsed().as_micros()).unwrap_or(0)),
            ),
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
        ]);
        Json::Obj(id_fields(
            id,
            vec![("ok".to_owned(), Json::Bool(true)), ("stats".to_owned(), stats)],
        ))
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
        'conn: loop {
            // Serve every complete line already buffered.
            while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = buf.drain(..=pos).collect();
                if line.len() - 1 > self.config.max_line_bytes {
                    let response =
                        fail(None, "line_too_long", "request line exceeds limit").render();
                    let _ = stream.write_all(response.as_bytes());
                    let _ = stream.write_all(b"\n");
                    let _ = stream.flush();
                    break 'conn;
                }
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
                    break 'conn;
                }
            }
            if self.shutting_down() && buf.is_empty() {
                break;
            }
            if buf.len() > self.config.max_line_bytes {
                let response = fail(None, "line_too_long", "request line exceeds limit").render();
                let _ = stream.write_all(response.as_bytes());
                let _ = stream.write_all(b"\n");
                let _ = stream.flush();
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

enum Endpoint {
    Eval,
    Batch,
    Stats,
    Ping,
}

fn id_fields(id: Option<&Json>, rest: Vec<(String, Json)>) -> Vec<(String, Json)> {
    let mut fields = Vec::with_capacity(rest.len() + 1);
    if let Some(id) = id {
        fields.push(("id".to_owned(), id.clone()));
    }
    fields.extend(rest);
    fields
}

fn render_value(doc: &Document, value: &Value, limit: usize) -> Json {
    match value {
        Value::Number(n) => Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("type", Json::Str("number".to_owned())),
            ("value", Json::Num(*n)),
        ]),
        Value::String(s) => Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("type", Json::Str("string".to_owned())),
            ("value", Json::Str(s.clone())),
        ]),
        Value::Boolean(b) => Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("type", Json::Str("boolean".to_owned())),
            ("value", Json::Bool(*b)),
        ]),
        Value::NodeSet(nodes) => {
            let values: Vec<Json> = nodes
                .iter()
                .take(limit)
                .map(|n| Json::Str(doc.string_value(n).to_string()))
                .collect();
            Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("type", Json::Str("node-set".to_owned())),
                ("count", Json::num(nodes.len() as u64)),
                ("values", Json::Arr(values)),
            ])
        }
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
    fn json_roundtrip_and_errors() {
        let cases = [
            r#"{"a":1,"b":[true,false,null],"c":"x\"\\\n\u00e9\ud83d\ude00"}"#,
            "[]",
            "{}",
            "-1.5e3",
            r#""plain""#,
        ];
        for case in cases {
            let v = Json::parse(case).unwrap();
            let rendered = v.render();
            assert_eq!(Json::parse(&rendered).unwrap(), v, "{case}");
        }
        for bad in
            ["", "{", "[1,]", "{\"a\":}", "tru", "1 2", "\"\\ud800\"", "\"unterminated", "{1:2}"]
        {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
        // Duplicate keys keep the first; numbers render integrally.
        assert_eq!(Json::parse(r#"{"k":1,"k":2}"#).unwrap().get("k"), Some(&Json::Num(1.0)));
        assert_eq!(Json::Num(3.0).render(), "3");
    }

    #[test]
    fn histogram_quantiles_are_bucket_upper_bounds() {
        let h = LatencyHistogram::default();
        for us in [1u64, 2, 3, 100, 1000, 10_000] {
            h.record(us);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.max_us, 10_000);
        assert!(s.quantile(0.5) >= 3 && s.quantile(0.5) <= 7, "p50={}", s.quantile(0.5));
        assert_eq!(s.quantile(1.0), 10_000);
        assert_eq!(LatencyHistogram::default().snapshot().quantile(0.99), 0);
        let json = s.to_json();
        assert_eq!(json.get("count"), Some(&Json::Num(6.0)));
    }

    #[test]
    fn permit_pool_bounds_and_times_out() {
        let pool = PermitPool::new(2);
        let a = pool.acquire(Duration::from_millis(10)).unwrap();
        let b = pool.acquire(Duration::from_millis(10)).unwrap();
        assert!(pool.acquire(Duration::from_millis(20)).is_none(), "pool is full");
        drop(a);
        let c = pool.acquire(Duration::from_millis(10)).unwrap();
        drop(b);
        drop(c);
        let stats = pool.stats();
        assert_eq!((stats.permits, stats.in_use, stats.peak_in_use), (2, 0, 2));
        assert_eq!((stats.acquired, stats.timeouts), (3, 1));
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
            r#"{"doc":"books","queries":["//book[author]","//book[author]/title","count(//book)","//nosuch["]}"#,
        );
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
        let results = resp.get("results").unwrap().as_arr().unwrap();
        assert_eq!(results.len(), 4);
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
        for (line, kind) in [
            ("this is not json", "invalid_request"),
            ("[1,2,3]", "invalid_request"),
            (r#"{"op":"eval","doc":"books"}"#, "invalid_request"),
            (r#"{"op":"eval","query":"//a"}"#, "invalid_request"),
            (r#"{"op":"frobnicate"}"#, "invalid_request"),
            (r#"{"doc":"absent","query":"//a"}"#, "not_found"),
            (r#"{"doc":"../evil","query":"//a"}"#, "invalid_request"),
            (r#"{"doc":"books","query":"//a","timeout_ms":-5}"#, "invalid_request"),
            (r#"{"doc":"books","queries":[]}"#, "invalid_request"),
        ] {
            let resp = respond(&server, line);
            assert_eq!(resp.get("ok"), Some(&Json::Bool(false)), "{line}");
            assert_eq!(
                resp.get("error").unwrap().get("kind").unwrap().as_str(),
                Some(kind),
                "{line}"
            );
        }
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
