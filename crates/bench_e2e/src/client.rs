//! The load generator: a line-JSON client, closed-loop, open-loop and
//! ping loops, and the quantile helpers every metric is computed with.

use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::thread;
use std::time::{Duration, Instant};

use crate::workload::{check_response, Prepared};

/// One client connection to the server.
pub struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    line: String,
}

impl Conn {
    /// Connect to the Unix socket at `sock`, retrying until `timeout`
    /// passes (the server may still be binding it).
    ///
    /// # Errors
    /// The last connect error once the timeout has passed.
    pub fn connect(sock: &Path, timeout: Duration) -> io::Result<Conn> {
        let deadline = Instant::now() + timeout;
        let stream = loop {
            match UnixStream::connect(sock) {
                Ok(s) => break s,
                Err(_) if Instant::now() < deadline => thread::sleep(Duration::from_millis(1)),
                Err(e) => return Err(e),
            }
        };
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn { reader, writer: stream, line: String::new() })
    }

    /// Send one newline-terminated request line and read the response
    /// line (with its newline).
    ///
    /// # Errors
    /// Transport errors, or `UnexpectedEof` if the server closed the
    /// connection.
    pub fn roundtrip(&mut self, line: &str) -> io::Result<&str> {
        self.writer.write_all(line.as_bytes())?;
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed connection"));
        }
        Ok(&self.line)
    }
}

// ---------------------------------------------------------------------
// Quantiles
// ---------------------------------------------------------------------

/// Nearest-rank `q`-quantile of ascending `sorted` (0 when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_precision_loss)]
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of `values` (any order; 0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Samples needed beyond a percentile before it is reported as
/// measured rather than as an extrapolation.
pub const TAIL_SAMPLES: usize = 10;

/// Does a sample of `n` leave at least [`TAIL_SAMPLES`] samples beyond
/// the `q`-quantile? (For p99 that takes 1,000 samples.)
pub fn supports_quantile(n: usize, q: f64) -> bool {
    #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let beyond = (n as f64 * (1.0 - q) + 1e-9).floor() as usize;
    beyond >= TAIL_SAMPLES
}

// ---------------------------------------------------------------------
// Request loops
// ---------------------------------------------------------------------

/// What happened to one request. Times are offsets from the phase's
/// shared epoch.
#[derive(Clone, Debug)]
pub struct Record {
    /// Position in the schedule (open loop) or per-connection sequence
    /// number (closed loop).
    pub k: u64,
    /// Index into [`Prepared::requests`].
    pub req: u32,
    /// When the request was due (open loop) — equal to `sent` in a
    /// closed loop.
    pub due: Duration,
    /// When its first byte was written.
    pub sent: Duration,
    /// When its response line had been read.
    pub recv: Duration,
    /// Response line length in bytes.
    pub bytes: usize,
    /// `Some(ok)` once checked inline; `None` when the response is kept
    /// in `response` to be checked later.
    pub ok: Option<bool>,
    /// The response, when checking is deferred.
    pub response: Option<String>,
}

impl Record {
    /// Latency from the due time, in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        (self.recv - self.due).as_secs_f64() * 1e3
    }

    /// How late the generator sent it, in milliseconds.
    pub fn lateness_ms(&self) -> f64 {
        (self.sent - self.due).as_secs_f64() * 1e3
    }
}

/// How responses are checked.
#[derive(Clone, Copy, Debug)]
pub enum Checking {
    /// Against generation 0, as they arrive.
    Inline,
    /// Kept for a later check against a publish timeline.
    Deferred,
}

fn exchange(
    conn: &mut Conn,
    prepared: &Prepared,
    epoch: Instant,
    (k, req, due): (u64, usize, Duration),
    checking: Checking,
) -> io::Result<Record> {
    let line = &prepared.requests[req].line;
    let sent = epoch.elapsed();
    let response = conn.roundtrip(line)?;
    let recv = epoch.elapsed();
    let bytes = response.len();
    let (ok, response) = match checking {
        Checking::Inline => {
            let outcome = check_response(response, &prepared.requests[req], &[0]);
            if let Err(e) = &outcome {
                eprintln!("bench_e2e: wrong response to {}: {e}", line.trim_end());
            }
            (Some(outcome.is_ok()), None)
        }
        Checking::Deferred => (None, Some(response.to_owned())),
    };
    let req = u32::try_from(req).expect("request index");
    Ok(Record { k, req, due, sent, recv, bytes, ok, response })
}

/// Stream ids, so each phase and connection draws its own sequence.
pub fn stream_id(phase: u64, conn: usize) -> u64 {
    (phase << 8) | conn as u64
}

/// Closed loop: each connection sends its next request as soon as the
/// previous response arrived, until `until` (offset from `epoch`).
/// Returns every completed request.
///
/// # Errors
/// The first transport error on any connection.
pub fn closed_loop(
    conns: &mut [Conn],
    prepared: &Prepared,
    phase: u64,
    epoch: Instant,
    until: Duration,
    checking: Checking,
) -> io::Result<Vec<Record>> {
    thread::scope(|scope| {
        let workers: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    let mut schedule = prepared.schedule(stream_id(phase, c));
                    let mut k = 0;
                    while epoch.elapsed() < until {
                        let req = schedule.at(k);
                        let due = epoch.elapsed();
                        out.push(exchange(conn, prepared, epoch, (k, req, due), checking)?);
                        k += 1;
                    }
                    Ok::<_, io::Error>(out)
                })
            })
            .collect();
        let mut all = Vec::new();
        for w in workers {
            all.extend(w.join().expect("closed-loop client panicked")?);
        }
        Ok(all)
    })
}

/// Sleep until `at` (offset from `epoch`), spinning the last stretch so
/// sends start on time rather than one timer slack late.
fn wait_until(epoch: Instant, at: Duration) {
    const SPIN: Duration = Duration::from_micros(80);
    loop {
        let now = epoch.elapsed();
        if now >= at {
            return;
        }
        let left = at - now;
        if left > SPIN {
            thread::sleep(left - SPIN);
        } else {
            thread::yield_now();
        }
    }
}

/// Paced pings on one connection: one `op:"ping"` every `interval` from
/// `from` until `until` (offsets from `epoch`). Returns each round trip
/// (sent → received) in µs: the socket's cost with no query work.
///
/// # Errors
/// Transport errors, or a reply that is not a pong.
pub fn ping_loop(
    conn: &mut Conn,
    epoch: Instant,
    (from, until): (Duration, Duration),
    interval: Duration,
) -> io::Result<Vec<f64>> {
    let mut out = Vec::new();
    let mut due = from;
    while due < until {
        wait_until(epoch, due);
        let sent = Instant::now();
        let reply = conn.roundtrip("{\"op\":\"ping\"}\n")?;
        out.push(sent.elapsed().as_secs_f64() * 1e6);
        if !reply.contains("\"pong\":true") {
            return Err(io::Error::other(format!("not a pong: {}", reply.trim_end())));
        }
        due += interval;
    }
    Ok(out)
}

/// Open loop: request `k` is due at `from + k / rate`, whatever happened
/// to earlier ones; connection `c` carries the requests with
/// `k % connections == c`. A request sent late because its connection
/// was still waiting is still timed from its due time, so a stall
/// charges every request queued behind it. Runs until `until`.
///
/// # Errors
/// The first transport error on any connection.
#[allow(clippy::too_many_arguments)]
pub fn open_loop(
    conns: &mut [Conn],
    prepared: &Prepared,
    phase: u64,
    epoch: Instant,
    (from, until): (Duration, Duration),
    rate: f64,
    checking: Checking,
) -> io::Result<Vec<Record>> {
    let n = conns.len() as u64;
    thread::scope(|scope| {
        let workers: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    // One order shared by all connections: each takes
                    // every `n`-th position of it.
                    let mut schedule = prepared.schedule(stream_id(phase, 0));
                    for k in (c as u64..).step_by(n as usize) {
                        #[allow(clippy::cast_precision_loss)]
                        let due = from + Duration::from_secs_f64(k as f64 / rate);
                        if due >= until {
                            break;
                        }
                        wait_until(epoch, due);
                        let req = schedule.at(k);
                        out.push(exchange(conn, prepared, epoch, (k, req, due), checking)?);
                    }
                    Ok::<_, io::Error>(out)
                })
            })
            .collect();
        let mut all = Vec::new();
        for w in workers {
            all.extend(w.join().expect("open-loop client panicked")?);
        }
        all.sort_by_key(|r| r.k);
        Ok(all)
    })
}
