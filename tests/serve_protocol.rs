//! Integration tests of the query server over a real Unix socket:
//! concurrent clients, per-request deadlines as structured errors
//! (never dropped connections or torn response lines), live `stats`,
//! and graceful drain on shutdown; plus a golden request/response
//! session replayed through `Server::handle_line`.

use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use gkp_xpath::core::serve::{Json, ServeConfig, Server};
use gkp_xpath::xml::generate::{doc_balanced, doc_bookstore};
use gkp_xpath::xml::temp::TempPath;

fn temp_dir(tag: &str) -> TempPath {
    TempPath::new(&format!("serveit_{tag}"))
}

struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Client {
    fn connect(sock: &PathBuf) -> Client {
        let deadline = Instant::now() + Duration::from_secs(10);
        let stream = loop {
            match UnixStream::connect(sock) {
                Ok(s) => break s,
                Err(_) if Instant::now() < deadline => thread::sleep(Duration::from_millis(10)),
                Err(e) => panic!("cannot connect to {}: {e}", sock.display()),
            }
        };
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        Client { reader, writer: stream }
    }

    fn roundtrip(&mut self, request: &str) -> Json {
        self.writer.write_all(request.as_bytes()).unwrap();
        self.writer.write_all(b"\n").unwrap();
        self.writer.flush().unwrap();
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read response");
        assert!(n > 0, "server closed the connection instead of responding");
        Json::parse(line.trim()).expect("response line is complete JSON, never torn")
    }
}

type Started = (TempPath, Arc<Server>, PathBuf, thread::JoinHandle<std::io::Result<()>>);

/// Start a server over a fresh store (one published balanced document)
/// on a Unix socket in the store's parent dir. Returns that directory
/// (removed on drop), the server, the socket path, and the accept-loop
/// thread handle.
fn start(tag: &str) -> Started {
    start_with(tag, |_| {})
}

/// [`start`] with a last say over the configuration.
fn start_with(tag: &str, configure: impl FnOnce(&mut ServeConfig)) -> Started {
    let dir = temp_dir(tag);
    let mut config = ServeConfig::new(dir.join("store"));
    config.read_timeout = Duration::from_millis(25);
    config.drain_timeout = Duration::from_secs(10);
    // This box may report a single core; these tests probe protocol
    // correctness under concurrency, not admission control, so give
    // every client a permit.
    config.permits = 16;
    configure(&mut config);
    let server = Arc::new(Server::new(config).unwrap());
    // Small document: these tests probe the wire protocol, not
    // evaluator throughput (`bench_axes`'s `serve` section covers that),
    // and they run in debug builds on possibly single-core CI.
    server.store().publish("bench", &doc_balanced(3, 4, &["a", "b", "c", "d"])).unwrap();
    let sock = dir.join("xpq.sock");
    let accept = {
        let server = Arc::clone(&server);
        let sock = sock.clone();
        thread::spawn(move || server.serve_unix(&sock))
    };
    (dir, server, sock, accept)
}

fn finish(
    server: &Arc<Server>,
    accept: thread::JoinHandle<std::io::Result<()>>,
    sock: &std::path::Path,
) {
    server.begin_shutdown();
    accept.join().expect("accept loop panicked").expect("accept loop I/O");
    assert!(!sock.exists(), "socket file is removed on drain");
}

#[test]
fn concurrent_clients_get_exact_unmixed_responses() {
    const CLIENTS: usize = 8;
    const REQUESTS: usize = 25;

    let (_dir, server, sock, accept) = start("concurrent");
    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let sock = sock.clone();
            thread::spawn(move || {
                let mut client = Client::connect(&sock);
                for r in 0..REQUESTS {
                    let id = c * 1000 + r;
                    // Mix single and batch requests across clients.
                    let request = if c % 2 == 0 {
                        format!(r#"{{"id":{id},"doc":"bench","query":"count(//c)"}}"#)
                    } else {
                        format!(
                            r#"{{"id":{id},"doc":"bench","queries":["count(//c)","count(//d)"]}}"#
                        )
                    };
                    let resp = client.roundtrip(&request);
                    // The response is for *this* request (ids echo
                    // back exactly — no cross-connection mixing).
                    assert_eq!(resp.get("id").unwrap().as_u64(), Some(id as u64));
                    assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
                    let results = resp.get("results").unwrap().as_arr().unwrap();
                    for result in results {
                        assert_eq!(result.get("ok"), Some(&Json::Bool(true)));
                        assert!(result.get("value").unwrap().as_f64().unwrap() > 0.0);
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("client panicked");
    }
    let stats = server.metrics();
    assert_eq!(
        stats.requests.load(std::sync::atomic::Ordering::Relaxed),
        (CLIENTS * REQUESTS) as u64
    );
    finish(&server, accept, &sock);
}

#[test]
fn deadline_trips_are_structured_and_connection_survives() {
    let (_dir, server, sock, accept) = start("deadline");
    let mut client = Client::connect(&sock);
    let resp =
        client.roundtrip(r#"{"id":1,"doc":"bench","query":"//c[@id]//d//a","timeout_ms":0}"#);
    assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "transport-level ok");
    let result = &resp.get("results").unwrap().as_arr().unwrap()[0];
    assert_eq!(result.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(
        result.get("error").unwrap().get("kind").unwrap().as_str(),
        Some("deadline_exceeded")
    );
    // Same connection keeps working after the trip.
    let resp = client.roundtrip(r#"{"id":2,"doc":"bench","query":"count(//a)"}"#);
    assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(resp.get("id").unwrap().as_u64(), Some(2));
    finish(&server, accept, &sock);
}

#[test]
fn stats_over_the_wire_reflect_served_requests() {
    let (_dir, server, sock, accept) = start("stats");
    let mut client = Client::connect(&sock);
    for _ in 0..3 {
        client.roundtrip(r#"{"doc":"bench","query":"count(//b)"}"#);
    }
    let resp = client.roundtrip(r#"{"op":"stats"}"#);
    let stats = resp.get("stats").unwrap();
    assert_eq!(stats.get("server").unwrap().get("requests").unwrap().as_u64(), Some(4));
    assert_eq!(stats.get("server").unwrap().get("connections").unwrap().as_u64(), Some(1));
    assert_eq!(stats.get("cache").unwrap().get("hits").unwrap().as_u64(), Some(2));
    let eval_latency = stats.get("latency").unwrap().get("eval").unwrap();
    assert_eq!(eval_latency.get("count").unwrap().as_u64(), Some(3));
    assert!(eval_latency.get("p99_us").unwrap().as_u64().unwrap() > 0);
    finish(&server, accept, &sock);
}

#[test]
fn shutdown_op_drains_and_returns_clean() {
    let (_dir, server, sock, accept) = start("shutdown");
    let mut client = Client::connect(&sock);
    let resp = client.roundtrip(r#"{"op":"shutdown"}"#);
    assert_eq!(resp.get("shutting_down"), Some(&Json::Bool(true)));
    accept.join().expect("accept loop panicked").expect("clean drain");
    assert!(server.shutting_down());
    assert!(!sock.exists());
}

#[test]
fn oversized_line_is_rejected_structurally() {
    let dir = temp_dir("oversize");
    let mut config = ServeConfig::new(dir.join("store"));
    config.read_timeout = Duration::from_millis(25);
    config.max_line_bytes = 256;
    let server = Arc::new(Server::new(config).unwrap());
    server.store().publish("bench", &doc_balanced(2, 3, &["a", "b"])).unwrap();
    let sock = dir.join("xpq.sock");
    let accept = {
        let server = Arc::clone(&server);
        let sock = sock.clone();
        thread::spawn(move || server.serve_unix(&sock))
    };
    let mut client = Client::connect(&sock);
    let huge = format!(r#"{{"doc":"bench","query":"{}"}}"#, "x".repeat(1024));
    let resp = client.roundtrip(&huge);
    assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(resp.get("error").unwrap().get("kind").unwrap().as_str(), Some("line_too_long"));
    finish(&server, accept, &sock);
}

#[test]
fn oversized_partial_line_is_rejected_and_the_connection_closed() {
    let (_dir, server, sock, accept) = start_with("overflow", |c| c.max_line_bytes = 256);
    let mut client = Client::connect(&sock);
    // No newline ever arrives: the buffered bytes alone pass the limit.
    client.writer.write_all(&[b'x'; 1024]).unwrap();
    client.writer.flush().unwrap();
    let mut line = String::new();
    client.reader.read_line(&mut line).expect("read the rejection");
    let resp = Json::parse(line.trim()).expect("rejection is complete JSON");
    assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(resp.get("error").unwrap().get("kind").unwrap().as_str(), Some("line_too_long"));
    let mut rest = Vec::new();
    client.reader.read_to_end(&mut rest).expect("the server closes the connection");
    assert!(rest.is_empty(), "nothing follows the rejection: {rest:?}");
    finish(&server, accept, &sock);
}

/// Mask the digits that time a request: the values of `elapsed_us`,
/// `uptime_us` and every latency-histogram field except `count` (a
/// histogram's `buckets` array as a whole).
fn mask_timing(response: &str) -> String {
    let mut out = response.to_owned();
    for key in
        ["elapsed_us", "uptime_us", "mean_us", "p50_us", "p95_us", "p99_us", "max_us", "buckets"]
    {
        let pattern = format!("\"{key}\":");
        let mut from = 0;
        while let Some(at) = out[from..].find(&pattern) {
            let start = from + at + pattern.len();
            let rest = &out.as_bytes()[start..];
            let len = if rest.first() == Some(&b'[') {
                // `buckets`: the whole array, through its closing bracket.
                let mut depth = 0i32;
                let close = rest.iter().position(|&b| {
                    depth += match b {
                        b'[' => 1,
                        b']' => -1,
                        _ => 0,
                    };
                    depth == 0
                });
                close.map_or(rest.len(), |i| i + 1)
            } else {
                rest.iter().take_while(|b| b.is_ascii_digit()).count()
            };
            out.replace_range(start..start + len, "#");
            from = start + 1;
        }
    }
    out
}

/// Replay `tests/data/serve_golden.txt` on a fresh server: every `> `
/// line is sent through `Server::handle_line`, and the transcript with
/// each masked response as the `< ` line after its request must equal the
/// file byte for byte. On a mismatch the message holds the whole replay.
#[test]
fn golden_session_replays_byte_for_byte() {
    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/serve_golden.txt");
    let fixture = std::fs::read_to_string(golden).expect("golden fixture");
    let dir = temp_dir("golden");
    let mut config = ServeConfig::new(dir.join("store"));
    // `stats` reports the pool size, which defaults to the core count.
    config.permits = 2;
    let server = Server::new(config).unwrap();
    server.store().publish("books", &doc_bookstore()).unwrap();
    let mut replay = String::new();
    for line in fixture.lines() {
        if line.starts_with("< ") {
            continue;
        }
        replay.push_str(line);
        replay.push('\n');
        if let Some(request) = line.strip_prefix("> ") {
            replay.push_str("< ");
            replay.push_str(&mask_timing(&server.handle_line(request)));
            replay.push('\n');
        }
    }
    assert!(replay == fixture, "golden session differs; the replay reads:\n{replay}");
}
