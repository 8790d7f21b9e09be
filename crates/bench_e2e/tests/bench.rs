//! The benchmark's own checks: seeded inputs, the tail-sample rule,
//! open-loop timing, the response checker, comparison, the command
//! line's refusal to run without a server binary, and a short run of
//! every workload against an in-process server.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::thread;
use std::time::{Duration, Instant};

use bench_e2e::catalog::Answer;
use bench_e2e::client::{open_loop, supports_quantile, Checking, Conn};
use bench_e2e::compare::{quartiles, verdict, MetricDef, Verdict};
use bench_e2e::run::{run_e2e, Options};
use bench_e2e::server::{Launch, TempDir};
use bench_e2e::trace::run_traced;
use bench_e2e::workload::{check_response, spec, Prepared, Request, WORKLOADS};

fn scratch() -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("bench_e2e")
}

#[test]
fn same_seed_gives_identical_inputs_and_another_seed_does_not() {
    for spec in &WORKLOADS {
        let (a, b, c) = (Prepared::new(spec, 7), Prepared::new(spec, 7), Prepared::new(spec, 8));
        assert_eq!(a.xml, b.xml, "{}: documents differ for one seed", spec.name);
        let lines = |p: &Prepared| p.requests.iter().map(|r| r.line.clone()).collect::<Vec<_>>();
        assert_eq!(lines(&a), lines(&b), "{}", spec.name);
        let stream = |p: &Prepared| {
            let mut schedule = p.schedule(3);
            (0..500).map(|k| schedule.at(k)).collect::<Vec<_>>()
        };
        assert_eq!(stream(&a), stream(&b), "{}: request streams differ for one seed", spec.name);
        assert_ne!(a.xml, c.xml, "{}: another seed gave the same documents", spec.name);
        assert_ne!(stream(&a), stream(&c), "{}: another seed gave the same stream", spec.name);
    }
}

#[test]
fn every_pass_of_a_schedule_sends_the_whole_mix() {
    for spec in &WORKLOADS {
        let prepared = Prepared::new(spec, 5);
        let mut weights = vec![0u32; prepared.requests.len()];
        for &req in &prepared.mix {
            weights[req as usize] += 1;
        }
        let len = prepared.mix.len() as u64;
        let mut schedule = prepared.schedule(4);
        let mut orders = Vec::new();
        for pass in 0..3 {
            let order: Vec<usize> =
                (pass * len..(pass + 1) * len).map(|k| schedule.at(k)).collect();
            let mut counts = vec![0u32; prepared.requests.len()];
            for &req in &order {
                counts[req] += 1;
            }
            assert_eq!(counts, weights, "{}: pass {pass} is not the whole mix", spec.name);
            orders.push(order);
        }
        assert_ne!(orders[0], orders[1], "{}: every pass in one order", spec.name);
    }
}

#[test]
fn p99_is_measured_only_with_ten_samples_beyond_it() {
    assert!(!supports_quantile(999, 0.99));
    assert!(supports_quantile(1_000, 0.99));
    assert!(!supports_quantile(199, 0.95));
    assert!(supports_quantile(200, 0.95));
}

/// A server that answers every line with `{"ok":true}`, stalling once
/// before answering line `stall_at`.
fn stalling_server(listener: &UnixListener, stall_at: usize, stall: Duration) {
    let (stream, _) = listener.accept().expect("accept");
    let mut writer = stream.try_clone().expect("clone");
    for (i, line) in BufReader::new(stream).lines().enumerate() {
        if line.is_err() {
            break;
        }
        if i == stall_at {
            thread::sleep(stall);
        }
        if writer.write_all(b"{\"ok\":true}\n").is_err() {
            break;
        }
    }
}

#[test]
fn open_loop_charges_a_stall_to_the_requests_queued_behind_it() {
    let dir = TempDir::new(&scratch(), "stall").expect("temp dir");
    let sock = dir.path().join("s.sock");
    let listener = UnixListener::bind(&sock).expect("bind");
    let stall = Duration::from_millis(100);
    let server = thread::spawn(move || stalling_server(&listener, 20, stall));
    let prepared = Prepared::new(spec("churn").expect("churn"), 1);
    let mut conns = vec![Conn::connect(&sock, Duration::from_secs(5)).expect("connect")];
    let epoch = Instant::now();
    let from = Duration::from_millis(5);
    // 1,000/s for 400 ms: request k is due at 5 ms + k ms.
    let window = (from, from + Duration::from_millis(400));
    let records = open_loop(&mut conns, &prepared, 9, epoch, window, 1_000.0, Checking::Deferred)
        .expect("open loop");
    drop(conns);
    server.join().expect("server thread");

    assert_eq!(records.len(), 400);
    let at = |k: usize| &records[k];
    // The stalled request itself waits the whole stall.
    assert!(at(20).latency_ms() >= 100.0, "stalled request: {:?}", at(20));
    // A request due 30 ms later was queued behind it: it could not even
    // be sent until the stall ended, and is charged from its due time.
    assert!(at(50).lateness_ms() >= 60.0, "queued request sent on time: {:?}", at(50));
    assert!(at(50).latency_ms() >= 60.0, "queued request not charged: {:?}", at(50));
    // Long after the stall the generator has caught up again.
    assert!(at(380).latency_ms() < 50.0, "never recovered: {:?}", at(380));
}

#[test]
fn checker_rejects_a_wrong_count() {
    let req = Request {
        line: String::new(),
        expected: vec![vec![
            Answer::Number(3.0),
            Answer::Nodes { count: 2, values: vec!["a".to_owned(), "b".to_owned()] },
        ]],
    };
    let response = |count: u32, nodes: u32| {
        format!(
            "{{\"ok\":true,\"results\":[{{\"ok\":true,\"type\":\"number\",\"value\":{count}}},\
             {{\"ok\":true,\"type\":\"node-set\",\"count\":{nodes},\"values\":[\"a\",\"b\"]}}]}}\n"
        )
    };
    assert_eq!(check_response(&response(3, 2), &req, &[0]), Ok(0));
    assert!(check_response(&response(4, 2), &req, &[0]).is_err(), "wrong count() accepted");
    assert!(check_response(&response(3, 3), &req, &[0]).is_err(), "wrong node count accepted");
    let failed = "{\"ok\":false,\"error\":{\"kind\":\"overloaded\",\"message\":\"\"}}\n";
    assert!(check_response(failed, &req, &[0]).is_err(), "refusal accepted");
}

#[test]
fn quartiles_match_python_statistics() {
    // statistics.quantiles([1, …, 10], n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
    // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
}

#[test]
fn compare_flags_regressions_and_noise() {
    let lower = MetricDef { name: "p50_ms".to_owned(), lower_is_better: true, bound: 0.1 };
    let a = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0];
    let slower: Vec<f64> = a.iter().map(|x| x * 1.3).collect();
    let faster: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
    let noisy = [0.5, 1.5, 0.7, 1.4, 1.0, 0.6, 1.3, 0.9, 1.2, 0.8];
    assert_eq!(verdict(&lower, &a, &slower), Verdict::Worse);
    assert_eq!(verdict(&lower, &a, &faster), Verdict::Better);
    assert_eq!(verdict(&lower, &a, &a), Verdict::Unchanged);
    assert_eq!(verdict(&lower, &a, &noisy), Verdict::Unresolved);
    let higher = MetricDef { name: "capacity_qps".to_owned(), lower_is_better: false, bound: 0.1 };
    assert_eq!(verdict(&higher, &a, &faster), Verdict::Worse);
}

#[test]
fn command_line_refuses_to_run_without_a_server_binary() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_bench_e2e"))
        .args(["--workload", "point", "--smoke"])
        .output()
        .expect("run bench_e2e");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "printed a result: {}", String::from_utf8_lossy(&out.stdout));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--xpq is required"));
}

#[test]
fn smoke_run_of_every_workload_is_correct() {
    let opts = Options {
        launch: Launch::InProcess,
        seconds: 0.4,
        setups: 1,
        scratch: scratch(),
        trace_dir: scratch().join("traces"),
    };
    let mut layer_names = None;
    for spec in &WORKLOADS {
        let prepared = Prepared::new(spec, 3);
        let out = run_e2e(&opts, &prepared).expect("untraced run");
        assert!(
            out.attempted > 0 && out.failed == 0,
            "{}: {} wrong of {}",
            spec.name,
            out.failed,
            out.attempted
        );
        for m in &out.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{}: {} = {}",
                spec.name,
                m.name,
                m.value
            );
        }
        let traced = run_traced(&opts, &prepared).expect("traced run");
        assert!(traced.failed == 0, "{}: traced run answered wrongly", spec.name);
        let names: Vec<String> = traced.metrics.iter().map(|m| m.name.clone()).collect();
        assert_eq!(*layer_names.get_or_insert_with(|| names.clone()), names, "{}", spec.name);
        let spans =
            std::fs::read_to_string(opts.trace_dir.join(format!("trace-{}.jsonl", spec.name)))
                .expect("trace file");
        assert!(spans.lines().any(|l| l.contains("\"name\":\"store.open\"")), "{}", spec.name);
    }
}
