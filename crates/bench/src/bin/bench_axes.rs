//! `bench_axes` — machine-readable micro-benchmark of the axis engine and
//! node-set representations, written to `BENCH_axes.json`.
//!
//! Tracks the perf trajectory of the hybrid-`NodeSet` / bulk-axis work:
//!
//! * **axis_application** — the one axis kernel (`bulk::axis_set`) vs the
//!   per-node `axis_from` loop (the seed's hot path) and the per-node set
//!   algorithms (`fast::eval_axis`), across input densities, on a
//!   ≥10k-node document, for the interval axes, `ancestor`, `child` and
//!   both sibling axes. Every row carries the materialization the
//!   kernel took (`kernel`) so each cell is attributable;
//! * **simd** — the word sweeps under dense set operations (union,
//!   intersect, difference, popcount over 4,096 words): the
//!   `simd::scalar` reference vs the dispatched kernel, which is AVX2 when
//!   `active_tier` is `vector`;
//! * **set_ops** — union/intersect/difference on the dense-bitset vs the
//!   sorted-vec representation across densities;
//! * **queries** — whole-query Core XPath evaluation on the kernel vs the
//!   paper's TopDown evaluator, on each query as the compiler rewrites it;
//! * **batch_eval** — the batched multi-query layer (`xpath_core::batch`):
//!   a 16-query shared-prefix batch and a disjoint batch, each as one
//!   `QuerySet::evaluate_all` (batch memo sharing) vs N independent
//!   `CompiledQuery` evaluations, with the mode taken and the memo hit
//!   counts recorded;
//! * **strategy_choice** — what `Strategy::Auto` picks for served
//!   aggregates: `count(//c)` (the serve workload's query) and the
//!   `count()`-wrapped bench shapes, timed under Auto (which lifts the
//!   path onto the §10 algebra), as the bare path on its fragment engine,
//!   and under forced OptMinContext (what Auto picked before lifting);
//! * **node_tests** — what a node test costs on its own: `/descendant::*`
//!   (kind test), `/descendant::c` (name test), `//c` (merged into one
//!   descendant step by the rewrite every compile runs) and `//b[c]`,
//!   plus the bare `T(c)` scan that `//b[c]`'s `S←` runs, each with its
//!   ratio to `/descendant::*`;
//! * **positional** — positional predicates on MinContext, which decides
//!   the closed form `position() op R` by index: `/a/b[5000]`,
//!   `/a/b[last()]`, `/a/b[position() < 3]` and the filter expression
//!   `(/a/b)[5000]` on `doc_flat(10,000)` against the bare `/a/b`, and
//!   the inner path `//c[d[2]]` on the 87,382-node balanced document
//!   against the bare `//c`;
//! * **early_exit** — the lazy cursor layer (`xpath_core::cursor`):
//!   `first()`/`exists()` (stop at the first window with a match) vs a
//!   full materializing evaluation of the same compiled query on the
//!   ≥10⁵-node document, including the `//b[following::c]` shape whose
//!   predicate reads a document-global `E1` set built once per cursor;
//! * **lazy_dispatch** — the window pipeline against materializing:
//!   `first()`, a take of |D|/8 nodes and the full drain of six
//!   lazy-eligible queries (a predicate-free spine, a predicate read from
//!   its `E1` set, two window-local predicates and two upward ones, which
//!   read `E1` too), each on the lazy pipeline (take hint 1) and
//!   materialized (no hint), on 1,366 to 349,526 nodes, plus three upward
//!   predicates on a wide document (one element whose children are half
//!   the document);
//! * **snapshot** — the zero-copy document store (`xpath_xml::snap`): a
//!   cold parse of the ≥10⁵-node document's XML text vs an mmap'd
//!   snapshot load of the same document (O(header) open, arenas mapped
//!   in place), with on-disk size and bytes/node recorded;
//! * **prepared_vs_adhoc** — the compile-once guard: a prepared
//!   `CompiledQuery` and a `QueryCache` lookup must each stay faster than
//!   compile+evaluate per call, on the small bookstore document where the
//!   static phase weighs most;
//! * **serve** — the line-JSON query server (`xpath_core::serve`) on a
//!   Unix socket, driven by 4 closed-loop clients × 200 requests per
//!   workload, plus the single-client round trip against a direct
//!   in-process evaluation (the harness is `xpath_bench::serve_bench`).
//!   `threads_available` is recorded because qps under concurrent clients
//!   needs real cores.
//!
//! Usage:
//!   `cargo run --release -p xpath-bench --bin bench_axes [-- out.json]`
//!   `… --check`      run every guard in `GUARDS` (simd, batch,
//!                    early-exit, snapshot, strategy-choice, node-test,
//!                    positional, lazy-dispatch, prepared, serve and
//!                    axis-kernel;
//!                    each pass's doc comment states its bars),
//!                    re-measure a failing one up to `CHECK_ATTEMPTS`
//!                    times, and exit non-zero listing every violation
//!                    that persists. Every evaluation timed runs on the
//!                    calling thread, so CI core counts can't flake
//!                    those guards.

use std::time::{Duration, Instant};

use xpath_axes::bulk;
use xpath_bench::serve_bench::{
    check_serve, closed_loop, measure_overhead, BenchServer, ServeOverhead,
};
use xpath_core::corexpath::{compile, CoreXPathEvaluator};
use xpath_core::serve::Json;
use xpath_core::{CompiledQuery, Compiler, Context, EvalBudget, NodeCursor, QueryCache, Strategy};
use xpath_syntax::Axis;
use xpath_xml::generate::{doc_balanced, doc_flat_text};

use xpath_xml::rng::Rng;
use xpath_xml::{Document, NodeId, NodeSet};

/// Interleaved measurement of several engines on the same input: sampling
/// rounds alternate between the engines, so background-load drift hits
/// every column equally instead of skewing whichever engine happened to
/// run during a spike. Returns one median-of-rounds time per engine.
fn time_ns_interleaved(fns: &mut [&mut dyn FnMut()]) -> Vec<u64> {
    // Calibrate a per-engine iteration count to ~2ms per sample.
    let iters: Vec<u32> = fns
        .iter_mut()
        .map(|f| {
            let t = Instant::now();
            f();
            let once = t.elapsed().max(Duration::from_nanos(50));
            (Duration::from_millis(2).as_nanos() / once.as_nanos()).clamp(1, 10_000) as u32
        })
        .collect();
    let mut samples: Vec<Vec<u64>> = vec![Vec::with_capacity(7); fns.len()];
    for _round in 0..7 {
        for (k, f) in fns.iter_mut().enumerate() {
            let t = Instant::now();
            for _ in 0..iters[k] {
                f();
            }
            samples[k].push(t.elapsed().as_nanos() as u64 / iters[k] as u64);
        }
    }
    samples
        .into_iter()
        .map(|mut s| {
            s.sort_unstable();
            s[s.len() / 2]
        })
        .collect()
}

/// The seven whole-query shapes benchmarked below (and mirrored by
/// `tests/backend_differential.rs`). The last is provably empty (the
/// analyzer's constant-empty short-circuit rides the same corpus).
const BENCH_QUERIES: &[&str] = &[
    "//a//c",
    "//a//b//c//d",
    "//b[following::c]",
    "//c[preceding::a]/descendant::d",
    "//*[not(ancestor::b)]",
    "//a[descendant::d]/following::b",
    "//text()/child::*",
];

/// The seed's per-node hot path: `axis_from` per source node, then one
/// global sort+dedup.
fn per_node_loop(doc: &Document, axis: Axis, set: &[NodeId]) -> Vec<NodeId> {
    let mut out = Vec::new();
    let mut buf = Vec::new();
    for &x in set {
        xpath_axes::axis_from_into(doc, axis, x, &mut buf);
        out.extend_from_slice(&buf);
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// One axis_application cell: all three engines timed on the same input,
/// plus the materialization the kernel took.
struct AxisCell {
    axis: &'static str,
    density: f64,
    input_len: usize,
    per_node_ns: u64,
    direct_ns: u64,
    kernel_ns: u64,
    kernel: &'static str,
}

impl AxisCell {
    fn speedup_vs_per_node(&self) -> f64 {
        self.per_node_ns as f64 / self.kernel_ns.max(1) as f64
    }

    fn speedup_vs_best(&self) -> f64 {
        let best = self.per_node_ns.min(self.direct_ns);
        best as f64 / self.kernel_ns.max(1) as f64
    }
}

fn measure_axis_cells(doc: &Document) -> Vec<AxisCell> {
    let n = doc.len() as u32;
    let mut cells = Vec::new();
    for &density in &[0.004f64, 0.03125, 0.25] {
        let mut rng = Rng::seed_from_u64(42);
        let ids: Vec<NodeId> = (0..n).filter(|_| rng.random_bool(density)).map(NodeId).collect();
        let sparse = NodeSet::from_sorted(ids.clone());
        for axis in [
            Axis::Descendant,
            Axis::Following,
            Axis::Preceding,
            Axis::Ancestor,
            Axis::Child,
            Axis::FollowingSibling,
            Axis::PrecedingSibling,
        ] {
            // Equality sanity check before timing.
            let (out, kernel) = bulk::axis_set_traced(doc, axis, &sparse);
            assert_eq!(out.to_vec(), per_node_loop(doc, axis, &ids), "{axis:?} density {density}");
            let times = time_ns_interleaved(&mut [
                &mut || {
                    std::hint::black_box(per_node_loop(doc, axis, &ids));
                },
                &mut || {
                    std::hint::black_box(xpath_axes::eval_axis(doc, axis, &ids));
                },
                &mut || {
                    std::hint::black_box(bulk::axis_set(doc, axis, &sparse));
                },
            ]);
            cells.push(AxisCell {
                axis: axis.name(),
                density,
                input_len: ids.len(),
                per_node_ns: times[0],
                direct_ns: times[1],
                kernel_ns: times[2],
                kernel: kernel.name(),
            });
        }
    }
    cells
}

use xpath_bench::workloads::{batch_disjoint, batch_shared_prefix};
use xpath_xml::simd;

/// One `simd` cell: a word-sweep kernel's scalar reference and its
/// dispatched entry point timed interleaved over the same dense word
/// buffer. `vector_ns` is absent when the process tier is scalar (no AVX2,
/// or `GKP_NO_SIMD` pins it): the dispatched kernel is then the scalar
/// loop itself, and a ratio of 1.0 would read as a regression.
struct SimdCell {
    op: &'static str,
    words: usize,
    scalar_ns: u64,
    vector_ns: Option<u64>,
}

impl SimdCell {
    fn ratio_vs_scalar(&self, tier_ns: u64) -> f64 {
        self.scalar_ns as f64 / tier_ns.max(1) as f64
    }
}

/// One timeable kernel shape: `(a, b, out) -> count`; unary ops ignore
/// `b`/`out`.
type KernelFn = fn(&[u64], &[u64], &mut [u64]) -> u64;

/// Time the four hot kernels — union / intersect / difference sweeps and
/// popcount — scalar against dispatched on a dense buffer sized like the
/// bench document's bitset universe.
fn measure_simd_cells() -> Vec<SimdCell> {
    const WORDS: usize = 4096;
    let mut rng = Rng::seed_from_u64(0xC0FFEE);
    let a: Vec<u64> = (0..WORDS).map(|_| rng.next_u64()).collect();
    let b: Vec<u64> = (0..WORDS).map(|_| rng.next_u64()).collect();
    let vector = simd::active_tier() == simd::Tier::Vector;
    // The union row times the bare `dst |= src` sweep: `out` accumulates
    // across iterations (OR is idempotent — every iteration sweeps the
    // same words), so no per-iteration copy dilutes the tier ratio.
    let ops: &[(&'static str, KernelFn, KernelFn)] = &[
        (
            "union",
            |_a, b, out| simd::scalar::or_assign_count(out, b),
            |_a, b, out| simd::or_assign_count(out, b),
        ),
        (
            "intersect",
            |a, b, out| simd::scalar::and_into_count(a, b, out),
            |a, b, out| simd::and_into_count(a, b, out),
        ),
        (
            "difference",
            |a, b, out| simd::scalar::andnot_into_count(a, b, out),
            |a, b, out| simd::andnot_into_count(a, b, out),
        ),
        ("popcount", |a, _, _| simd::scalar::popcount(a), |a, _, _| simd::popcount(a)),
    ];
    let mut cells = Vec::new();
    for &(op, scalar, dispatched) in ops {
        // Both must agree before the timings mean anything.
        let (mut out_s, mut out_v) = (vec![0u64; WORDS], vec![0u64; WORDS]);
        assert_eq!(dispatched(&a, &b, &mut out_v), scalar(&a, &b, &mut out_s), "{op} diverges");
        let mut run_scalar = || {
            std::hint::black_box(scalar(&a, &b, &mut out_s));
        };
        let mut run_vector = || {
            std::hint::black_box(dispatched(&a, &b, &mut out_v));
        };
        let mut timed: Vec<&mut dyn FnMut()> = vec![&mut run_scalar];
        if vector {
            timed.push(&mut run_vector);
        }
        let times = time_ns_interleaved(&mut timed);
        cells.push(SimdCell {
            op,
            words: WORDS,
            scalar_ns: times[0],
            vector_ns: times.get(1).copied(),
        });
    }
    cells
}

/// One batch_eval measurement: the batch as one `QuerySet::evaluate_all`
/// vs N independent prepared evaluations.
struct BatchCell {
    workload: &'static str,
    queries: usize,
    independent_ns: u64,
    batched_ns: u64,
    mode: &'static str,
    memo_hits: u64,
    memo_misses: u64,
}

impl BatchCell {
    fn speedup(&self) -> f64 {
        self.independent_ns as f64 / self.batched_ns.max(1) as f64
    }
}

fn measure_batch(doc: &Document, workload: &'static str, texts: &[String]) -> BatchCell {
    let compiler = Compiler::new();
    let compiled: Vec<_> = texts.iter().map(|q| compiler.compile(q).unwrap()).collect();
    let set = xpath_core::QuerySetBuilder::with_compiler(compiler)
        .queries(texts.iter().cloned())
        .build()
        .unwrap();
    // Equality sanity check before timing: batched results must be
    // bit-identical to the independent evaluations.
    let out = set.evaluate_all(doc);
    for (q, (got, c)) in texts.iter().zip(out.results().iter().zip(&compiled)) {
        assert_eq!(
            got.as_ref().unwrap(),
            &c.evaluate_root(doc).unwrap(),
            "batched {q} diverges from independent evaluation"
        );
    }
    let stats = *out.stats();
    let times = time_ns_interleaved(&mut [
        &mut || {
            for c in &compiled {
                std::hint::black_box(c.evaluate_root(doc).unwrap());
            }
        },
        &mut || {
            std::hint::black_box(set.evaluate_all(doc));
        },
    ]);
    BatchCell {
        workload,
        queries: texts.len(),
        independent_ns: times[0],
        batched_ns: times[1],
        mode: stats.mode.name(),
        memo_hits: stats.memo_hits,
        memo_misses: stats.memo_misses,
    }
}

/// One strategy-choice cell: a `count()`-wrapped path under Auto, the
/// bare path on its fragment engine, and the wrapped query under forced
/// OptMinContext, timed interleaved after checking that Auto and
/// OptMinContext agree.
struct ChoiceCell {
    query: String,
    auto_strategy: Strategy,
    auto_ns: u64,
    bare_ns: u64,
    opt_min_context_ns: u64,
}

impl ChoiceCell {
    fn auto_vs_bare(&self) -> f64 {
        self.auto_ns as f64 / self.bare_ns.max(1) as f64
    }

    fn speedup_vs_opt_min_context(&self) -> f64 {
        self.opt_min_context_ns as f64 / self.auto_ns.max(1) as f64
    }
}

/// The serve workload's query path, then the bench shapes.
fn choice_paths() -> impl Iterator<Item = &'static str> {
    std::iter::once("//c").chain(BENCH_QUERIES.iter().copied())
}

fn measure_choice(doc: &Document, path: &str) -> ChoiceCell {
    let compiler = Compiler::new();
    let query = format!("count({path})");
    let auto = compiler.compile(&query).unwrap();
    let bare = compiler.compile(path).unwrap();
    let forced =
        compiler.clone().default_strategy(Strategy::OptMinContext).compile(&query).unwrap();
    let want = forced.evaluate_root(doc).unwrap();
    assert!(auto.evaluate_root(doc).unwrap().semantically_equal(&want), "{query}: Auto diverges");
    let times = time_ns_interleaved(&mut [
        &mut || {
            std::hint::black_box(auto.evaluate_root(doc).unwrap());
        },
        &mut || {
            std::hint::black_box(bare.evaluate_root(doc).unwrap());
        },
        &mut || {
            std::hint::black_box(forced.evaluate_root(doc).unwrap());
        },
    ]);
    ChoiceCell {
        query,
        auto_strategy: auto.strategy(),
        auto_ns: times[0],
        bare_ns: times[1],
        opt_min_context_ns: times[2],
    }
}

/// The node-test workloads on the 21,846-node document: a kind test
/// (`/descendant::*`), a name test (`/descendant::c`), the same name test
/// behind `//` (which the rewrite merges into one descendant step), and
/// `//b[c]`, whose predicate scans `T(c)` for `S←` on every evaluation.
const NODE_TEST_QUERIES: &[&str] = &["/descendant::*", "/descendant::c", "//c", "//b[c]"];

/// One node-test cell: a compiled query (or the bare `T(c)` scan) timed
/// interleaved with the others, and its result size.
struct NodeTestCell {
    query: &'static str,
    matches: usize,
    ns: u64,
}

/// The [`NODE_TEST_QUERIES`] cells in order, then the bare `T(c)` scan
/// (`node_test::matching_set`) that `//b[c]`'s `S←` runs.
fn measure_node_tests(doc: &Document) -> Vec<NodeTestCell> {
    let compiled: Vec<_> =
        NODE_TEST_QUERIES.iter().map(|q| Compiler::new().compile(q).unwrap()).collect();
    let answers: Vec<NodeSet> = compiled.iter().map(|c| c.select(doc).unwrap()).collect();
    assert_eq!(answers[1], answers[2], "//c and /descendant::c diverge");
    let c = xpath_syntax::NodeTest::Name("c".into());
    let t_c = xpath_core::node_test::matching_set(doc, Axis::Child, &c);
    assert_eq!(t_c, answers[1].to_vec(), "T(c) and /descendant::c diverge");
    let mut runs: Vec<Box<dyn FnMut() + '_>> = compiled
        .iter()
        .map(|q| {
            Box::new(move || {
                std::hint::black_box(q.select(doc).unwrap());
            }) as Box<dyn FnMut()>
        })
        .collect();
    runs.push(Box::new(|| {
        std::hint::black_box(xpath_core::node_test::matching_set(doc, Axis::Child, &c));
    }));
    let mut refs: Vec<&mut dyn FnMut()> = runs.iter_mut().map(|f| &mut **f as _).collect();
    let times = time_ns_interleaved(&mut refs);
    let labels = NODE_TEST_QUERIES.iter().copied().chain(std::iter::once("T(c)"));
    let sizes = answers.iter().map(NodeSet::len).chain(std::iter::once(t_c.len()));
    labels
        .zip(sizes)
        .zip(times)
        .map(|((query, matches), ns)| NodeTestCell { query, matches, ns })
        .collect()
}

/// The node-test guard's two ratios over [`measure_node_tests`] cells:
/// `/descendant::c` over `/descendant::*` (a name test costs about what a
/// kind test does) and `//c` over `/descendant::c` (`//` costs no more
/// than the merged step).
fn node_test_ratios(cells: &[NodeTestCell]) -> (f64, f64) {
    let ns = |i: usize| cells[i].ns.max(1) as f64;
    (ns(1) / ns(0), ns(2) / ns(1))
}

/// The positional rows: (document label, query, the bare path it is
/// measured against, guarded). On `doc_flat(10,000)` the closed-form
/// predicates must cost about what the bare path does; the filter
/// expression and the inner path are recorded only.
const POSITIONAL_ROWS: &[(&str, &str, &str, bool)] = &[
    ("flat", "/a/b[5000]", "/a/b", true),
    ("flat", "/a/b[last()]", "/a/b", true),
    ("flat", "/a/b[position() < 3]", "/a/b", true),
    ("flat", "(/a/b)[5000]", "/a/b", false),
    ("balanced", "//c[d[2]]", "//c", false),
];

/// One positional row: the query and its bare path, timed interleaved
/// under Auto.
struct PositionalCell {
    doc: &'static str,
    nodes: usize,
    query: &'static str,
    bare: &'static str,
    guarded: bool,
    matches: usize,
    ns: u64,
    bare_ns: u64,
}

impl PositionalCell {
    fn vs_bare(&self) -> f64 {
        self.ns as f64 / self.bare_ns.max(1) as f64
    }
}

fn measure_positional() -> Vec<PositionalCell> {
    let flat = xpath_xml::generate::doc_flat(10_000);
    let balanced = doc_balanced(4, 8, &["a", "b", "c", "d"]);
    let top_down = Compiler::new().default_strategy(Strategy::TopDown);
    POSITIONAL_ROWS
        .iter()
        .map(|&(label, query, bare, guarded)| {
            let doc = if label == "flat" { &flat } else { &balanced };
            let q = Compiler::new().compile(query).unwrap();
            let b = Compiler::new().compile(bare).unwrap();
            let answer = q.select(doc).unwrap();
            assert_eq!(answer, top_down.compile(query).unwrap().select(doc).unwrap(), "{query}");
            let times = time_ns_interleaved(&mut [
                &mut || {
                    std::hint::black_box(q.select(doc).unwrap());
                },
                &mut || {
                    std::hint::black_box(b.select(doc).unwrap());
                },
            ]);
            PositionalCell {
                doc: label,
                nodes: doc.len(),
                query,
                bare,
                guarded,
                matches: answer.len(),
                ns: times[0],
                bare_ns: times[1],
            }
        })
        .collect()
}

/// On shared CI runners a single noisy-neighbor spike can push a
/// sub-microsecond cell past the ratio bars, so `--check` re-measures a
/// failing guard from scratch; only violations that persist across every
/// attempt fail the job.
const CHECK_ATTEMPTS: u32 = 3;

/// One `--check` guard's measure-and-judge pass over the bench document
/// and the ≥10⁵-node one: it prints a line per measured row and returns
/// the bars it saw violated.
type GuardPass = fn(&Document, &Document) -> Vec<String>;

/// Every `--check` guard, in run order.
const GUARDS: &[(&str, GuardPass)] = &[
    ("simd", |_, _| simd_pass()),
    ("batch", |doc, _| batch_pass(doc)),
    ("early-exit", |_, big| early_exit_pass(big)),
    ("snapshot", |_, big| snapshot_pass(big)),
    ("strategy-choice", |doc, _| choice_pass(doc)),
    ("node-test", |doc, _| node_test_pass(doc)),
    ("positional", |_, _| positional_pass()),
    ("lazy-dispatch", |_, _| lazy_dispatch_pass()),
    ("prepared", |_, _| prepared_pass()),
    ("serve", |doc, _| check_serve(doc)),
    ("axis-kernel", |doc, _| axis_kernel_pass(doc)),
];

/// `--check`: run every guard in [`GUARDS`] through [`retry_guard`], and
/// fail with every violation that persists.
fn check(doc: &Document) -> Result<(), String> {
    let big = doc_balanced(4, 9, &["a", "b", "c", "d"]);
    let failures: Vec<String> = GUARDS
        .iter()
        .filter_map(|&(name, pass)| retry_guard(name, || pass(doc, &big)).err())
        .collect();
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

/// Run one guard's pass until it reports no violation, at most
/// [`CHECK_ATTEMPTS`] times; only violations that persist across every
/// attempt fail.
fn retry_guard(name: &str, mut pass: impl FnMut() -> Vec<String>) -> Result<(), String> {
    let mut failures = Vec::new();
    for attempt in 1..=CHECK_ATTEMPTS {
        failures = pass();
        if failures.is_empty() {
            return Ok(());
        }
        if attempt < CHECK_ATTEMPTS {
            eprintln!(
                "check: {name} attempt {attempt}/{CHECK_ATTEMPTS} under the bar; re-measuring"
            );
        }
    }
    Err(failures.join("\n"))
}

/// Kernel-tier guard: on AVX2 hardware the dispatched (vector) sweeps
/// must beat the scalar reference by ≥1.3x on the dense set ops. The real
/// margin is far larger (the `simd` rows of BENCH_axes.json); the low bar
/// only refuses a silently broken dispatch. Nothing to compare when the
/// tier is scalar (no AVX2, or pinned via GKP_NO_SIMD).
fn simd_pass() -> Vec<String> {
    if simd::active_tier() != simd::Tier::Vector {
        eprintln!("check: simd skipped: the kernel tier is scalar");
        return Vec::new();
    }
    let mut failures = Vec::new();
    for c in measure_simd_cells() {
        let Some(v) = c.vector_ns else { continue };
        if !matches!(c.op, "union" | "intersect" | "difference") {
            continue;
        }
        let ratio = c.ratio_vs_scalar(v);
        eprintln!(
            "check: simd {:<11} scalar {:>7}ns  vector {:>7}ns  {ratio:>5.2}x",
            c.op, c.scalar_ns, v
        );
        if ratio < 1.3 {
            failures.push(format!(
                "simd {}: vector {v}ns vs scalar {}ns ({ratio:.2}x < 1.3x)",
                c.op, c.scalar_ns
            ));
        }
    }
    failures
}

/// Batch guard: one shared-prefix `evaluate_all` must stay within 5% of
/// N independent evaluations (it should be well *faster* — the 0.95× bar
/// only refuses real regressions, absorbing runner noise).
fn batch_pass(doc: &Document) -> Vec<String> {
    let cell = measure_batch(doc, "shared_prefix", &batch_shared_prefix());
    let speedup = cell.speedup();
    eprintln!(
        "check: batch shared_prefix x{} mode {} memo {}h/{}m  batched {:>9}ns  \
         vs independent {speedup:>5.2}x",
        cell.queries, cell.mode, cell.memo_hits, cell.memo_misses, cell.batched_ns
    );
    if speedup >= 0.95 {
        return Vec::new();
    }
    vec![format!(
        "shared-prefix batch: batched {}ns vs independent {}ns ({speedup:.2}x < 0.95x)",
        cell.batched_ns, cell.independent_ns
    )]
}

/// Cursor guard: lazy `first()` on the ≥10⁵-node document must be ≥10×
/// faster than a full materializing evaluation for the predicate-free
/// streamable spines (the point of the cursor layer); the predicate
/// shape only has to win at all (≥2×: its `E1` set is one `T(c)` pass,
/// as in the full evaluation, before the first window can match).
fn early_exit_pass(big: &Document) -> Vec<String> {
    let mut failures = Vec::new();
    for c in measure_early_exit(big) {
        let speedup = c.speedup_first();
        let bar = if c.query.contains('[') { 2.0 } else { 10.0 };
        eprintln!(
            "check: early-exit {:<20} first {:>7}ns  exists {:>7}ns  \
             full {:>9}ns  {speedup:>7.1}x",
            c.query, c.first_ns, c.exists_ns, c.full_ns
        );
        if speedup < bar {
            failures.push(format!(
                "early-exit {}: first {}ns vs full {}ns ({speedup:.1}x < {bar}x)",
                c.query, c.first_ns, c.full_ns
            ));
        }
    }
    failures
}

/// Snapshot guard: an mmap load of the ≥1e5-node document must beat a
/// cold parse by ≥100× (the point of the O(header) open), the on-disk
/// size must stay within 2× of the in-memory arenas, and a node must cost
/// at most 25.2 bytes on disk (six `u32` columns and a kind byte, plus
/// the mask bit and the text; `firstchild` and `nextsibling` are derived,
/// not stored).
fn snapshot_pass(big: &Document) -> Vec<String> {
    let c = measure_snapshot(big);
    let speedup = c.speedup_load();
    eprintln!(
        "check: snapshot parse {:>10}ns  mmap load {:>8}ns  {speedup:>6.0}x  \
         {} bytes ({:.1}/node)",
        c.parse_ns,
        c.load_ns,
        c.snapshot_bytes,
        c.bytes_per_node()
    );
    let mut failures = Vec::new();
    if c.snapshot_bytes as f64 > 2.0 * c.resident_bytes as f64 {
        failures.push(format!(
            "snapshot: {} bytes on disk vs {} resident (> 2x)",
            c.snapshot_bytes, c.resident_bytes
        ));
    }
    if speedup < 100.0 {
        failures.push(format!(
            "snapshot: mmap load {}ns vs parse {}ns ({speedup:.0}x < 100x)",
            c.load_ns, c.parse_ns
        ));
    }
    if c.bytes_per_node() > 25.2 {
        failures.push(format!("snapshot: {:.1} bytes/node on disk (> 25.2)", c.bytes_per_node()));
    }
    failures
}

/// Strategy-choice guard: Auto on the served `count(//c)` must cost at
/// most 1.2x the bare `//c` on its fragment engine — the count is one
/// O(1) fold over the lifted path's node set, so anything more means Auto
/// stopped lifting.
fn choice_pass(doc: &Document) -> Vec<String> {
    let c = measure_choice(doc, "//c");
    let ratio = c.auto_vs_bare();
    eprintln!(
        "check: strategy choice {} via {:?} {:>9}ns  bare path {:>9}ns  ({ratio:.2}x)  \
         OptMinContext {:>9}ns",
        c.query, c.auto_strategy, c.auto_ns, c.bare_ns, c.opt_min_context_ns
    );
    if ratio <= 1.2 {
        return Vec::new();
    }
    vec![format!(
        "strategy choice {}: Auto ({:?}) {}ns vs bare path {}ns ({ratio:.2}x > 1.2x)",
        c.query, c.auto_strategy, c.auto_ns, c.bare_ns
    )]
}

/// Node-test guard: a name test must cost at most 2x a kind test over the
/// same descendant set (one resolved name-id compare per node, no string
/// lookup), and `//c` at most 1.3x `/descendant::c` (the rewrite merges
/// `//` on every compile).
fn node_test_pass(doc: &Document) -> Vec<String> {
    let cells = measure_node_tests(doc);
    for c in &cells {
        eprintln!("check: node test {:<16} {:>6} matches {:>9}ns", c.query, c.matches, c.ns);
    }
    let (name_vs_kind, slash_vs_merged) = node_test_ratios(&cells);
    eprintln!(
        "check: node test /descendant::c vs /descendant::* {name_vs_kind:.2}x, \
         //c vs /descendant::c {slash_vs_merged:.2}x"
    );
    if name_vs_kind <= 2.0 && slash_vs_merged <= 1.3 {
        return Vec::new();
    }
    vec![format!(
        "node tests: /descendant::c vs /descendant::* {name_vs_kind:.2}x (bar 2x), \
         //c vs /descendant::c {slash_vs_merged:.2}x (bar 1.3x)"
    )]
}

/// Positional guard: on `doc_flat(10,000)`, `/a/b[5000]`, `/a/b[last()]`
/// and `/a/b[position() < 3]` must each cost at most 2x the bare `/a/b`.
/// MinContext decides each predicate once for the 10,000-node candidate
/// list, so the step costs one child expansion; evaluated per candidate
/// they cost 15-21x.
fn positional_pass() -> Vec<String> {
    let mut failures = Vec::new();
    for c in measure_positional() {
        let ratio = c.vs_bare();
        eprintln!(
            "check: positional {:<22} {:<8} {:>6} matches {:>9}ns  bare {} {:>9}ns  ({ratio:.2}x)",
            c.query, c.doc, c.matches, c.ns, c.bare, c.bare_ns
        );
        if c.guarded && ratio > 2.0 {
            failures.push(format!(
                "positional {}: {}ns vs bare {} {}ns ({ratio:.2}x > 2x)",
                c.query, c.ns, c.bare, c.bare_ns
            ));
        }
    }
    failures
}

/// Lazy-dispatch guard: a take hint routes a query onto the window
/// pipeline, so lazy `first()` and a lazy take of |D|/8 nodes must each
/// run at ≥ 0.8× the speed of materializing, in every row, wide ones
/// included. The pipeline runs the same set-at-a-time passes per window,
/// so its worst case is a materialized pass plus a per-window overhead.
/// Drain ratios are recorded in `BENCH_axes.json`, not guarded: a
/// hint-less drain materializes, but a hinted take of nearly every node
/// (`xpq --limit N` with N near |D|) costs what a lazy drain does.
fn lazy_dispatch_pass() -> Vec<String> {
    let mut failures = Vec::new();
    for c in measure_lazy_dispatch() {
        let first = LazyDispatchCell::lazy_speedup(c.first_ns);
        let take = LazyDispatchCell::lazy_speedup(c.take_ns);
        eprintln!(
            "check: lazy dispatch {:<18} {:<8} {:>6} nodes  first lazy {:>9}ns  materialized \
             {:>9}ns  {first:>5.2}x  take({}) {take:>5.2}x",
            c.query, c.doc, c.nodes, c.first_ns[0], c.first_ns[1], c.take
        );
        for (pull, ratio) in [("first()", first), ("take(|D|/8)", take)] {
            if ratio < 0.8 {
                failures.push(format!(
                    "lazy dispatch {} @ {} {} nodes: lazy {pull} at {ratio:.2}x of \
                     materialized (< 0.8x)",
                    c.query, c.doc, c.nodes
                ));
            }
        }
    }
    failures
}

/// Prepared guard: on the small document, where the static phase weighs
/// most, a prepared query and a cached one must each be faster than
/// compiling per call — the point of the two-phase API.
fn prepared_pass() -> Vec<String> {
    let c = measure_prepared();
    eprintln!(
        "check: prepared {} adhoc {:>6}ns  prepared {:>6}ns ({:.2}x)  cached {:>6}ns ({:.2}x)",
        c.query,
        c.adhoc_ns,
        c.prepared_ns,
        c.speedup(c.prepared_ns),
        c.cached_ns,
        c.speedup(c.cached_ns)
    );
    [("prepared", c.prepared_ns), ("cached", c.cached_ns)]
        .into_iter()
        .filter(|&(_, ns)| ns >= c.adhoc_ns)
        .map(|(name, ns)| {
            format!("prepared_vs_adhoc: {name} {ns}ns is not faster than adhoc {}ns", c.adhoc_ns)
        })
        .collect()
}

/// Axis-kernel guard: fails when the axis kernel is more than 10% slower
/// than the seed's per-node loop in any axis-application cell, or 20%
/// slower than the best of the measured alternatives (the looser bound
/// absorbs scheduler noise on cells where both sides run near-identical
/// work seconds apart).
fn axis_kernel_pass(doc: &Document) -> Vec<String> {
    let mut failures = Vec::new();
    for c in measure_axis_cells(doc) {
        let vs_per_node = c.speedup_vs_per_node();
        let vs_best = c.speedup_vs_best();
        eprintln!(
            "check: {:<10} density {:<8} kernel {:<12} {:>9}ns  \
             vs per-node {vs_per_node:>8.2}x  vs best {vs_best:>5.2}x",
            c.axis, c.density, c.kernel, c.kernel_ns
        );
        if vs_per_node < 0.9 {
            failures.push(format!(
                "{} @ density {}: kernel {}ns vs per-node {}ns ({vs_per_node:.2}x < 0.9x)",
                c.axis, c.density, c.kernel_ns, c.per_node_ns
            ));
        }
        if vs_best < 0.8 {
            failures.push(format!(
                "{} @ density {}: kernel {}ns vs best alternative ({:.2}x < 0.8x)",
                c.axis, c.density, c.kernel_ns, vs_best
            ));
        }
    }
    failures
}

/// Early-exit workloads on the ≥10⁵-node document: two predicate-free
/// streamable spines that ride the lazy cursor end to end, plus
/// `//b[following::c]`, whose predicate is one intersection per window
/// with its document-global `E1` set.
const EARLY_EXIT_QUERIES: &[&str] = &["//a//c", "//a//b//c//d", "//b[following::c]"];

/// One early-exit cell: lazy `first()`/`exists()` against a full
/// materializing evaluation of the same compiled query. Answers are
/// cross-checked before anything is timed.
struct EarlyExitCell {
    query: &'static str,
    matches: usize,
    first_ns: u64,
    exists_ns: u64,
    full_ns: u64,
}

impl EarlyExitCell {
    fn speedup_first(&self) -> f64 {
        self.full_ns as f64 / self.first_ns.max(1) as f64
    }
}

fn measure_early_exit(big: &Document) -> Vec<EarlyExitCell> {
    let compiler = Compiler::new();
    EARLY_EXIT_QUERIES
        .iter()
        .map(|&q| {
            let c = compiler.compile(q).unwrap();
            let full = c.select(big).unwrap();
            assert_eq!(c.first(big).unwrap(), full.first(), "{q}: first() vs full evaluation");
            assert_eq!(c.exists(big).unwrap(), !full.is_empty(), "{q}: exists() vs full");
            let times = time_ns_interleaved(&mut [
                &mut || {
                    std::hint::black_box(c.first(big).unwrap());
                },
                &mut || {
                    std::hint::black_box(c.exists(big).unwrap());
                },
                &mut || {
                    std::hint::black_box(c.select(big).unwrap());
                },
            ]);
            EarlyExitCell {
                query: q,
                matches: full.len(),
                first_ns: times[0],
                exists_ns: times[1],
                full_ns: times[2],
            }
        })
        .collect()
}

/// The lazy-dispatch rows on `doc_balanced(4, d)` for these depths
/// (1,366 / 5,462 / 21,846 / 87,382 / 349,526 nodes): a predicate-free
/// spine, a predicate read from its document-global `E1` set
/// (`following`), two window-local predicates (`child`; `//b[c]/d` is
/// empty, so every window is evaluated) and two upward predicates, which
/// read their `E1` sets too (`parent`, `ancestor`).
const LAZY_DISPATCH_QUERIES: &[&str] =
    &["//a//c", "//b[following::c]", "//c[d]", "//b[c]/d", "//c[parent::b]", "//d[ancestor::b]"];
const LAZY_DISPATCH_DEPTHS: [usize; 5] = [5, 6, 7, 8, 9];
/// The wide rows: upward predicates on `doc_flat_text(n)`, one element
/// with `n` children (21,846 / 87,382 nodes), where every window shares
/// the same parent and ancestors.
const LAZY_DISPATCH_WIDE_QUERIES: &[&str] = &["//b[parent::a]", "//b[ancestor::a]", "//b[../b]"];
const LAZY_DISPATCH_WIDTHS: [usize; 2] = [10_922, 43_690];

/// One lazy-dispatch row: `first()`, a take of |D|/8 nodes and the full
/// drain, each on the lazy pipeline (`[0]`) and materialized (`[1]`).
struct LazyDispatchCell {
    query: &'static str,
    /// `balanced` or `wide`.
    doc: &'static str,
    nodes: usize,
    take: usize,
    first_ns: [u64; 2],
    take_ns: [u64; 2],
    drain_ns: [u64; 2],
}

impl LazyDispatchCell {
    /// Materialized over lazy time for one pull size: above 1.0 the lazy
    /// pipeline wins.
    fn lazy_speedup(ns: [u64; 2]) -> f64 {
        ns[1] as f64 / ns[0].max(1) as f64
    }
}

/// A cursor on the lazy pipeline (take hint 1) or materializing (no
/// hint), pulled for up to `k` nodes; `usize::MAX` drains it.
fn pull(q: &CompiledQuery, doc: &Document, lazy: bool, k: usize) -> NodeSet {
    let hint = lazy.then_some(1);
    let mut cursor =
        q.select_lazy_with(doc, Context::of(doc.root()), EvalBudget::unlimited(), hint);
    assert_eq!(cursor.is_lazy(), lazy, "the take hint picks the route");
    if k == usize::MAX {
        return cursor.collect_set().unwrap();
    }
    let mut out = NodeSet::new();
    cursor.next_block(&mut out, k).unwrap();
    out
}

fn measure_lazy_dispatch() -> Vec<LazyDispatchCell> {
    let balanced = LAZY_DISPATCH_DEPTHS.map(|depth| {
        ("balanced", doc_balanced(4, depth, &["a", "b", "c", "d"]), LAZY_DISPATCH_QUERIES)
    });
    let wide = LAZY_DISPATCH_WIDTHS.map(|n| ("wide", doc_flat_text(n), LAZY_DISPATCH_WIDE_QUERIES));
    let mut cells = Vec::new();
    for (shape, doc, queries) in balanced.into_iter().chain(wide) {
        let take = doc.len() / 8;
        for &query in queries {
            let q = Compiler::new().compile(query).unwrap();
            let mut ns = [[0u64; 2]; 3];
            for (row, k) in [1, take, usize::MAX].into_iter().enumerate() {
                assert_eq!(pull(&q, &doc, true, k), pull(&q, &doc, false, k), "{query} take {k}");
                let times = time_ns_interleaved(&mut [
                    &mut || {
                        std::hint::black_box(pull(&q, &doc, true, k));
                    },
                    &mut || {
                        std::hint::black_box(pull(&q, &doc, false, k));
                    },
                ]);
                ns[row] = [times[0], times[1]];
            }
            cells.push(LazyDispatchCell {
                query,
                doc: shape,
                nodes: doc.len(),
                take,
                first_ns: ns[0],
                take_ns: ns[1],
                drain_ns: ns[2],
            });
        }
    }
    cells
}

/// One snapshot cell: a cold parse of the document's XML text against an
/// mmap snapshot load of the same document (`xpath_xml::snap`). The
/// loaded document is cross-checked against the parsed one on a bench
/// query before anything is timed.
struct SnapshotCell {
    nodes: usize,
    xml_bytes: usize,
    snapshot_bytes: u64,
    resident_bytes: usize,
    parse_ns: u64,
    load_ns: u64,
}

impl SnapshotCell {
    fn speedup_load(&self) -> f64 {
        self.parse_ns as f64 / self.load_ns.max(1) as f64
    }
    fn bytes_per_node(&self) -> f64 {
        self.snapshot_bytes as f64 / self.nodes.max(1) as f64
    }
}

fn measure_snapshot(big: &Document) -> SnapshotCell {
    use xpath_xml::snap;
    let xml = big.serialize(big.root());
    let path = xpath_xml::temp::TempPath::new("bench_snapshot.gksnap");
    let info = snap::write(big, &path).expect("snapshot write");
    // Correctness gate: the mapped document must answer a bench query
    // identically to a freshly parsed one.
    {
        let parsed = Document::parse_str(&xml).expect("reparse of serialized bench doc");
        let loaded = snap::load(&path).expect("snapshot load");
        let c = compile(&xpath_syntax::parse_normalized(BENCH_QUERIES[0]).unwrap()).unwrap();
        let ev_parsed = CoreXPathEvaluator::new(&parsed);
        let ev_loaded = CoreXPathEvaluator::new(&loaded);
        let unlimited = EvalBudget::unlimited();
        assert_eq!(
            ev_parsed.evaluate(&c, &[parsed.root()], &unlimited).unwrap(),
            ev_loaded.evaluate(&c, &[loaded.root()], &unlimited).unwrap(),
            "snapshot load diverges from parse on {}",
            BENCH_QUERIES[0]
        );
    }
    let times = time_ns_interleaved(&mut [
        &mut || {
            std::hint::black_box(Document::parse_str(&xml).expect("reparse"));
        },
        &mut || {
            std::hint::black_box(snap::load(&path).expect("snapshot load"));
        },
    ]);
    SnapshotCell {
        nodes: big.len(),
        xml_bytes: xml.len(),
        snapshot_bytes: info.file_bytes,
        resident_bytes: big.resident_bytes(),
        parse_ns: times[0],
        load_ns: times[1],
    }
}

/// compile+evaluate per call vs a prepared `CompiledQuery` vs a
/// `QueryCache` lookup, timed interleaved on the small bookstore
/// document, where the static phase is comparable to the runtime phase.
struct PreparedCell {
    query: &'static str,
    adhoc_ns: u64,
    prepared_ns: u64,
    cached_ns: u64,
}

impl PreparedCell {
    fn speedup(&self, ns: u64) -> f64 {
        self.adhoc_ns as f64 / ns.max(1) as f64
    }
}

fn measure_prepared() -> PreparedCell {
    let small = xpath_xml::generate::doc_bookstore();
    let compiler = Compiler::new();
    let query = "//book[author]/title";
    let prepared = compiler.compile(query).unwrap();
    let cache = QueryCache::new(64);
    let times = time_ns_interleaved(&mut [
        &mut || {
            let c = compiler.compile(query).unwrap();
            std::hint::black_box(c.evaluate_root(&small).unwrap());
        },
        &mut || {
            std::hint::black_box(prepared.evaluate_root(&small).unwrap());
        },
        &mut || {
            let c = cache.get_or_compile(&compiler, query).unwrap();
            std::hint::black_box(c.evaluate_root(&small).unwrap());
        },
    ]);
    PreparedCell { query, adhoc_ns: times[0], prepared_ns: times[1], cached_ns: times[2] }
}

/// The request lines the `serve` section drives closed-loop. The batch
/// workload sends four queries per request so the per-request cost is
/// dominated by evaluation, exposing per-line framing overhead by
/// contrast with `single`.
const SERVE_WORKLOADS: &[(&str, &str)] = &[
    ("single", r#"{"doc":"bench","query":"count(//c)"}"#),
    (
        "batch4",
        r#"{"doc":"bench","queries":["count(//a)","count(//b)","count(//c)","count(//d)"]}"#,
    ),
];

/// Closed-loop clients of the `serve` section.
const SERVE_CLIENTS: usize = 4;
/// Measured requests per client, and the single-client overhead samples.
const SERVE_REQUESTS: usize = 200;

/// The `serve` section: each workload under [`SERVE_CLIENTS`] closed-loop
/// clients, then the single-client round trip vs a direct in-process
/// evaluation, both sides sampled interleaved.
fn measure_serve(doc: &Document) -> Json {
    let threads_available = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let bench = BenchServer::start(doc, SERVE_CLIENTS);
    let mut workload_rows = Vec::new();
    for (name, request) in SERVE_WORKLOADS {
        let load = closed_loop(&bench.sock, SERVE_CLIENTS, SERVE_REQUESTS, request);
        eprintln!(
            "serve {name:<7} {} clients  {} req  {:>8.1} qps  p50 {}us  p95 {}us  p99 {}us",
            load.clients, load.requests, load.qps, load.p50_us, load.p95_us, load.p99_us
        );
        workload_rows.push(Json::obj(vec![
            ("workload", Json::Str((*name).to_owned())),
            ("clients", count(load.clients)),
            ("requests", Json::num(load.requests)),
            ("elapsed_ns", Json::num(load.elapsed_ns)),
            ("qps", ratio(load.qps, 1)),
            ("mean_us", Json::num(load.mean_us)),
            ("p50_us", Json::num(load.p50_us)),
            ("p95_us", Json::num(load.p95_us)),
            ("p99_us", Json::num(load.p99_us)),
            ("max_us", Json::num(load.max_us)),
        ]));
    }
    let ServeOverhead { direct_ns, roundtrip_ns, samples } =
        measure_overhead(&bench.sock, doc, SERVE_REQUESTS);
    let overhead = roundtrip_ns as f64 / direct_ns.max(1) as f64;
    eprintln!(
        "serve overhead: roundtrip p50 {roundtrip_ns}ns vs direct p50 {direct_ns}ns \
         ({overhead:.2}x, {samples} interleaved samples each)"
    );
    bench.shutdown();
    Json::obj(vec![
        ("doc", Json::Str("balanced 4-ary, depth 7".to_owned())),
        ("nodes", count(doc.len())),
        ("threads_available", count(threads_available)),
        ("transport", Json::Str("unix socket, line-delimited JSON".to_owned())),
        ("workloads", Json::Arr(workload_rows)),
        ("direct_eval_ns", Json::num(direct_ns)),
        ("roundtrip_p50_ns", Json::num(roundtrip_ns)),
        ("overhead_samples", count(samples)),
        ("overhead_ratio", ratio(overhead, 2)),
    ])
}

/// A ratio rounded to `places` decimals.
fn ratio(x: f64, places: i32) -> Json {
    let scale = 10f64.powi(places);
    Json::Num((x * scale).round() / scale)
}

/// A size or count.
fn count(n: usize) -> Json {
    Json::num(n as u64)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // A balanced 4-ary tree of depth 7: 21845 elements (≥10k nodes),
    // labels cycling a→b→c→d by level.
    let doc = doc_balanced(4, 7, &["a", "b", "c", "d"]);
    let n = doc.len() as u32;

    if args.iter().any(|a| a == "--check") {
        match check(&doc) {
            Ok(()) => {
                let names: Vec<&str> = GUARDS.iter().map(|&(name, _)| name).collect();
                eprintln!("check: every guard met its bars: {}", names.join(", "));
                return;
            }
            Err(failures) => {
                eprintln!("check FAILED:\n{failures}");
                std::process::exit(1);
            }
        }
    }
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_axes.json".to_string());

    let mut report = vec![
        ("bench", Json::Str("axes".to_owned())),
        (
            "doc",
            Json::obj(vec![
                ("shape", Json::Str("balanced 4-ary, depth 7".to_owned())),
                ("nodes", Json::num(n.into())),
            ]),
        ),
    ];

    // ---- axis application across densities ----
    let rows = measure_axis_cells(&doc).into_iter().map(|c| {
        Json::obj(vec![
            ("axis", Json::Str(c.axis.to_owned())),
            ("density", Json::Num(c.density)),
            ("input_len", count(c.input_len)),
            ("kernel", Json::Str(c.kernel.to_owned())),
            ("per_node_loop_ns", Json::num(c.per_node_ns)),
            ("direct_set_ns", Json::num(c.direct_ns)),
            ("kernel_ns", Json::num(c.kernel_ns)),
            ("speedup_kernel_vs_per_node", ratio(c.speedup_vs_per_node(), 2)),
            ("speedup_kernel_vs_best", ratio(c.speedup_vs_best(), 2)),
        ])
    });
    report.push(("axis_application", Json::Arr(rows.collect())));

    // ---- word-sweep kernels: scalar reference vs the dispatched tier ----
    let kernels = measure_simd_cells().into_iter().map(|c| {
        let mut row = vec![
            ("op", Json::Str(c.op.to_owned())),
            ("words", count(c.words)),
            ("scalar_ns", Json::num(c.scalar_ns)),
        ];
        if let Some(v) = c.vector_ns {
            row.push(("vector_ns", Json::num(v)));
            row.push(("speedup_vector_vs_scalar", ratio(c.ratio_vs_scalar(v), 2)));
        }
        Json::obj(row)
    });
    report.push((
        "simd",
        Json::obj(vec![
            ("active_tier", Json::Str(simd::active_tier().name().to_owned())),
            ("vector_available", Json::Bool(simd::vector_available())),
            ("kernels", Json::Arr(kernels.collect())),
        ]),
    ));

    // ---- representation micro-bench: set ops across densities ----
    let mut rows = Vec::new();
    for &density in &[0.01f64, 0.1, 0.5] {
        let mut rng = Rng::seed_from_u64(7);
        let a_ids: Vec<NodeId> = (0..n).filter(|_| rng.random_bool(density)).map(NodeId).collect();
        let b_ids: Vec<NodeId> = (0..n).filter(|_| rng.random_bool(density)).map(NodeId).collect();
        let av = NodeSet::from_sorted(a_ids);
        let bv = NodeSet::from_sorted(b_ids);
        let ad = av.clone().densify(n);
        let bd = bv.clone().densify(n);
        for op in ["union", "intersect", "difference"] {
            let run = |x: &NodeSet, y: &NodeSet| match op {
                "union" => x.union(y),
                "intersect" => x.intersect(y),
                _ => x.difference(y),
            };
            assert_eq!(run(&av, &bv), run(&ad, &bd), "{op} density {density}");
            let times = time_ns_interleaved(&mut [
                &mut || {
                    std::hint::black_box(run(&av, &bv));
                },
                &mut || {
                    std::hint::black_box(run(&ad, &bd));
                },
            ]);
            let (t_vec, t_bits) = (times[0], times[1]);
            rows.push(Json::obj(vec![
                ("op", Json::Str(op.to_owned())),
                ("density", Json::Num(density)),
                ("len", count(av.len())),
                ("sorted_vec_ns", Json::num(t_vec)),
                ("bitset_ns", Json::num(t_bits)),
                ("speedup_bitset", ratio(t_vec as f64 / t_bits.max(1) as f64, 2)),
            ]));
        }
    }
    report.push(("set_ops", Json::Arr(rows)));

    // ---- whole queries: descendant/following-heavy Core XPath on the
    // kernel vs the paper's TopDown evaluator ----
    let kernel_ev = CoreXPathEvaluator::new(&doc);
    let unlimited = EvalBudget::unlimited();
    let top_down = Compiler::new().default_strategy(Strategy::TopDown);
    let mut rows = Vec::new();
    for &q in BENCH_QUERIES {
        let e = Compiler::new().parse(q).unwrap();
        let c = compile(&e).unwrap();
        let reference = top_down.compile(q).unwrap();
        let root = [doc.root()];
        let want = reference.evaluate_root(&doc).unwrap();
        let got = kernel_ev.evaluate(&c, &root, &unlimited).unwrap();
        assert_eq!(xpath_core::Value::NodeSet(got), want, "{q}");
        let times = time_ns_interleaved(&mut [
            &mut || {
                std::hint::black_box(reference.evaluate_root(&doc).unwrap());
            },
            &mut || {
                std::hint::black_box(kernel_ev.evaluate(&c, &root, &unlimited).unwrap());
            },
        ]);
        let (t_top_down, t_kernel) = (times[0], times[1]);
        rows.push(Json::obj(vec![
            ("query", Json::Str(q.to_owned())),
            ("topdown_ns", Json::num(t_top_down)),
            ("kernel_ns", Json::num(t_kernel)),
            ("speedup_kernel_vs_topdown", ratio(t_top_down as f64 / t_kernel.max(1) as f64, 2)),
        ]));
    }
    report.push(("queries", Json::Arr(rows)));

    // The ≥1e5-node document of the early-exit and snapshot sections.
    let big = doc_balanced(4, 9, &["a", "b", "c", "d"]);

    // ---- batched multi-query evaluation: one QuerySet pass vs N
    // independent evaluations (the speedup is memo sharing) ----
    let threads_available = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let rows: Vec<Json> = [
        measure_batch(&doc, "shared_prefix", &batch_shared_prefix()),
        measure_batch(&doc, "disjoint", &batch_disjoint()),
    ]
    .iter()
    .map(|c| {
        Json::obj(vec![
            ("workload", Json::Str(c.workload.to_owned())),
            ("queries", count(c.queries)),
            ("nodes", Json::num(n.into())),
            ("threads_available", count(threads_available)),
            ("mode", Json::Str(c.mode.to_owned())),
            ("memo_hits", Json::num(c.memo_hits)),
            ("memo_misses", Json::num(c.memo_misses)),
            ("independent_ns", Json::num(c.independent_ns)),
            ("batched_ns", Json::num(c.batched_ns)),
            ("speedup_batched", ratio(c.speedup(), 2)),
        ])
    })
    .collect();
    report.push(("batch_eval", Json::Arr(rows)));

    // ---- strategy choice: Auto vs the bare path on its fragment engine vs
    // forced OptMinContext, on count()-wrapped paths ----
    let rows = choice_paths().map(|path| {
        let c = measure_choice(&doc, path);
        Json::obj(vec![
            ("query", Json::Str(c.query.clone())),
            ("bare_path", Json::Str(path.to_owned())),
            ("nodes", Json::num(n.into())),
            ("auto_strategy", Json::Str(format!("{:?}", c.auto_strategy))),
            ("auto_ns", Json::num(c.auto_ns)),
            ("bare_path_ns", Json::num(c.bare_ns)),
            ("opt_min_context_ns", Json::num(c.opt_min_context_ns)),
            ("auto_vs_bare_path", ratio(c.auto_vs_bare(), 2)),
            ("speedup_auto_vs_opt_min_context", ratio(c.speedup_vs_opt_min_context(), 2)),
        ])
    });
    report.push(("strategy_choice", Json::Arr(rows.collect())));

    // ---- node tests: kind vs name test vs `//` over one descendant set,
    // plus the `T(c)` scan a predicate's `S←` runs ----
    let cells = measure_node_tests(&doc);
    let star = cells[0].ns.max(1) as f64;
    let rows = cells.iter().map(|c| {
        Json::obj(vec![
            ("query", Json::Str(c.query.to_owned())),
            ("nodes", Json::num(n.into())),
            ("matches", count(c.matches)),
            ("ns", Json::num(c.ns)),
            ("vs_descendant_star", ratio(c.ns as f64 / star, 2)),
        ])
    });
    report.push(("node_tests", Json::Arr(rows.collect())));

    // ---- positional predicates: closed-form position tests against the
    // bare path ----
    let rows = measure_positional().into_iter().map(|c| {
        Json::obj(vec![
            ("query", Json::Str(c.query.to_owned())),
            ("doc", Json::Str(c.doc.to_owned())),
            ("nodes", count(c.nodes)),
            ("matches", count(c.matches)),
            ("ns", Json::num(c.ns)),
            ("bare_path", Json::Str(c.bare.to_owned())),
            ("bare_path_ns", Json::num(c.bare_ns)),
            ("vs_bare_path", ratio(c.vs_bare(), 2)),
            ("guarded", Json::Bool(c.guarded)),
        ])
    });
    report.push(("positional", Json::Arr(rows.collect())));

    // ---- early-exit: lazy cursor first()/exists() vs full evaluation on
    // the ≥1e5-node document ----
    let rows = measure_early_exit(&big).into_iter().map(|c| {
        Json::obj(vec![
            ("query", Json::Str(c.query.to_owned())),
            ("nodes", count(big.len())),
            ("matches", count(c.matches)),
            ("first_ns", Json::num(c.first_ns)),
            ("exists_ns", Json::num(c.exists_ns)),
            ("full_eval_ns", Json::num(c.full_ns)),
            ("speedup_first_vs_full", ratio(c.speedup_first(), 2)),
        ])
    });
    report.push(("early_exit", Json::Arr(rows.collect())));

    // ---- lazy dispatch: first(), take(|D|/8) and the full drain on the
    // lazy pipeline vs materialized, across document sizes ----
    let rows = measure_lazy_dispatch().into_iter().map(|c| {
        Json::obj(vec![
            ("query", Json::Str(c.query.to_owned())),
            ("doc", Json::Str(c.doc.to_owned())),
            ("nodes", count(c.nodes)),
            ("take", count(c.take)),
            ("first_lazy_ns", Json::num(c.first_ns[0])),
            ("first_materialized_ns", Json::num(c.first_ns[1])),
            ("take_lazy_ns", Json::num(c.take_ns[0])),
            ("take_materialized_ns", Json::num(c.take_ns[1])),
            ("drain_lazy_ns", Json::num(c.drain_ns[0])),
            ("drain_materialized_ns", Json::num(c.drain_ns[1])),
            ("lazy_speedup_first", ratio(LazyDispatchCell::lazy_speedup(c.first_ns), 2)),
            ("lazy_speedup_take", ratio(LazyDispatchCell::lazy_speedup(c.take_ns), 2)),
            ("lazy_speedup_drain", ratio(LazyDispatchCell::lazy_speedup(c.drain_ns), 2)),
        ])
    });
    report.push(("lazy_dispatch", Json::Arr(rows.collect())));

    // ---- snapshot: cold XML parse vs mmap'd snapshot load of the
    // ≥1e5-node document (`xpath_xml::snap`) ----
    let c = measure_snapshot(&big);
    report.push((
        "snapshot",
        Json::obj(vec![
            ("nodes", count(c.nodes)),
            ("xml_bytes", count(c.xml_bytes)),
            ("snapshot_bytes", Json::num(c.snapshot_bytes)),
            ("resident_bytes", count(c.resident_bytes)),
            ("bytes_per_node", ratio(c.bytes_per_node(), 1)),
            ("parse_ns", Json::num(c.parse_ns)),
            ("mmap_load_ns", Json::num(c.load_ns)),
            ("speedup_load_vs_parse", ratio(c.speedup_load(), 1)),
        ]),
    ));

    // ---- prepared_vs_adhoc: compile per call vs prepared vs cached on
    // the small bookstore document ----
    let c = measure_prepared();
    report.push((
        "prepared_vs_adhoc",
        Json::obj(vec![
            ("query", Json::Str(c.query.to_owned())),
            ("adhoc_ns", Json::num(c.adhoc_ns)),
            ("prepared_ns", Json::num(c.prepared_ns)),
            ("cached_ns", Json::num(c.cached_ns)),
            ("prepared_speedup", ratio(c.speedup(c.prepared_ns), 2)),
            ("cached_speedup", ratio(c.speedup(c.cached_ns), 2)),
        ]),
    ));

    // ---- serve: closed-loop load and the protocol's round-trip tax ----
    report.push(("serve", measure_serve(&doc)));

    let json = Json::obj(report).render_pretty() + "\n";
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    print!("{json}");
    eprintln!("wrote {out_path}");
}
