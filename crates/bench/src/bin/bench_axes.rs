//! `bench_axes` — machine-readable micro-benchmark of the axis engine and
//! node-set representations, written to `BENCH_axes.json`.
//!
//! Tracks the perf trajectory of the hybrid-`NodeSet` / bulk-axis work:
//!
//! * **axis_application** — the one axis kernel (`bulk::axis_set`) vs the
//!   per-node `axis_from` loop (the seed's hot path) and the per-node set
//!   algorithms (`fast::eval_axis`), across input densities, on a
//!   ≥10k-node document. Every row carries the materialization the
//!   kernel took (`kernel`) so each cell is attributable;
//! * **set_ops** — union/intersect/difference on the dense-bitset vs the
//!   sorted-vec representation across densities;
//! * **queries** — whole-query Core XPath evaluation on the kernel vs the
//!   paper's TopDown evaluator, on each query as the compiler rewrites it;
//! * **batch_eval** — the batched multi-query layer (`xpath_core::batch`):
//!   a 16-query shared-prefix batch and a disjoint batch, each as one
//!   `QuerySet::evaluate_all` (single-thread, batch memo sharing) vs
//!   N independent `CompiledQuery` evaluations, with the mode taken and
//!   the memo hit counts recorded;
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
//! * **early_exit** — the lazy cursor layer (`xpath_core::cursor`):
//!   `first()`/`exists()` (stop at the first witness) vs a full
//!   materializing evaluation of the same compiled query on the
//!   ≥10⁵-node document, including the `//b[following::c]` shape whose
//!   per-candidate predicate check short-circuits on the first witness;
//! * **snapshot** — the zero-copy document store (`xpath_xml::snap`): a
//!   cold parse of the ≥10⁵-node document's XML text vs an mmap'd
//!   snapshot load of the same document (O(header) open, arenas mapped
//!   in place), with on-disk size and bytes/node recorded;
//! * **prepared_vs_adhoc** — the existing compile-once guard: a prepared
//!   `CompiledQuery` must stay faster than compile+evaluate per call.
//!
//! Usage:
//!   `cargo run --release -p xpath-bench --bin bench_axes [-- out.json]`
//!   `… --check`      exit non-zero if the axis kernel loses ≥10% to the
//!                    per-node loop, or ≥20% to the best alternative, in
//!                    any axis-application cell (the CI kernel guard),
//!                    if the batched shared-prefix workload drops below
//!                    0.95× N independent evaluations (the batch guard),
//!                    or if lazy `first()` on the ≥10⁵-node document is
//!                    not ≥10× faster than a full evaluation for a
//!                    predicate-free streamable spine (the cursor guard),
//!                    or if an mmap snapshot load is not ≥100× faster
//!                    than a cold parse / the snapshot file exceeds 2×
//!                    the in-memory arena size (the snapshot guard), or
//!                    if Auto on `count(//c)` is slower than 1.2× the bare
//!                    `//c` on its fragment engine (the strategy-choice
//!                    guard), or if `/descendant::c` costs more than 2×
//!                    `/descendant::*` or `//c` more than 1.3×
//!                    `/descendant::c` (the node-test guard).
//!                    The timing baseline is pinned to a 1-thread budget,
//!                    so CI core counts can't flake the guard

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use xpath_axes::bulk;
use xpath_core::corexpath::{compile, CoreXPathEvaluator};
use xpath_core::{Compiler, Strategy};
use xpath_syntax::Axis;
use xpath_xml::generate::doc_balanced;

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

/// Median-of-runs wall time for one invocation of `f`, in nanoseconds.
fn time_ns(mut f: impl FnMut()) -> u64 {
    // Calibrate the iteration count to ~2ms per sample.
    let t = Instant::now();
    f();
    let once = t.elapsed().max(Duration::from_nanos(50));
    let iters = (Duration::from_millis(2).as_nanos() / once.as_nanos()).clamp(1, 10_000) as u32;
    let mut samples = Vec::with_capacity(7);
    for _ in 0..7 {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        samples.push(t.elapsed().as_nanos() as u64 / iters as u64);
    }
    samples.sort_unstable();
    samples[samples.len() / 2]
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
        for axis in
            [Axis::Descendant, Axis::Following, Axis::Preceding, Axis::Ancestor, Axis::Child]
        {
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

/// One `simd` cell: a word-sweep kernel timed on every dispatch tier over
/// the same dense word buffer. `vector_ns` is absent on machines without
/// AVX2 (the vector tier would silently run the unrolled kernel there,
/// and a ratio of 1.0 would read as a regression rather than a downgrade).
struct SimdCell {
    op: &'static str,
    words: usize,
    scalar_ns: u64,
    unrolled_ns: u64,
    vector_ns: Option<u64>,
}

impl SimdCell {
    fn ratio_vs_scalar(&self, tier_ns: u64) -> f64 {
        self.scalar_ns as f64 / tier_ns.max(1) as f64
    }
}

/// One timeable kernel shape: `(tier, a, b, out) -> count`; unary ops
/// ignore `b`/`out`.
type KernelFn = fn(simd::Tier, &[u64], &[u64], &mut [u64]) -> u64;

/// Time the five hot kernels — union / intersect / difference sweeps,
/// popcount and the memo fingerprint — per tier on a dense buffer sized
/// like the bench document's bitset universe.
fn measure_simd_cells() -> Vec<SimdCell> {
    const WORDS: usize = 4096;
    let mut rng = Rng::seed_from_u64(0xC0FFEE);
    let a: Vec<u64> = (0..WORDS).map(|_| rng.next_u64()).collect();
    let b: Vec<u64> = (0..WORDS).map(|_| rng.next_u64()).collect();
    let tiers: Vec<simd::Tier> = if simd::vector_available() {
        vec![simd::Tier::Scalar, simd::Tier::Unrolled, simd::Tier::Vector]
    } else {
        vec![simd::Tier::Scalar, simd::Tier::Unrolled]
    };
    // The union row times the bare `dst |= src` sweep: `out` accumulates
    // across iterations (OR is idempotent — every iteration sweeps the
    // same words), so no per-iteration copy dilutes the tier ratio.
    let ops: &[(&'static str, KernelFn)] = &[
        ("union", |t, _a, b, out| simd::or_assign_count_with(t, out, b)),
        ("intersect", |t, a, b, out| simd::and_into_count_with(t, a, b, out)),
        ("difference", |t, a, b, out| simd::andnot_into_count_with(t, a, b, out)),
        ("popcount", |t, a, _, _| simd::popcount_with(t, a)),
        ("fingerprint", |t, a, _, _| simd::fingerprint_words_with(t, a)),
    ];
    let mut cells = Vec::new();
    for &(op, f) in ops {
        // Per-tier results must agree before the timings mean anything.
        let mut out = vec![0u64; WORDS];
        let reference = f(simd::Tier::Scalar, &a, &b, &mut out);
        for &tier in &tiers {
            let mut out = vec![0u64; WORDS];
            assert_eq!(f(tier, &a, &b, &mut out), reference, "{op} diverges on {tier:?}");
        }
        let (mut out_s, mut out_u, mut out_v) =
            (vec![0u64; WORDS], vec![0u64; WORDS], vec![0u64; WORDS]);
        let mut run_scalar = || {
            std::hint::black_box(f(simd::Tier::Scalar, &a, &b, &mut out_s));
        };
        let mut run_unrolled = || {
            std::hint::black_box(f(simd::Tier::Unrolled, &a, &b, &mut out_u));
        };
        let mut run_vector = || {
            std::hint::black_box(f(simd::Tier::Vector, &a, &b, &mut out_v));
        };
        let mut timed: Vec<&mut dyn FnMut()> = vec![&mut run_scalar, &mut run_unrolled];
        if simd::vector_available() {
            timed.push(&mut run_vector);
        }
        let times = time_ns_interleaved(&mut timed);
        cells.push(SimdCell {
            op,
            words: WORDS,
            scalar_ns: times[0],
            unrolled_ns: times[1],
            vector_ns: times.get(2).copied(),
        });
    }
    cells
}

/// One batch_eval measurement: the batch as one single-threaded
/// `QuerySet::evaluate_all` vs N independent prepared evaluations.
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
    let compiler = Compiler::new().threads(1);
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
/// OptMinContext, timed interleaved at a 1-thread budget after checking
/// that Auto and OptMinContext agree.
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

/// `--check`: the CI kernel guard. Fails when the axis kernel is more
/// than 10% slower than the seed's per-node loop in any axis-application
/// cell, or 20% slower than the best of the measured alternatives (the
/// looser bound absorbs scheduler noise on cells where both sides run
/// near-identical work seconds apart).
/// On shared CI runners a single noisy-neighbor spike can push a
/// sub-microsecond cell past the ratio bars, so a failing pass is
/// re-measured from scratch; only violations that persist across every
/// attempt fail the job.
const CHECK_ATTEMPTS: u32 = 3;

fn check(doc: &Document) -> Result<(), String> {
    // Kernel-tier guard: on AVX2 hardware the vector sweeps must beat the
    // scalar loop by ≥1.3x on the dense set ops (the ratio the cost model
    // and the BENCH_axes.json `simd` section advertise; the real margin is
    // far larger — the low bar only refuses a silently broken dispatch).
    // Skipped entirely when the tier is pinned down via GKP_NO_SIMD.
    if simd::vector_available() && simd::active_tier() == simd::Tier::Vector {
        let mut simd_failure = None;
        for attempt in 1..=CHECK_ATTEMPTS {
            simd_failure = None;
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
                    simd_failure = Some(format!(
                        "simd {}: vector {v}ns vs scalar {}ns ({ratio:.2}x < 1.3x)",
                        c.op, c.scalar_ns
                    ));
                }
            }
            if simd_failure.is_none() {
                break;
            }
            if attempt < CHECK_ATTEMPTS {
                eprintln!(
                    "check: simd attempt {attempt}/{CHECK_ATTEMPTS} under 1.3x; re-measuring"
                );
            }
        }
        if let Some(failure) = simd_failure {
            return Err(failure);
        }
    }
    // Batch guard: one shared-prefix `evaluate_all` must stay within 5%
    // of N independent evaluations (it should be well *faster* — the
    // 0.95× bar only refuses real regressions, absorbing runner noise).
    // Re-measured like the axis cells: only persistent violations fail.
    let mut batch_failure = None;
    for attempt in 1..=CHECK_ATTEMPTS {
        let cell = measure_batch(doc, "shared_prefix", &batch_shared_prefix());
        let speedup = cell.speedup();
        eprintln!(
            "check: batch shared_prefix x{} mode {} memo {}h/{}m  batched {:>9}ns  \
             vs independent {speedup:>5.2}x",
            cell.queries, cell.mode, cell.memo_hits, cell.memo_misses, cell.batched_ns
        );
        if speedup >= 0.95 {
            batch_failure = None;
            break;
        }
        batch_failure = Some(format!(
            "shared-prefix batch: batched {}ns vs independent {}ns ({speedup:.2}x < 0.95x)",
            cell.batched_ns, cell.independent_ns
        ));
        if attempt < CHECK_ATTEMPTS {
            eprintln!("check: batch attempt {attempt}/{CHECK_ATTEMPTS} under 0.95x; re-measuring");
        }
    }
    if let Some(failure) = batch_failure {
        return Err(failure);
    }
    // Cursor guard: lazy `first()` on the ≥10⁵-node document must be ≥10×
    // faster than a full materializing evaluation for the predicate-free
    // streamable spines (the point of the cursor layer); the
    // witness-short-circuit shape only has to win at all (≥2×, its full
    // evaluation already short-circuits per candidate). Re-measured like
    // the other timing guards: only persistent violations fail.
    let big = doc_balanced(4, 9, &["a", "b", "c", "d"]);
    big.axis_index();
    {
        let mut cursor_failure = None;
        for attempt in 1..=CHECK_ATTEMPTS {
            cursor_failure = None;
            for c in measure_early_exit(&big) {
                let speedup = c.speedup_first();
                let bar = if c.query.contains('[') { 2.0 } else { 10.0 };
                eprintln!(
                    "check: early-exit {:<20} first {:>7}ns  exists {:>7}ns  \
                     full {:>9}ns  {speedup:>7.1}x",
                    c.query, c.first_ns, c.exists_ns, c.full_ns
                );
                if speedup < bar {
                    cursor_failure = Some(format!(
                        "early-exit {}: first {}ns vs full {}ns ({speedup:.1}x < {bar}x)",
                        c.query, c.first_ns, c.full_ns
                    ));
                }
            }
            if cursor_failure.is_none() {
                break;
            }
            if attempt < CHECK_ATTEMPTS {
                eprintln!(
                    "check: early-exit attempt {attempt}/{CHECK_ATTEMPTS} under the bar; \
                     re-measuring"
                );
            }
        }
        if let Some(failure) = cursor_failure {
            return Err(failure);
        }
    }
    // Snapshot guard: an mmap load of the ≥1e5-node document must beat a
    // cold parse by ≥100× (the point of the O(header) open), and the
    // on-disk size must stay within 2× of the in-memory arenas. The size
    // bound is deterministic; only the timing ratio is re-measured.
    {
        let mut snap_failure = None;
        for attempt in 1..=CHECK_ATTEMPTS {
            let c = measure_snapshot(&big);
            if c.snapshot_bytes as f64 > 2.0 * c.resident_bytes as f64 {
                return Err(format!(
                    "snapshot: {} bytes on disk vs {} resident (> 2x)",
                    c.snapshot_bytes, c.resident_bytes
                ));
            }
            let speedup = c.speedup_load();
            eprintln!(
                "check: snapshot parse {:>10}ns  mmap load {:>8}ns  {speedup:>6.0}x  \
                 {} bytes ({:.1}/node)",
                c.parse_ns,
                c.load_ns,
                c.snapshot_bytes,
                c.bytes_per_node()
            );
            if speedup >= 100.0 {
                snap_failure = None;
                break;
            }
            snap_failure = Some(format!(
                "snapshot: mmap load {}ns vs parse {}ns ({speedup:.0}x < 100x)",
                c.load_ns, c.parse_ns
            ));
            if attempt < CHECK_ATTEMPTS {
                eprintln!(
                    "check: snapshot attempt {attempt}/{CHECK_ATTEMPTS} under 100x; re-measuring"
                );
            }
        }
        if let Some(failure) = snap_failure {
            return Err(failure);
        }
    }
    // Strategy-choice guard: Auto on the served `count(//c)` must cost at
    // most 1.2x the bare `//c` on its fragment engine — the count is one
    // O(1) fold over the lifted path's node set, so anything more means
    // Auto stopped lifting. Re-measured like the other timing guards.
    let mut choice_failure = None;
    for attempt in 1..=CHECK_ATTEMPTS {
        let c = measure_choice(doc, "//c");
        let ratio = c.auto_vs_bare();
        eprintln!(
            "check: strategy choice {} via {:?} {:>9}ns  bare path {:>9}ns  ({ratio:.2}x)  \
             OptMinContext {:>9}ns",
            c.query, c.auto_strategy, c.auto_ns, c.bare_ns, c.opt_min_context_ns
        );
        if ratio <= 1.2 {
            choice_failure = None;
            break;
        }
        choice_failure = Some(format!(
            "strategy choice {}: Auto ({:?}) {}ns vs bare path {}ns ({ratio:.2}x > 1.2x)",
            c.query, c.auto_strategy, c.auto_ns, c.bare_ns
        ));
        if attempt < CHECK_ATTEMPTS {
            eprintln!(
                "check: strategy-choice attempt {attempt}/{CHECK_ATTEMPTS} over 1.2x; re-measuring"
            );
        }
    }
    if let Some(failure) = choice_failure {
        return Err(failure);
    }
    // Node-test guard: a name test must cost at most 2x a kind test over
    // the same descendant set (one resolved name-id compare per node, no
    // string lookup), and `//c` at most 1.3x `/descendant::c` (the rewrite
    // merges `//` on every compile). Re-measured like the other guards.
    let mut node_test_failure = None;
    for attempt in 1..=CHECK_ATTEMPTS {
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
            node_test_failure = None;
            break;
        }
        node_test_failure = Some(format!(
            "node tests: /descendant::c vs /descendant::* {name_vs_kind:.2}x (bar 2x), \
             //c vs /descendant::c {slash_vs_merged:.2}x (bar 1.3x)"
        ));
        if attempt < CHECK_ATTEMPTS {
            eprintln!(
                "check: node-test attempt {attempt}/{CHECK_ATTEMPTS} over a bar; re-measuring"
            );
        }
    }
    if let Some(failure) = node_test_failure {
        return Err(failure);
    }
    // Serve guard: a single-client socket round trip through the query
    // server must stay within 5x of a direct in-process evaluation (+1ms
    // fixed allowance) — the protocol layer may tax, not dominate. The
    // measurement (and its retry policy) lives in
    // `xpath_bench::serve_bench`, shared with `bench_serve --check`.
    xpath_bench::serve_bench::check_serve(doc)?;
    let mut last_failures = String::new();
    for attempt in 1..=CHECK_ATTEMPTS {
        let failures = check_pass(doc);
        if failures.is_empty() {
            return Ok(());
        }
        last_failures = failures.join("\n");
        if attempt < CHECK_ATTEMPTS {
            eprintln!(
                "check: attempt {attempt}/{CHECK_ATTEMPTS} saw {} violation(s); re-measuring",
                failures.len()
            );
        }
    }
    Err(last_failures)
}

fn check_pass(doc: &Document) -> Vec<String> {
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
/// `//b[following::c]`, whose per-candidate predicate check stops at the
/// first witness (the S→ membership equivalence from the paper).
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
            let first_ns = time_ns(|| {
                std::hint::black_box(c.first(big).unwrap());
            });
            let exists_ns = time_ns(|| {
                std::hint::black_box(c.exists(big).unwrap());
            });
            let full_ns = time_ns(|| {
                std::hint::black_box(c.select(big).unwrap());
            });
            EarlyExitCell { query: q, matches: full.len(), first_ns, exists_ns, full_ns }
        })
        .collect()
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
        assert_eq!(
            ev_parsed.evaluate(&c, &[parsed.root()]),
            ev_loaded.evaluate(&c, &[loaded.root()]),
            "snapshot load diverges from parse on {}",
            BENCH_QUERIES[0]
        );
    }
    let parse_ns = time_ns(|| {
        std::hint::black_box(Document::parse_str(&xml).expect("reparse"));
    });
    let load_ns = time_ns(|| {
        std::hint::black_box(snap::load(&path).expect("snapshot load"));
    });
    SnapshotCell {
        nodes: big.len(),
        xml_bytes: xml.len(),
        snapshot_bytes: info.file_bytes,
        resident_bytes: big.resident_bytes(),
        parse_ns,
        load_ns,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // A balanced 4-ary tree of depth 7: 21845 elements (≥10k nodes),
    // labels cycling a→b→c→d by level.
    let doc = doc_balanced(4, 7, &["a", "b", "c", "d"]);
    let n = doc.len() as u32;
    doc.axis_index(); // build once, outside the timed regions

    if args.iter().any(|a| a == "--check") {
        match check(&doc) {
            Ok(()) => {
                eprintln!(
                    "check: kernel within 10% of per-node and 20% of the best \
                     alternative in every axis-application cell; batch, lazy \
                     early-exit, strategy-choice and node-test bars met"
                );
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

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"axes\",");
    let _ =
        writeln!(json, "  \"doc\": {{ \"shape\": \"balanced 4-ary, depth 7\", \"nodes\": {n} }},");

    // ---- axis application across densities ----
    json.push_str("  \"axis_application\": [\n");
    let cells = measure_axis_cells(&doc);
    for (i, c) in cells.iter().enumerate() {
        if i > 0 {
            json.push_str(",\n");
        }
        let _ = write!(
            json,
            "    {{ \"axis\": \"{}\", \"density\": {}, \"input_len\": {}, \
             \"kernel\": \"{}\", \"per_node_loop_ns\": {}, \"direct_set_ns\": {}, \
             \"kernel_ns\": {}, \
             \"speedup_kernel_vs_per_node\": {:.2}, \"speedup_kernel_vs_best\": {:.2} }}",
            c.axis,
            c.density,
            c.input_len,
            c.kernel,
            c.per_node_ns,
            c.direct_ns,
            c.kernel_ns,
            c.speedup_vs_per_node(),
            c.speedup_vs_best(),
        );
    }
    json.push_str("\n  ],\n");

    // ---- word-sweep kernel tiers: scalar vs unrolled vs vector ----
    {
        let _ = writeln!(
            json,
            "  \"simd\": {{ \"active_tier\": \"{}\", \"vector_available\": {}, \
             \"avx512_fingerprint\": {}, \"kernels\": [",
            simd::active_tier().name(),
            simd::vector_available(),
            simd::avx512_fingerprint_available(),
        );
        let cells = measure_simd_cells();
        for (i, c) in cells.iter().enumerate() {
            if i > 0 {
                json.push_str(",\n");
            }
            let _ = write!(
                json,
                "    {{ \"op\": \"{}\", \"words\": {}, \"scalar_ns\": {}, \
                 \"unrolled_ns\": {}, \"speedup_unrolled_vs_scalar\": {:.2}",
                c.op,
                c.words,
                c.scalar_ns,
                c.unrolled_ns,
                c.ratio_vs_scalar(c.unrolled_ns),
            );
            if let Some(v) = c.vector_ns {
                let _ = write!(
                    json,
                    ", \"vector_ns\": {v}, \"speedup_vector_vs_scalar\": {:.2}",
                    c.ratio_vs_scalar(v)
                );
            }
            json.push_str(" }");
        }
        json.push_str("\n  ] },\n");
    }

    // ---- representation micro-bench: set ops across densities ----
    json.push_str("  \"set_ops\": [\n");
    let mut first = true;
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
            if !first {
                json.push_str(",\n");
            }
            first = false;
            let _ = write!(
                json,
                "    {{ \"op\": \"{op}\", \"density\": {density}, \"len\": {}, \
                 \"sorted_vec_ns\": {t_vec}, \"bitset_ns\": {t_bits}, \
                 \"speedup_bitset\": {:.2} }}",
                av.len(),
                t_vec as f64 / t_bits.max(1) as f64,
            );
        }
    }
    json.push_str("\n  ],\n");

    // ---- whole queries: descendant/following-heavy Core XPath on the
    // kernel vs the paper's TopDown evaluator ----
    json.push_str("  \"queries\": [\n");
    let kernel_ev = CoreXPathEvaluator::new(&doc);
    let top_down = Compiler::new().default_strategy(Strategy::TopDown).threads(1);
    let mut first = true;
    for &q in BENCH_QUERIES {
        let e = Compiler::new().parse(q).unwrap();
        let c = compile(&e).unwrap();
        let reference = top_down.compile(q).unwrap();
        let root = [doc.root()];
        let want = reference.evaluate_root(&doc).unwrap();
        assert_eq!(xpath_core::Value::NodeSet(kernel_ev.evaluate(&c, &root)), want, "{q}");
        let t_top_down = time_ns(|| {
            std::hint::black_box(reference.evaluate_root(&doc).unwrap());
        });
        let t_kernel = time_ns(|| {
            std::hint::black_box(kernel_ev.evaluate(&c, &root));
        });
        if !first {
            json.push_str(",\n");
        }
        first = false;
        let _ = write!(
            json,
            "    {{ \"query\": \"{}\", \"topdown_ns\": {t_top_down}, \
             \"kernel_ns\": {t_kernel}, \"speedup_kernel_vs_topdown\": {:.2} }}",
            q.replace('"', "'"),
            t_top_down as f64 / t_kernel.max(1) as f64,
        );
    }
    json.push_str("\n  ],\n");

    // The ≥1e5-node document of the early-exit and snapshot sections.
    let big = doc_balanced(4, 9, &["a", "b", "c", "d"]);
    big.axis_index();

    // ---- batched multi-query evaluation: one QuerySet pass vs N
    // independent evaluations (single-thread budget, so the speedup is
    // pure memo sharing, not parallelism) ----
    json.push_str("  \"batch_eval\": [\n");
    {
        let threads_available =
            std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        let cells = [
            measure_batch(&doc, "shared_prefix", &batch_shared_prefix()),
            measure_batch(&doc, "disjoint", &batch_disjoint()),
        ];
        for (i, c) in cells.iter().enumerate() {
            if i > 0 {
                json.push_str(",\n");
            }
            let _ = write!(
                json,
                "    {{ \"workload\": \"{}\", \"queries\": {}, \"nodes\": {n}, \
                 \"threads_available\": {threads_available}, \"mode\": \"{}\", \
                 \"memo_hits\": {}, \"memo_misses\": {}, \"independent_ns\": {}, \
                 \"batched_ns\": {}, \"speedup_batched\": {:.2} }}",
                c.workload,
                c.queries,
                c.mode,
                c.memo_hits,
                c.memo_misses,
                c.independent_ns,
                c.batched_ns,
                c.speedup(),
            );
        }
    }
    json.push_str("\n  ],\n");

    // ---- strategy choice: Auto vs the bare path on its fragment engine vs
    // forced OptMinContext, on count()-wrapped paths (1-thread budget) ----
    json.push_str("  \"strategy_choice\": [\n");
    for (i, path) in choice_paths().enumerate() {
        let c = measure_choice(&doc, path);
        if i > 0 {
            json.push_str(",\n");
        }
        let _ = write!(
            json,
            "    {{ \"query\": \"{}\", \"bare_path\": \"{path}\", \"nodes\": {n}, \
             \"auto_strategy\": \"{:?}\", \"auto_ns\": {}, \"bare_path_ns\": {}, \
             \"opt_min_context_ns\": {}, \"auto_vs_bare_path\": {:.2}, \
             \"speedup_auto_vs_opt_min_context\": {:.2} }}",
            c.query,
            c.auto_strategy,
            c.auto_ns,
            c.bare_ns,
            c.opt_min_context_ns,
            c.auto_vs_bare(),
            c.speedup_vs_opt_min_context(),
        );
    }
    json.push_str("\n  ],\n");

    // ---- node tests: kind vs name test vs `//` over one descendant set,
    // plus the `T(c)` scan a predicate's `S←` runs ----
    json.push_str("  \"node_tests\": [\n");
    {
        let cells = measure_node_tests(&doc);
        let star = cells[0].ns.max(1) as f64;
        for (i, c) in cells.iter().enumerate() {
            if i > 0 {
                json.push_str(",\n");
            }
            let _ = write!(
                json,
                "    {{ \"query\": \"{}\", \"nodes\": {n}, \"matches\": {}, \"ns\": {}, \
                 \"vs_descendant_star\": {:.2} }}",
                c.query,
                c.matches,
                c.ns,
                c.ns as f64 / star,
            );
        }
    }
    json.push_str("\n  ],\n");

    // ---- early-exit: lazy cursor first()/exists() vs full evaluation on
    // the ≥1e5-node document ----
    json.push_str("  \"early_exit\": [\n");
    {
        let bn = big.len();
        for (i, c) in measure_early_exit(&big).iter().enumerate() {
            if i > 0 {
                json.push_str(",\n");
            }
            let _ = write!(
                json,
                "    {{ \"query\": \"{}\", \"nodes\": {bn}, \"matches\": {}, \
                 \"first_ns\": {}, \"exists_ns\": {}, \"full_eval_ns\": {}, \
                 \"speedup_first_vs_full\": {:.2} }}",
                c.query,
                c.matches,
                c.first_ns,
                c.exists_ns,
                c.full_ns,
                c.speedup_first(),
            );
        }
    }
    json.push_str("\n  ],\n");

    // ---- snapshot: cold XML parse vs mmap'd snapshot load of the
    // ≥1e5-node document (`xpath_xml::snap`) ----
    {
        let c = measure_snapshot(&big);
        let _ = writeln!(
            json,
            "  \"snapshot\": {{ \"nodes\": {}, \"xml_bytes\": {}, \"snapshot_bytes\": {}, \
             \"resident_bytes\": {}, \"bytes_per_node\": {:.1}, \"parse_ns\": {}, \
             \"mmap_load_ns\": {}, \"speedup_load_vs_parse\": {:.1} }},",
            c.nodes,
            c.xml_bytes,
            c.snapshot_bytes,
            c.resident_bytes,
            c.bytes_per_node(),
            c.parse_ns,
            c.load_ns,
            c.speedup_load(),
        );
    }

    // ---- prepared_vs_adhoc guard (original bench conditions: small doc,
    // static phase comparable to the runtime phase) ----
    let small = xpath_xml::generate::doc_bookstore();
    let compiler = Compiler::new();
    let q = "//book[author]/title";
    let prepared = compiler.compile(q).unwrap();
    let t_adhoc = time_ns(|| {
        let c = compiler.compile(q).unwrap();
        std::hint::black_box(c.evaluate_root(&small).unwrap());
    });
    let t_prepared = time_ns(|| {
        std::hint::black_box(prepared.evaluate_root(&small).unwrap());
    });
    let _ = writeln!(
        json,
        "  \"prepared_vs_adhoc\": {{ \"query\": \"{q}\", \"adhoc_ns\": {t_adhoc}, \
         \"prepared_ns\": {t_prepared}, \"prepared_speedup\": {:.2} }}",
        t_adhoc as f64 / t_prepared.max(1) as f64,
    );
    json.push_str("}\n");

    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!("{json}");
    eprintln!("wrote {out_path}");
}
