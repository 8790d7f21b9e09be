//! The four workloads: their documents, request streams and expected
//! answers, all derived from the run's seed.
//!
//! The served program only ever sees the generated XML (published into
//! its store) and the request lines; the expected answers come from the
//! [`catalog`](crate::catalog) model.

use std::time::Duration;

use xpath_core::serve::Json;
use xpath_xml::rng::{splitmix64, Rng};

use crate::catalog::{Agg, Answer, Catalog, Pred, Query, Tail, TAGS};

/// Name the documents are published under in the served store.
pub const DOC_NAME: &str = "catalog";

/// Static description of one workload. Why each exists is recorded in
/// `BENCHMARK.json` and `README.md`.
#[derive(Debug)]
pub struct Spec {
    /// Workload name, as passed to `--workload`.
    pub name: &'static str,
    /// Items per generated catalog (sets the document size).
    pub items: usize,
    /// Document generations: 1, or 2 when the workload republishes.
    pub generations: u64,
    /// Open-loop arrival rate in requests per second, chosen so that the
    /// server is busy about a quarter of one CPU (rate × the workload's
    /// median `server_cpu_us` on the reference machine ≈ 0.25 s/s),
    /// rounded. At that load a request seldom queues behind another,
    /// so a host stall delays the requests it hits and not a backlog
    /// behind them. It never adapts to the run.
    pub rate: f64,
    /// Client connections carrying reads (each driven by one thread).
    pub connections: usize,
    /// Interval at which a second thread re-publishes the alternate
    /// generation beside the reads.
    pub publish_every: Option<Duration>,
}

/// Every workload, in the order a full run executes them.
pub const WORKLOADS: [Spec; 4] = [
    // ~240k nodes: a request costs the server about 0.25 ms of CPU, so
    // framing, the store's stat, cache hits and the socket weigh.
    Spec {
        name: "point",
        items: 16_500,
        generations: 1,
        rate: 1_000.0,
        connections: 2,
        publish_every: None,
    },
    // ~17k nodes: evaluation is most of each request.
    Spec {
        name: "analytic",
        items: 1_200,
        generations: 1,
        rate: 40.0,
        connections: 2,
        publish_every: None,
    },
    // ~4k nodes: six-query batches through `QuerySet`.
    Spec {
        name: "batch",
        items: 300,
        generations: 1,
        rate: 30.0,
        connections: 2,
        publish_every: None,
    },
    // ~5k nodes, two generations republished beside one reading
    // connection.
    Spec {
        name: "churn",
        items: 340,
        generations: 2,
        rate: 100.0,
        connections: 1,
        publish_every: Some(Duration::from_millis(200)),
    },
];

/// Look a workload up by name.
pub fn spec(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

/// One distinct request line and its expected answers.
#[derive(Debug)]
pub struct Request {
    /// The request line, newline-terminated.
    pub line: String,
    /// `expected[g][q]`: the answer to query `q` on generation `g`.
    pub expected: Vec<Vec<Answer>>,
}

/// A workload instantiated for one seed.
#[derive(Debug)]
pub struct Prepared {
    /// The workload.
    pub spec: &'static Spec,
    /// The seed everything was derived from.
    pub seed: u64,
    /// The serialized documents, one per generation.
    pub xml: Vec<String>,
    /// The distinct requests.
    pub requests: Vec<Request>,
    /// Weighted choice table: indexes into `requests`, each as often as
    /// its weight. A [`Schedule`] sends it in a new order every pass.
    pub mix: Vec<u32>,
}

fn name_hash(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| splitmix64(h ^ u64::from(b)))
}

impl Prepared {
    /// Generate the documents, requests and answers of `spec` for `seed`.
    pub fn new(spec: &'static Spec, seed: u64) -> Prepared {
        let base = splitmix64(seed ^ name_hash(spec.name));
        let catalogs: Vec<Catalog> = (0..spec.generations)
            .map(|g| Catalog::generate(splitmix64(base ^ (g + 1)), spec.items))
            .collect();
        let mut rng = Rng::seed_from_u64(splitmix64(base ^ 0x5155_4552_5953));
        let (groups, mix) = match spec.name {
            "point" => point_queries(&catalogs[0], &mut rng),
            "analytic" => analytic_queries(),
            "batch" => batch_queries(&catalogs[0]),
            "churn" => churn_queries(),
            other => unreachable!("no query generator for workload {other}"),
        };
        let requests = groups.iter().map(|qs| request(qs, &catalogs)).collect();
        let xml = catalogs.iter().map(Catalog::to_xml).collect();
        Prepared { spec, seed, xml, requests, mix }
    }

    /// The request order of stream `stream`. Streams are independent
    /// deterministic sequences (one per phase and connection).
    pub fn schedule(&self, stream: u64) -> Schedule<'_> {
        Schedule { prepared: self, stream, pass: None, order: self.mix.clone() }
    }
}

/// One stream's request order: the weighted choice table in a fresh
/// seeded shuffle on every pass. Every request is drawn as often as its
/// weight says in each pass, so two runs differ in the order of requests
/// and in the documents, not in how much of each request they send — a
/// draw with replacement would move the mix, and with it the median, by
/// a few percent from seed to seed.
pub struct Schedule<'a> {
    prepared: &'a Prepared,
    stream: u64,
    pass: Option<u64>,
    order: Vec<u32>,
}

impl Schedule<'_> {
    /// The request index at position `k` (an index into
    /// [`Prepared::requests`]). Cheapest when `k` does not decrease.
    pub fn at(&mut self, k: u64) -> usize {
        let len = self.order.len() as u64;
        let pass = k / len;
        if self.pass != Some(pass) {
            let p = self.prepared;
            let key = splitmix64(self.stream.wrapping_mul(0x9E37_79B9) ^ pass);
            let mut rng = Rng::seed_from_u64(splitmix64(p.seed ^ key));
            self.order.copy_from_slice(&p.mix);
            for i in (1..self.order.len()).rev() {
                self.order.swap(i, rng.random_range(0..=i));
            }
            self.pass = Some(pass);
        }
        self.order[usize::try_from(k % len).expect("mix index")] as usize
    }
}

fn request(queries: &[Query], catalogs: &[Catalog]) -> Request {
    let mut texts: Vec<Json> = queries.iter().map(|q| Json::Str(q.text())).collect();
    let body =
        if texts.len() == 1 { ("query", texts.remove(0)) } else { ("queries", Json::Arr(texts)) };
    let mut line = Json::obj(vec![("doc", Json::Str(DOC_NAME.to_owned())), body]).render();
    line.push('\n');
    let expected =
        catalogs.iter().map(|cat| queries.iter().map(|q| q.answer(cat)).collect()).collect();
    Request { line, expected }
}

type Groups = (Vec<Vec<Query>>, Vec<u32>);

fn uniform(groups: Vec<Vec<Query>>) -> Groups {
    let mix = (0..u32::try_from(groups.len()).expect("request count")).collect();
    (groups, mix)
}

/// A random index into `0..n` from the `j`-th of `of` equal strata, so
/// that `of` picks cover the document evenly: where a lookup lands moves
/// its cost, and independent picks would move the mix's average cost
/// from seed to seed.
fn stratum(rng: &mut Rng, n: usize, j: usize, of: usize) -> usize {
    let lo = j * n / of;
    rng.random_range(lo..((j + 1) * n / of).max(lo + 1))
}

/// 64 selective lookups: `id()` titles, positional prices, IDREF hops.
fn point_queries(cat: &Catalog, rng: &mut Rng) -> Groups {
    let n = cat.items.len();
    let mut groups = Vec::new();
    for j in 0..24 {
        let id = u32::try_from(stratum(rng, n, j, 24)).expect("item count");
        groups.push(vec![Query::IdTitle(id)]);
    }
    let tops: Vec<usize> =
        (0..cat.sections.len()).filter(|&s| !cat.sections[s].items.is_empty()).collect();
    for j in 0..24 {
        let s = tops[stratum(rng, tops.len(), j, 24)];
        let i = rng.random_range(0..cat.sections[s].items.len());
        groups.push(vec![Query::PosPrice(s + 1, i + 1)]);
    }
    let linked: Vec<u32> =
        cat.items.iter().filter(|it| !it.related.is_empty()).map(|it| it.id).collect();
    for j in 0..16 {
        groups.push(vec![Query::RelatedTitles(linked[stratum(rng, linked.len(), j, 16)])]);
    }
    uniform(groups)
}

fn items(kind: Option<u32>, preds: Vec<Pred>, tail: Tail, agg: Agg) -> Query {
    Query::Items { kind, preds, tail, agg }
}

/// 16 aggregates around paths and the 16 bare paths inside them. The
/// texts are the same for every seed; only the document varies.
fn analytic_queries() -> Groups {
    let mut aggs = vec![
        items(None, vec![Pred::Sale], Tail::Item, Agg::Count),
        items(None, vec![], Tail::Qty, Agg::Sum),
        items(None, vec![Pred::Rating(5)], Tail::Item, Agg::Count),
        items(None, vec![Pred::Sale], Tail::Price, Agg::Sum),
    ];
    for (k, t) in [(1, 7), (3, 6), (5, 3), (6, 0)] {
        aggs.push(items(Some(k), vec![Pred::Tag(t)], Tail::Item, Agg::Count));
    }
    for k in [0, 2, 4, 7] {
        aggs.push(items(Some(k), vec![], Tail::Qty, Agg::Sum));
    }
    for (r, q) in [(1, 328), (2, 500), (3, 772), (5, 100)] {
        let preds = vec![Pred::Rating(r), Pred::NoStock, Pred::QtyGt(q)];
        aggs.push(items(None, preds, Tail::Item, Agg::Boolean));
    }
    let bare: Vec<Query> = aggs
        .iter()
        .map(|q| match q {
            Query::Items { kind, preds, tail, .. } => {
                items(*kind, preds.clone(), *tail, Agg::Nodes)
            }
            other => other.clone(),
        })
        .collect();
    uniform(aggs.into_iter().chain(bare).map(|q| vec![q]).collect())
}

/// Batches of six: shared-prefix `count()` batches (60% of requests),
/// the same paths bare (20%) and disjoint batches (20%). The count
/// batches are the slowest, so weighting them above half keeps the
/// median inside one group instead of on the boundary between two.
fn batch_queries(cat: &Catalog) -> Groups {
    let shared = |kind: u32, agg: Agg| -> Vec<Query> {
        let k = Some(kind);
        let tag = (kind * 3 + 1) % TAGS;
        vec![
            items(k, vec![Pred::Sale], Tail::Item, agg),
            items(k, vec![Pred::Tag(tag)], Tail::Item, agg),
            items(k, vec![], Tail::Title, agg),
            items(k, vec![Pred::Rating(5)], Tail::Item, agg),
            items(k, vec![], Tail::Price, agg),
            items(k, vec![Pred::NoStock], Tail::Item, agg),
        ]
    };
    let at = |groups: &Vec<Vec<Query>>| u32::try_from(groups.len()).expect("request count");
    let (sections, items_n) = (cat.all_sections().len() as u32, cat.items.len() as u32);
    let mut groups = Vec::new();
    let mut mix = Vec::new();
    for kind in 0..8 {
        mix.extend([at(&groups); 3]);
        groups.push(shared(kind, Agg::Count));
        mix.push(at(&groups));
        groups.push(shared(kind, Agg::Nodes));
    }
    for v in 0..8u32 {
        mix.push(at(&groups));
        groups.push(vec![
            Query::CountReviews(1 + v % 5),
            Query::SectionKind((7 * v + 3) % sections),
            Query::SumStock,
            Query::CountTag(v % TAGS),
            Query::TopName(1 + v as usize % cat.sections.len()),
            Query::IdTitle((37 * v + 11) % items_n),
        ]);
    }
    (groups, mix)
}

/// 4096 parameterized texts (16× the server's default cache).
fn churn_queries() -> Groups {
    let mut groups = Vec::with_capacity(4096);
    for n in 0..1024u32 {
        groups.push(vec![items(None, vec![Pred::QtyGt(n)], Tail::Item, Agg::Count)]);
        groups.push(vec![items(None, vec![Pred::PriceLt(n)], Tail::Qty, Agg::Sum)]);
        groups.push(vec![items(None, vec![Pred::QtyEq(n)], Tail::Title, Agg::Nodes)]);
        groups.push(vec![items(
            None,
            vec![Pred::PriceGt(n), Pred::Sale],
            Tail::Item,
            Agg::Boolean,
        )]);
    }
    uniform(groups)
}

// ---------------------------------------------------------------------
// Response checking
// ---------------------------------------------------------------------

fn check_result(result: &Json, expected: &Answer) -> Result<(), String> {
    if result.get("ok") != Some(&Json::Bool(true)) {
        return Err(format!("query failed: {}", result.render()));
    }
    let ty = result.get("type").and_then(Json::as_str).unwrap_or("");
    let ok = match expected {
        Answer::Number(n) => ty == "number" && result.get("value") == Some(&Json::Num(*n)),
        Answer::Bool(b) => ty == "boolean" && result.get("value") == Some(&Json::Bool(*b)),
        Answer::Nodes { count, values } => {
            ty == "node-set"
                && result.get("count").and_then(Json::as_u64) == Some(*count as u64)
                && result.get("values").and_then(Json::as_arr).is_some_and(|vs| {
                    vs.len() == values.len()
                        && vs.iter().zip(values).all(|(v, e)| v.as_str() == Some(e.as_str()))
                })
        }
    };
    if ok {
        Ok(())
    } else {
        Err(format!("expected {expected:?}, got {}", result.render()))
    }
}

/// Check one response line against the request's expected answers on
/// any of the `allowed` generations. Returns the generation it matched.
///
/// # Errors
/// A description of the first mismatch (against the first allowed
/// generation) when no allowed generation matches.
pub fn check_response(response: &str, req: &Request, allowed: &[usize]) -> Result<usize, String> {
    let json = Json::parse(response.trim_end()).map_err(|e| format!("bad response JSON: {e}"))?;
    if json.get("ok") != Some(&Json::Bool(true)) {
        return Err(format!("request failed: {}", response.trim_end()));
    }
    let results = json.get("results").and_then(Json::as_arr).unwrap_or(&[]);
    let mut first_err = None;
    for &g in allowed {
        let expected = &req.expected[g];
        let outcome = if results.len() == expected.len() {
            results.iter().zip(expected).try_for_each(|(r, e)| check_result(r, e))
        } else {
            Err(format!("expected {} results, got {}", expected.len(), results.len()))
        };
        match outcome {
            Ok(()) => return Ok(g),
            Err(e) => {
                first_err.get_or_insert(e);
            }
        }
    }
    Err(first_err.unwrap_or_else(|| "no generation allowed".to_owned()))
}
