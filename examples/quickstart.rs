//! Quickstart: the four-tier query API.
//!
//! 1. **Ad-hoc** — `Engine::evaluate` for one-off queries against one
//!    document (compiles behind a per-engine cache);
//! 2. **Compiled** — `Compiler`/`CompiledQuery` for compile-once,
//!    evaluate-many (share via `QueryCache` across threads);
//! 3. **Batched** — `QuerySetBuilder`/`QuerySet` for evaluating many
//!    queries against a document in ONE pass, sharing identical axis
//!    passes across the batch when the cost model says sharing pays;
//! 4. **Lazy / budgeted** — `exists`/`first`/`select_lazy` for
//!    early-exit evaluation, and `EvalBudget` for deadlines and
//!    cooperative cancellation on every evaluation path.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use gkp_xpath::{
    CompiledQuery, Compiler, Document, Engine, EvalBudget, NodeCursor, QueryCache, QuerySetBuilder,
    Strategy,
};

fn main() {
    // 1. Parse an XML document (or build one with DocumentBuilder).
    let doc = Document::parse_str(
        r#"<library>
             <shelf label="databases">
               <book year="1994"><title>Foundations of Databases</title></book>
               <book year="2002"><title>XPath Processing</title></book>
             </shelf>
             <shelf label="theory">
               <book year="1979"><title>Computers and Intractability</title></book>
             </shelf>
           </library>"#,
    )
    .expect("well-formed XML");

    // 2. Compile a query. The static phase is document-independent: it
    //    parses, normalizes, classifies the query into the paper's
    //    fragment lattice (Figure 1), picks the best algorithm, and
    //    precompiles fragment artifacts. The result is immutable and
    //    Send + Sync.
    let books = CompiledQuery::compile("//book").expect("valid XPath");
    println!("{:?} evaluates '//book' ({} fragment)", books.strategy(), books.fragment().name());

    // 3. Evaluate — as many times, against as many documents, from as
    //    many threads as you like. Only the runtime phase runs here.
    let hits = books.select(&doc).unwrap();
    println!("{} books", hits.len());

    let title = CompiledQuery::compile("string(title)").unwrap();
    for b in &hits {
        use gkp_xpath::core::Context;
        println!("  - {}", title.evaluate(&doc, Context::of(b)).unwrap());
    }

    // Scalar queries: count, string, arithmetic.
    let recent = CompiledQuery::compile("count(//book[@year > 1990])").unwrap();
    println!("recent books: {}", recent.evaluate_root(&doc).unwrap());

    // The same compiled query works on a different document unchanged.
    let other = Document::parse_str("<library><book year=\"2001\"/></library>").unwrap();
    for (i, v) in recent.evaluate_many(&[&doc, &other]).unwrap().iter().enumerate() {
        println!("document {i}: {v} recent books");
    }

    // 4. The Compiler builder configures the static phase: a fixed
    //    strategy, variable bindings.
    let last = Compiler::new()
        .default_strategy(Strategy::TopDown)
        .compile("//book[position() = last()]")
        .unwrap();
    println!("last book: {}", doc.string_value(last.select(&doc).unwrap().first().unwrap()));

    // 5. Services evaluating repeated query texts share a QueryCache:
    //    compile once, evaluate everywhere.
    let cache = QueryCache::new(256);
    let compiler = Compiler::new();
    for _ in 0..1000 {
        let q = cache.get_or_compile(&compiler, "count(//shelf)").unwrap();
        assert_eq!(q.evaluate_root(&doc).unwrap().to_string(), "2");
    }
    let stats = cache.stats();
    println!("cache: {} compile(s), {} hits", stats.misses, stats.hits);

    // 6. The third tier: batch many queries into one immutable QuerySet
    //    and evaluate them all in a single pass. Queries sharing spine
    //    prefixes (here: every query starts //shelf/book) share their
    //    axis passes through the lock-step memo — each distinct pass runs
    //    once for the whole batch, and the planner records how much was
    //    shared. Results come back in input order, bit-identical to
    //    independent evaluation.
    //    (On this toy document the cost model would rightly refuse to
    //    share — a memo probe costs more than a 25-node pass — so the
    //    mode is pinned here to show the machinery; on real documents
    //    the decision is automatic and surfaces in `xpq --explain`.)
    let batch = QuerySetBuilder::new()
        .query("//shelf/book/title")
        .query("//shelf/book[title]") // shares the //shelf/book prefix
        .query("//shelf/book/title") // duplicate: fully shared
        .query("count(//shelf)") // lifted onto the algebra: its path shares too
        .mode(gkp_xpath::BatchMode::LockStepShared)
        .build()
        .expect("all queries valid");
    let out = batch.evaluate_all(&doc);
    for (i, result) in out.results().iter().enumerate() {
        println!("batch[{i}] -> {}", result.as_ref().unwrap());
    }
    let stats = out.stats();
    println!(
        "batch mode: {:?}, {} axis applications served from the shared memo",
        stats.mode, stats.memo_hits
    );

    // 7. The fourth tier: ask smaller questions and stop early. exists()
    //    and first() return on the first witness; select_lazy() hands out
    //    a pull-based cursor yielding matches in document order; every
    //    evaluation path takes an EvalBudget whose deadline / cancel flag
    //    is polled cooperatively (a tripped budget returns a clean error,
    //    never a poisoned state). Streamable spines — forward axes only,
    //    decided statically — never materialize the full result.
    let any_book = CompiledQuery::compile("//book[title]").unwrap();
    println!("any titled book? {}", any_book.exists(&doc).unwrap());
    if let Some(first) = any_book.first(&doc).unwrap() {
        println!("first titled book: {}", doc.string_value(first));
    }
    let mut cursor = any_book.select_lazy(&doc);
    while let Some(b) = cursor.next().unwrap() {
        println!("  cursor -> {}", doc.string_value(b));
    }
    let budget = EvalBudget::timeout(std::time::Duration::from_millis(50));
    let v = any_book
        .evaluate_with(&doc, gkp_xpath::core::Context::of(doc.root()), &budget)
        .expect("a 25-node document beats a 50ms deadline");
    println!("under budget: {v}");

    // 8. Every algorithm from the paper is available explicitly, and the
    //    document-bound Engine facade remains for one-off queries — it
    //    now also exposes batched evaluation and fleet-wide planner
    //    stats without reaching into internals.
    let engine = Engine::new(&doc);
    let facade = engine.evaluate_batch(&["count(//book)", "//book/title"]).unwrap();
    println!("facade batch: {}", facade.results()[0].as_ref().unwrap());
    engine.select("//shelf[book]").unwrap(); // a fragment query records kernel picks
    println!("planner: {} axis applications so far", engine.planner_stats().total());
    for strategy in [
        Strategy::Naive,         // §2  exponential baseline
        Strategy::DataPool,      // §9  memoized
        Strategy::BottomUp,      // §6  context-value tables
        Strategy::TopDown,       // §7  vectorized
        Strategy::MinContext,    // §8
        Strategy::OptMinContext, // §11.2
    ] {
        let v = engine.evaluate_with("count(//book)", strategy).unwrap();
        println!("{strategy:?} says count(//book) = {v}");
    }
}
