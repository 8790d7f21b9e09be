//! Concurrency proof for [`DocumentStore`]'s generational reload: N
//! reader threads query through the store while a writer republishes
//! the snapshot under the same name. Snapshot isolation must hold —
//! a handle obtained before a publish keeps reading the generation it
//! pinned, every *freshly opened* handle is a complete, internally
//! consistent snapshot (never a torn generation), and dropping old
//! generations releases their mappings (no leak of cache entries).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

use gkp_xpath::core::store::DocumentStore;
use gkp_xpath::xml::temp::TempPath;
use gkp_xpath::{CompiledQuery, Document};

/// A generation-`g` document: `<gen n="g">` with `g % 7 + 1` `<item>`
/// children, each carrying the generation in an attribute. Every
/// internal consistency probe below can recompute the expected answer
/// from `n` alone, so a reader can detect any mixing of generations.
fn gen_doc(g: u64) -> Document {
    let items = (g % 7) + 1;
    let mut xml = format!(r#"<gen n="{g}">"#);
    for i in 0..items {
        xml.push_str(&format!(r#"<item g="{g}" i="{i}"/>"#));
    }
    xml.push_str("</gen>");
    Document::parse_str(&xml).expect("valid XML")
}

fn attr_n(doc: &Document) -> u64 {
    let q = CompiledQuery::compile("string(/gen/@n)").unwrap();
    match q.evaluate_root(doc).unwrap() {
        gkp_xpath::Value::String(s) => s.parse().expect("numeric @n"),
        other => panic!("unexpected value {other:?}"),
    }
}

/// The invariant a torn generation would break: the item count, every
/// item's `@g`, and the root's `@n` must all describe the same `g`.
fn assert_consistent(doc: &Document) -> u64 {
    let g = attr_n(doc);
    let count_q = CompiledQuery::compile("count(/gen/item)").unwrap();
    let count = match count_q.evaluate_root(doc).unwrap() {
        gkp_xpath::Value::Number(n) => n as u64,
        other => panic!("unexpected value {other:?}"),
    };
    assert_eq!(count, (g % 7) + 1, "item count of generation {g}");
    let mismatched_q = CompiledQuery::compile(&format!("count(/gen/item[@g != {g}])")).unwrap();
    match mismatched_q.evaluate_root(doc).unwrap() {
        gkp_xpath::Value::Number(n) => {
            assert_eq!(n, 0.0, "items from a foreign generation inside generation {g}");
        }
        other => panic!("unexpected value {other:?}"),
    }
    g
}

fn temp_dir(tag: &str) -> TempPath {
    TempPath::new(&format!("store_conc_{tag}"))
}

#[test]
fn readers_stay_consistent_across_concurrent_republish() {
    const READERS: usize = 4;
    const PUBLISHES: u64 = 40;

    let dir = temp_dir("republish");
    let store = Arc::new(DocumentStore::open(dir.path()).unwrap());
    store.publish("live", &gen_doc(0)).unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let max_seen = Arc::new(AtomicU64::new(0));
    let reads = Arc::new(AtomicU64::new(0));

    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            let max_seen = Arc::clone(&max_seen);
            let reads = Arc::clone(&reads);
            thread::spawn(move || {
                let mut last = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let doc = store.open_doc("live").expect("open current generation");
                    let g = assert_consistent(&doc);
                    // Generations are published in order, so a reader
                    // can never travel back in time.
                    assert!(g >= last, "generation went backwards: {last} -> {g}");
                    last = g;
                    max_seen.fetch_max(g, Ordering::Relaxed);
                    reads.fetch_add(1, Ordering::Relaxed);
                }
                last
            })
        })
        .collect();

    // Writer: republish generations 1..=PUBLISHES over the same name
    // while holding a handle to generation 0 the whole time — snapshot
    // isolation must keep it readable and unchanged throughout.
    let pinned = store.open_doc("live").unwrap();
    for g in 1..=PUBLISHES {
        store.publish("live", &gen_doc(g)).unwrap();
        assert_eq!(attr_n(&pinned), 0, "pinned old handle must keep its generation");
        thread::yield_now();
    }
    // Let readers observe the final generation before stopping them.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while max_seen.load(Ordering::Relaxed) < PUBLISHES && std::time::Instant::now() < deadline {
        thread::yield_now();
    }
    stop.store(true, Ordering::Relaxed);
    for reader in readers {
        reader.join().expect("reader panicked");
    }

    assert_eq!(max_seen.load(Ordering::Relaxed), PUBLISHES, "readers reached the last publish");
    assert!(reads.load(Ordering::Relaxed) > 0);
    let stats = store.stats();
    assert_eq!(stats.publishes, PUBLISHES + 1);
    assert!(stats.reloads >= 1, "at least one reader open must have observed a generation change");
    // No cache-entry leak: one name stays one cache entry no matter how
    // many generations went through it (old mappings are dropped when
    // their last handle goes away; the cache holds only the newest).
    drop(pinned);
    let final_doc = store.open_doc("live").unwrap();
    assert_eq!(assert_consistent(&final_doc), PUBLISHES);
}

#[test]
fn open_doc_from_many_threads_shares_one_mapping() {
    let dir = temp_dir("share");
    let store = Arc::new(DocumentStore::open(dir.path()).unwrap());
    store.publish("d", &gen_doc(3)).unwrap();

    let handles: Vec<_> = (0..8)
        .map(|_| {
            let store = Arc::clone(&store);
            thread::spawn(move || store.open_doc("d").unwrap())
        })
        .collect();
    let docs: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    // All concurrent opens of one generation share a single Arc'd
    // mapping (the cache lock is held across the load).
    for doc in &docs[1..] {
        assert!(Arc::ptr_eq(&docs[0], doc), "every open shares the same document");
    }
    let stats = store.stats();
    assert_eq!(stats.misses, 1, "exactly one thread loaded; the rest hit the cache");
    assert_eq!(stats.hits, 7);
}
