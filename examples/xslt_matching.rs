//! XSLT-style pattern matching: the workload that motivated XPatterns
//! (§10.2). For every node of a document, decide which template patterns
//! match — thousands of evaluations per document, which is exactly where
//! the linear-time fragments pay off.
//!
//! ```sh
//! cargo run --release --example xslt_matching
//! ```

use std::time::Instant;

use gkp_xpath::core::corexpath::{compile_xpatterns, CoreXPathEvaluator};
use gkp_xpath::core::nodeset;
use gkp_xpath::xml::generate::{doc_random, RandomDocConfig};
use gkp_xpath::EvalBudget;

fn main() {
    // A template rule set, as an XSLT stylesheet would declare.
    let patterns = [
        ("rule-section", "//a[b]"),
        ("rule-entry", "//b[not(c)]"),
        ("rule-detail", "//c[parent::b or parent::a]"),
        ("rule-ref", "//*[d = 100]"),
        ("rule-leaf", "//*[not(child::*)]"),
    ];

    let cfg = RandomDocConfig {
        elements: 5000,
        max_children: 12,
        max_depth: 10,
        ..RandomDocConfig::default()
    };
    let doc = doc_random(7, &cfg);
    println!("document with {} nodes", doc.len());

    let ev = CoreXPathEvaluator::new(&doc);
    let unlimited = EvalBudget::unlimited();
    let t = Instant::now();

    // The XPatterns way: ONE linear-time pass per pattern computes the full
    // match set (S→ from the root / S← semantics) — no per-node loop.
    let mut total = 0usize;
    for (name, pattern) in patterns {
        let q = gkp_xpath::syntax::parse_normalized(pattern).unwrap();
        let compiled = compile_xpatterns(&q).unwrap_or_else(|e| panic!("{pattern}: {e}"));
        let matches = ev
            .evaluate(&compiled, &[doc.root()], &unlimited)
            .expect("an unlimited budget never trips");
        assert!(nodeset::is_normalized(&matches.to_vec()));
        println!("{name:<14} {pattern:<28} matches {:>5} nodes", matches.len());
        total += matches.len();
    }
    println!(
        "matched {total} template targets over {} nodes in {:?} (all patterns, whole document)",
        doc.len(),
        t.elapsed()
    );

    // The backward semantics S← answers the dual question in one pass:
    // *from which context nodes* does a relative pattern select anything?
    let probe = "child::b[child::c]";
    let q = gkp_xpath::syntax::parse_normalized(probe).unwrap();
    let compiled = compile_xpatterns(&q).unwrap();
    let sources =
        ev.matching_contexts(&compiled, &unlimited).expect("an unlimited budget never trips");
    println!("S←[[{probe}]]: {} context nodes have a b-child containing a c", sources.len());
}
