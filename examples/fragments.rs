//! The Figure 1 fragment lattice in action: classify queries, show the
//! strategy Auto dispatch picks, and demonstrate why it matters by racing
//! an antagonist query through the exponential baseline (with a budget)
//! and the paper's algorithms.
//!
//! ```sh
//! cargo run --release --example fragments
//! ```

use std::time::Instant;

use gkp_xpath::core::fragment::classify;
use gkp_xpath::core::naive::NaiveEvaluator;
use gkp_xpath::core::{plan, Context, EvalError};
use gkp_xpath::xml::generate::doc_flat;
use gkp_xpath::{Compiler, Strategy};

fn main() {
    println!("== Figure 1: classification ==");
    let corpus = [
        "/descendant::a/child::b[child::c or not(following::*)]",
        "//a[b = 'v']",
        "id('x')/child::a",
        "//a[position() != last()]",
        "//a[position() > last() * 0.5]",
        "//a[count(b) > 1]",
        "//a[b = c]",
        "sum(//a) + 1",
    ];
    for q in corpus {
        let e = xpath_syntax_parse(q);
        let c = classify(&e);
        println!("{:<28} {:<24} {q}", c.fragment.name(), c.fragment.complexity());
        for v in &c.wadler_violations {
            println!("{:<28} note: {v}", "");
        }
    }

    println!("\n== why it matters: the Experiment-1 antagonist query ==");
    let doc = doc_flat(2);
    let mut q = String::from("//a/b");
    for _ in 0..22 {
        q.push_str("/parent::a/b");
    }
    let e = Compiler::new().parse(&q).unwrap();

    // Exponential baseline, bounded by a step budget.
    let naive = NaiveEvaluator::with_budget(&doc, 3_000_000);
    let t = Instant::now();
    match naive.evaluate(&e, Context::of(doc.root())) {
        Err(EvalError::BudgetExhausted) => println!(
            "naive:           gave up after 3M location steps ({:?}) — Time(|Q|) = |D|^|Q|",
            t.elapsed()
        ),
        Ok(_) => println!("naive:           finished in {:?}", t.elapsed()),
        Err(err) => println!("naive:           error {err}"),
    }

    for (name, s) in [
        ("top-down:", Strategy::TopDown),
        ("min-context:", Strategy::MinContext),
        ("opt-min-context:", Strategy::OptMinContext),
        ("core-xpath:", Strategy::CoreXPath),
        ("auto:", Strategy::Auto),
    ] {
        let t = Instant::now();
        let v = plan::execute_adhoc(&e, s, None, &doc, Context::of(doc.root())).unwrap();
        println!(
            "{name:<16} {} nodes in {:?}",
            v.as_node_set().map_or(0, gkp_xpath::xml::NodeSet::len),
            t.elapsed()
        );
    }
}

fn xpath_syntax_parse(q: &str) -> gkp_xpath::syntax::Expr {
    gkp_xpath::syntax::parse_normalized(q).unwrap()
}
