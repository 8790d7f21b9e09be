//! A realistic catalogue workload: attributes, mixed content, ID/IDREF
//! references, and queries across the whole fragment lattice.
//!
//! ```sh
//! cargo run --example bookstore
//! ```

use gkp_xpath::core::Context;
use gkp_xpath::xml::generate::doc_bookstore;
use gkp_xpath::CompiledQuery;

fn main() {
    let doc = doc_bookstore();

    println!("== catalogue queries ==");
    let queries = [
        // Core XPath (linear time).
        "//section/book[author]",
        "//book[not(related)]/title",
        // XPatterns (linear time): =s predicates and id() heads.
        "//book[author/last = 'Koch']/title",
        "id('b2')/related",
        // Extended Wadler (quadratic time, linear space).
        "//book[position() != last()]/title",
        // Full XPath (polynomial time).
        "//book[count(author) > 2]/title",
        "//section[sum(book/@price) > 100]/@name",
    ];
    for q in queries {
        // Compile once: classification, strategy selection and fragment
        // artifacts are all part of the document-independent static phase.
        let compiled = CompiledQuery::compile(q).unwrap();
        let v = compiled.evaluate_root(&doc).unwrap();
        println!("{:<28} {q}", format!("[{}]", compiled.fragment().name()));
        match v {
            gkp_xpath::core::Value::NodeSet(ns) => {
                for n in ns {
                    let text = doc.string_value(n);
                    let shown: String = text.split_whitespace().collect::<Vec<_>>().join(" ");
                    println!(
                        "    -> {}",
                        if shown.is_empty() {
                            doc.name(n).unwrap_or("?").to_string()
                        } else {
                            shown
                        }
                    );
                }
            }
            other => println!("    = {other}"),
        }
    }

    println!("\n== following the ID references (deref_ids / ref relation) ==");
    let b2 = doc.element_by_id("b2").unwrap();
    println!("book b2 relates to:");
    let related = CompiledQuery::compile("id(related)/title").unwrap();
    for n in related.select_at(&doc, Context::of(b2)).unwrap() {
        println!("    -> {}", doc.string_value(n));
    }

    println!("\n== aggregate report ==");
    let eval = |q| CompiledQuery::compile(q).unwrap().evaluate_root(&doc).unwrap();
    println!("books:        {}", eval("count(//book)"));
    println!("total price:  {}", eval("sum(//book/@price)"));
    println!("avg price:    {}", eval("sum(//book/@price) div count(//book)"));
    println!("oldest:       {}", eval("string(//book[not(//book/@year < @year)]/title)"));
}
