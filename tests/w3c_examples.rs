//! The worked examples from the W3C XPath 1.0 Recommendation (§2.5 and the
//! abbreviated-syntax list) — the paper defers its semantics to this
//! document, so its examples double as a conformance suite. Each query is
//! evaluated against a purpose-built document and the result checked both
//! for expected cardinality and for cross-engine agreement.

use gkp_xpath::core::{plan, Context, EvalResult};
use gkp_xpath::{CompiledQuery, Compiler, Document, NodeSet, Value};

/// `q` at the document root.
fn evaluate(d: &Document, q: &str) -> EvalResult<Value> {
    CompiledQuery::compile(q)?.evaluate_root(d)
}

/// The nodes `q` selects at the document root.
fn select(d: &Document, q: &str) -> EvalResult<NodeSet> {
    CompiledQuery::compile(q)?.select(d)
}

fn doc() -> Document {
    Document::parse_str(
        r#"<doc>
          <chapter type="intro"><title>One</title><para>p1</para><para>p2</para></chapter>
          <chapter><title>Two</title><para security="secret">p3</para></chapter>
          <chapter><title>Three</title><section><para>p4</para></section></chapter>
          <chapter><title>Four</title></chapter>
          <chapter><title>Five</title><chapter><title>Nested</title></chapter></chapter>
          <appendix><title>App</title><para>ap</para></appendix>
          <employee name="Jane" secretary="yes" assistant="yes"/>
          <employee name="Bob" secretary="yes"/>
        </doc>"#,
    )
    .unwrap()
}

fn check(q: &str, expect_count: usize) {
    let d = doc();
    let e = Compiler::new().parse(q).unwrap();
    let v = plan::evaluate_all_agree(&e, &d, Context::of(d.root()), 2_000_000)
        .unwrap_or_else(|err| panic!("{q}: {err}"));
    let n = v.as_node_set().map_or(usize::MAX, gkp_xpath::xml::NodeSet::len);
    assert_eq!(n, expect_count, "{q}");
}

#[test]
fn abbreviated_syntax_examples() {
    // From the W3C list of abbreviated-syntax examples (adapted counts for
    // our document).
    check("//doc/chapter", 5); // para is in chapters only via doc
    check("/doc/chapter[5]/section[1]", 0);
    check("/doc/chapter[5]", 1);
    check("//para", 5);
    check("//chapter//para", 4);
    check("/descendant::para", 5);
    check("//chapter/title", 6); // includes the nested chapter's title
    check("/doc/chapter/title", 5);
    check("//@security", 1);
    check("//para[@security = 'secret']", 1);
    check("//employee[@secretary and @assistant]", 1);
    check("//employee[@secretary][@assistant]", 1);
    check("//employee[@secretary]", 2);
    check("//chapter[title = 'Two']", 1);
    check("//chapter[title]", 6);
    check("/doc/chapter[position() = last()]", 1);
    check("/doc/chapter[position() = last() - 1]", 1);
    check("//para[1]", 4); // first para of each parent (incl. section, appendix)
    check("//para[last()]", 4);
    check("/doc/*", 8);
    check("//*", 23);
    check(".//title", 7);
}

#[test]
fn unabbreviated_axis_examples() {
    // §2.5 "Here are some examples of location paths using the
    // unabbreviated syntax".
    check("child::para", 0); // root has no para child
    check("/child::doc/child::chapter", 5);
    check("/descendant::para", 5);
    check("/descendant-or-self::node()/child::para", 5);
    check("//chapter/child::*", 11); // titles + paras + section + nested chapter
    check("//section/ancestor::chapter", 1);
    check("//section/ancestor-or-self::*", 3); // section, chapter, doc
    check("//para/following-sibling::para", 1);
    check("//para/preceding-sibling::para", 1);
    check("/child::doc/child::chapter[position() = 2]/child::title", 1);
    check("//self::para", 5);
    check("/descendant::para[attribute::security = 'secret']/parent::chapter", 1);
}

#[test]
fn positional_and_boolean_combinations() {
    check("/doc/chapter[position() < 3]", 2);
    check("/doc/chapter[position() mod 2 = 1]", 3);
    check("/doc/chapter[title and para]", 2);
    check("/doc/chapter[title or appendix]", 5);
    check("/doc/chapter[not(para) and not(section)]", 2);
    check("//chapter[chapter]", 1); // the one containing a nested chapter
    check("//title[../para]", 3); // titles whose parent also has a para... chapters 1,2 + appendix
}

/// The function-library edge cases the Recommendation spells out verbatim
/// (§4.2 string functions, §4.4 number functions).
#[test]
fn spec_function_edge_cases() {
    let d = doc();
    let eval = |q: &str| evaluate(&d, q).unwrap().to_string();

    // §4.2: substring rounds its arguments and intersects positions.
    assert_eq!(eval("substring('12345', 1.5, 2.6)"), "234");
    assert_eq!(eval("substring('12345', 0, 3)"), "12");
    assert_eq!(eval("substring('12345', 0 div 0, 3)"), "");
    assert_eq!(eval("substring('12345', 1, 0 div 0)"), "");
    assert_eq!(eval("substring('12345', -42, 1 div 0)"), "12345");
    assert_eq!(eval("substring('12345', -1 div 0, 1 div 0)"), "");
    assert_eq!(eval("substring('12345', 2)"), "2345");
    // §4.2: starts-with / contains / substring-before / substring-after.
    assert_eq!(eval("starts-with('pineapple', 'pine')"), "true");
    assert_eq!(eval("contains('pineapple', 'apple')"), "true");
    assert_eq!(eval("substring-before('1999/04/01', '/')"), "1999");
    assert_eq!(eval("substring-after('1999/04/01', '/')"), "04/01");
    assert_eq!(eval("substring-after('1999/04/01', '19')"), "99/04/01");
    // §4.2: translate's two behaviours (replace and delete).
    assert_eq!(eval("translate('bar', 'abc', 'ABC')"), "BAr");
    assert_eq!(eval("translate('--aaa--', 'abc-', 'ABC')"), "AAA");
    // §4.2: normalize-space and string-length.
    assert_eq!(eval("normalize-space('  a  b  ')"), "a b");
    assert_eq!(eval("string-length('pineapple')"), "9");
    // §4.4: round's special cases (round(-0.5) is negative zero).
    assert_eq!(eval("round(2.5)"), "3");
    assert_eq!(eval("round(-2.5)"), "-2");
    assert_eq!(eval("floor(2.6)"), "2");
    assert_eq!(eval("ceiling(2.2)"), "3");
    assert_eq!(eval("floor(-2.2)"), "-3");
    assert_eq!(eval("ceiling(-2.6)"), "-2");
    // §3.5 numeric semantics: IEEE 754 with NaN/Infinity spellings.
    assert_eq!(eval("1 div 0"), "Infinity");
    assert_eq!(eval("-1 div 0"), "-Infinity");
    assert_eq!(eval("0 div 0"), "NaN");
    assert_eq!(eval("5 mod 2"), "1");
    assert_eq!(eval("5 mod -2"), "1");
    assert_eq!(eval("-5 mod 2"), "-1");
    assert_eq!(eval("-5 mod -2"), "-1");
    // §4.3 boolean conversions.
    assert_eq!(eval("boolean(0 div 0)"), "false");
    assert_eq!(eval("boolean(-0)"), "false");
    assert_eq!(eval("boolean('false')"), "true", "non-empty string is true");
    assert_eq!(eval("number('  12.5 ')"), "12.5");
    assert_eq!(eval("number('12.5x')"), "NaN");
    assert_eq!(eval("number(true())"), "1");
}

/// lang() per §4.3: case-insensitive, sublanguage suffixes, inheritance.
#[test]
fn spec_lang_function() {
    let d = Document::parse_str(
        r#"<doc xml:lang="en"><p/><q xml:lang="EN-US"><r/></q><s xml:lang="de"/></doc>"#,
    )
    .unwrap();
    assert_eq!(select(&d, "//p[lang('en')]").unwrap().len(), 1);
    assert_eq!(select(&d, "//q[lang('en')]").unwrap().len(), 1, "en-us matches en");
    assert_eq!(select(&d, "//r[lang('en-us')]").unwrap().len(), 1, "inherited");
    assert_eq!(select(&d, "//s[lang('en')]").unwrap().len(), 0);
    assert_eq!(select(&d, "//*[lang('de')]").unwrap().len(), 1);
}

/// Union expressions and the `|` examples of §2 / §3.3.
#[test]
fn union_examples() {
    check("//para | //title", 12);
    check("/doc/chapter[1]/title | /doc/appendix/title", 2);
    check("//employee/@secretary | //employee/@assistant", 3);
    // Unions keep document order and deduplicate.
    let d = doc();
    let u = select(&d, "//para | //para | /doc/chapter[1]//*").unwrap();
    let ids = u.to_vec();
    assert!(ids.windows(2).all(|w| w[0] < w[1]), "document order, no duplicates");
}

#[test]
fn string_values_of_examples() {
    let d = doc();
    assert_eq!(evaluate(&d, "string(/doc/chapter[1]/title)").unwrap().to_string(), "One");
    assert_eq!(
        evaluate(&d, "normalize-space(string(//appendix))").unwrap().to_string(),
        "Appap" // no whitespace between </title> and <para>
    );
    assert_eq!(evaluate(&d, "count(//employee/@*)").unwrap().to_string(), "5");
    assert_eq!(evaluate(&d, "string(//employee[@assistant]/@name)").unwrap().to_string(), "Jane");
}
