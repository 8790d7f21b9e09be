//! Fragment-lattice conformance: classified queries must (a) be accepted
//! by the corresponding specialized evaluator, (b) produce the same answer
//! as the general engines, and (c) respect the Figure 1 subsumption order.

use gkp_xpath::core::fragment::{classify, Fragment};
use gkp_xpath::core::{corexpath, plan, wadler, Context, Strategy};
use gkp_xpath::xml::generate::{doc_bookstore, doc_figure8, doc_idref_chain};
use gkp_xpath::{Compiler, Document};

/// Queries with their expected classification.
const CLASSIFIED: &[(&str, Fragment)] = &[
    // Core XPath.
    ("//a/b", Fragment::CoreXPath),
    ("/descendant::a/child::b[child::c]", Fragment::CoreXPath),
    ("//b[not(following::*) and (c or d)]", Fragment::CoreXPath),
    ("//d/ancestor-or-self::*", Fragment::CoreXPath),
    ("//*[self::b][not(preceding-sibling::c)]", Fragment::CoreXPath),
    ("//b[//c]", Fragment::CoreXPath),
    // XPatterns.
    ("//b[c = '100']", Fragment::XPatterns),
    ("id('11')/child::*", Fragment::XPatterns),
    ("//*[. = '100']", Fragment::XPatterns),
    ("//b[d = 100][not(c)]", Fragment::XPatterns),
    // Extended Wadler.
    ("//b[position() != last()]", Fragment::ExtendedWadler),
    ("//*[position() = 1 or position() = last()]", Fragment::ExtendedWadler),
    ("//b[position() > last() * 0.5]", Fragment::ExtendedWadler),
    ("//*[c = '100' and position() != 1]", Fragment::ExtendedWadler),
    // Value tests other than `=`: Extended Wadler by Figure 1, though Auto
    // runs them on the XPatterns algebra.
    ("//b[d > 100]", Fragment::ExtendedWadler),
    ("//b[100 < d]", Fragment::ExtendedWadler),
    ("//b[c != 'x']", Fragment::ExtendedWadler),
    // Full XPath.
    ("//b[count(c) > 1]", Fragment::FullXPath),
    ("//b[c = d]", Fragment::FullXPath),
    ("sum(//d)", Fragment::FullXPath),
    ("//*[string(c) = '100']", Fragment::FullXPath),
    ("//*[string-length(.) > 3]", Fragment::FullXPath),
];

#[test]
fn classification_matches_expectations() {
    for (q, expect) in CLASSIFIED {
        let e = gkp_xpath::syntax::parse_normalized(q).unwrap();
        let got = classify(&e).fragment;
        assert_eq!(got, *expect, "{q}");
    }
}

#[test]
fn the_rewrite_keeps_every_label() {
    // Every compile runs the rewrite pass; it must not move a query
    // across Figure 1.
    for (q, expect) in CLASSIFIED {
        let compiled = gkp_xpath::Compiler::new().compile(q).unwrap();
        assert_eq!(compiled.fragment(), *expect, "{q}");
    }
}

#[test]
fn subsumption_order_holds() {
    // Core XPath queries must be accepted by every wider fragment; and a
    // query accepted by a narrower fragment must be accepted by wider ones.
    for (q, frag) in CLASSIFIED {
        let e = gkp_xpath::syntax::parse_normalized(q).unwrap();
        match frag {
            Fragment::CoreXPath => {
                assert!(corexpath::is_core_xpath(&e), "{q}");
                assert!(corexpath::is_xpatterns(&e), "{q} (Core ⊆ XPatterns)");
                assert!(wadler::is_extended_wadler(&e), "{q} (Core ⊆ Wadler)");
            }
            Fragment::XPatterns => {
                assert!(!corexpath::is_core_xpath(&e), "{q}");
                assert!(corexpath::is_xpatterns(&e), "{q}");
            }
            Fragment::ExtendedWadler => {
                assert!(!corexpath::is_xpatterns(&e), "{q}");
                assert!(wadler::is_extended_wadler(&e), "{q}");
            }
            Fragment::FullXPath => {
                assert!(!corexpath::is_xpatterns(&e), "{q}");
                assert!(!wadler::is_extended_wadler(&e), "{q}");
            }
        }
    }
}

fn check_specialized_agreement(doc: &Document) {
    for (q, frag) in CLASSIFIED {
        let e = Compiler::new().parse(q).unwrap();
        let run = |s| plan::execute_adhoc(&e, s, None, doc, Context::of(doc.root())).unwrap();
        let reference = run(Strategy::TopDown);
        // Auto must give the same answer through whatever specialized route.
        assert!(reference.semantically_equal(&run(Strategy::Auto)), "{q}: auto disagrees");
        // The explicitly specialized engine must accept and agree.
        let specialized = match frag {
            Fragment::CoreXPath => Strategy::CoreXPath,
            Fragment::XPatterns => Strategy::XPatterns,
            Fragment::ExtendedWadler | Fragment::FullXPath => Strategy::OptMinContext,
        };
        assert!(reference.semantically_equal(&run(specialized)), "{q}: {specialized:?} disagrees");
    }
}

#[test]
fn specialized_evaluators_agree_on_figure8() {
    check_specialized_agreement(&doc_figure8());
}

#[test]
fn specialized_evaluators_agree_on_bookstore() {
    check_specialized_agreement(&doc_bookstore());
}

#[test]
fn specialized_evaluators_agree_on_idref_chain() {
    check_specialized_agreement(&doc_idref_chain(7));
}

#[test]
fn auto_dispatch_picks_the_advertised_strategy() {
    // Full XPath only by its aggregate: the path inside lifts onto the
    // linear-time algebra. Extended Wadler only by a value test other
    // than `=`: the XPatterns algebra takes it.
    let lifted = [
        ("sum(//d)", Strategy::CoreXPath),
        ("//b[d > 100]", Strategy::XPatterns),
        ("//b[100 < d]", Strategy::XPatterns),
        ("//b[c != 'x']", Strategy::XPatterns),
    ];
    for (q, frag) in CLASSIFIED {
        let e = Compiler::new().parse(q).unwrap();
        let strategy = plan::resolve_auto(&e).0;
        let expected = match (lifted.iter().find(|(l, _)| l == q), frag) {
            (Some(&(_, s)), _) => s,
            (None, Fragment::CoreXPath) => Strategy::CoreXPath,
            (None, Fragment::XPatterns) => Strategy::XPatterns,
            (None, Fragment::ExtendedWadler | Fragment::FullXPath) => Strategy::OptMinContext,
        };
        assert_eq!(strategy, expected, "{q}");
    }
}
