//! The fragment lattice of Figure 1:
//!
//! ```text
//!            Full XPath — polynomial time
//!           ↗                          ↖
//!   XPatterns — O(n)      Extended Wadler Fragment — O(n²) time, O(n) space
//!           ↖                          ↗
//!            Core XPath — O(n)   (also subsumed by XSLT Patterns'98)
//! ```
//!
//! [`classify`] returns the most specific fragment containing a query,
//! which [`crate::plan`] uses to pick the best evaluation algorithm.

use xpath_syntax::Expr;

use crate::corexpath;
use crate::wadler;

/// The fragments of Figure 1, ordered from most to least specific.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Fragment {
    /// Core XPath (§10.1) — linear time `O(|D|·|Q|)`.
    CoreXPath,
    /// XPatterns (§10.2) — linear time `O(|D|·|Q|)`.
    XPatterns,
    /// Extended Wadler (§11.1) — linear space, quadratic time.
    ExtendedWadler,
    /// Full XPath 1.0 — polynomial time (MinContext bounds).
    FullXPath,
}

impl Fragment {
    /// Human-readable name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            Fragment::CoreXPath => "Core XPath",
            Fragment::XPatterns => "XPatterns",
            Fragment::ExtendedWadler => "Extended Wadler Fragment",
            Fragment::FullXPath => "Full XPath",
        }
    }

    /// The paper's complexity headline for the fragment (data complexity).
    pub fn complexity(self) -> &'static str {
        match self {
            Fragment::CoreXPath | Fragment::XPatterns => "time O(n)",
            Fragment::ExtendedWadler => "time O(n^2), space O(n)",
            Fragment::FullXPath => "polynomial time",
        }
    }
}

/// Detailed classification result.
#[derive(Clone, Debug)]
pub struct Classification {
    /// The most specific fragment containing the query.
    pub fragment: Fragment,
    /// Extended-Wadler restriction violations (empty iff the query is in
    /// the fragment); useful diagnostics for query authors.
    pub wadler_violations: Vec<String>,
}

/// Classify a (normalized) expression into the Figure 1 lattice.
pub fn classify(e: &Expr) -> Classification {
    let wadler_violations = wadler::violations(e);
    let fragment = if corexpath::is_core_xpath(e) {
        Fragment::CoreXPath
    } else if corexpath::is_xpatterns(e) {
        Fragment::XPatterns
    } else if wadler_violations.is_empty() {
        Fragment::ExtendedWadler
    } else {
        Fragment::FullXPath
    };
    Classification { fragment, wadler_violations }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpath_syntax::parse_normalized;

    fn frag(q: &str) -> Fragment {
        classify(&parse_normalized(q).unwrap()).fragment
    }

    #[test]
    fn lattice_examples() {
        // Core XPath: pure paths + boolean predicates.
        assert_eq!(
            frag("/descendant::a/child::b[child::c or not(following::*)]"),
            Fragment::CoreXPath
        );
        assert_eq!(frag("//a//b"), Fragment::CoreXPath);
        // XPatterns: id heads and =s predicates.
        assert_eq!(frag("id('x')/child::a"), Fragment::XPatterns);
        assert_eq!(frag("//a[b = 'v']"), Fragment::XPatterns);
        // Extended Wadler: position arithmetic, but no data extraction.
        assert_eq!(frag("//a[position() != last()]"), Fragment::ExtendedWadler);
        assert_eq!(frag("//a[position() > last() * 0.5]"), Fragment::ExtendedWadler);
        // Full XPath: count/sum/string/nset-nset comparisons.
        assert_eq!(frag("//a[count(b) > 1]"), Fragment::FullXPath);
        assert_eq!(frag("//a[b = c]"), Fragment::FullXPath);
        assert_eq!(frag("//a[string(b) = 'x']"), Fragment::FullXPath);
        assert_eq!(frag("sum(//a)"), Fragment::FullXPath);
    }

    #[test]
    fn core_is_subset_of_both_parents() {
        // Figure 1: every Core XPath query is also XPatterns and Extended
        // Wadler.
        for q in ["//a/b", "/descendant::a[not(child::b)]", "//a[b and c]/following::d"] {
            let e = parse_normalized(q).unwrap();
            assert!(corexpath::is_core_xpath(&e), "{q}");
            assert!(corexpath::is_xpatterns(&e), "{q}");
            assert!(wadler::is_extended_wadler(&e), "{q}");
        }
    }

    #[test]
    fn names_and_complexities() {
        assert_eq!(Fragment::CoreXPath.name(), "Core XPath");
        assert_eq!(Fragment::XPatterns.complexity(), "time O(n)");
        assert_eq!(Fragment::ExtendedWadler.complexity(), "time O(n^2), space O(n)");
        assert_eq!(Fragment::FullXPath.complexity(), "polynomial time");
    }

    #[test]
    fn violations_reported_for_full_xpath() {
        let c = classify(&parse_normalized("//a[count(b) > 1]").unwrap());
        assert_eq!(c.fragment, Fragment::FullXPath);
        assert!(!c.wadler_violations.is_empty());
    }

    #[test]
    fn experiment_queries_classification() {
        // Experiment 1 queries are Core XPath (pure antagonist paths).
        assert_eq!(frag("//a/b/parent::a/b"), Fragment::CoreXPath);
        // Experiment 2 queries use nset = 'c' → XPatterns.
        assert_eq!(frag("//*[parent::a/child::* = 'c']"), Fragment::XPatterns);
        // Experiment 3 queries use count() → Full XPath.
        assert_eq!(frag("//a/b[count(parent::a/b) > 1]"), Fragment::FullXPath);
        // Experiment 4 queries are Core XPath.
        assert_eq!(frag("//a//b[ancestor::a//b]/ancestor::a//b"), Fragment::CoreXPath);
    }
}
