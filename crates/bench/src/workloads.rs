//! Query generators for every experiment in the paper (§2, §9.3, §12).

/// Experiment 1 (Figure 2 left): `//a/b` followed by `k` copies of
/// `/parent::a/b` — antagonist child/parent jumps on `DOC(2)`.
pub fn exp1_query(k: usize) -> String {
    let mut q = String::from("//a/b");
    for _ in 0..k {
        q.push_str("/parent::a/b");
    }
    q
}

/// Experiment 2 (Figure 2 right, Table VII): nested path/RelOp predicates
/// on `DOC'(i)`. Depth 1 is `//*[parent::a/child::* = 'c']`.
pub fn exp2_query(depth: usize) -> String {
    assert!(depth >= 1);
    let mut inner = String::from("parent::a/child::* = 'c'");
    for _ in 1..depth {
        inner = format!("parent::a/child::*[{inner}] = 'c'");
    }
    format!("//*[{inner}]")
}

/// Experiment 3 (Figure 3 left, Table V, Figure 12): nested count()
/// comparisons on `DOC(i)`. Depth 1 is `//a/b[count(parent::a/b) > 1]`.
pub fn exp3_query(depth: usize) -> String {
    assert!(depth >= 1);
    let mut inner = String::from("count(parent::a/b) > 1");
    for _ in 1..depth {
        inner = format!("count(parent::a/b[{inner}]) > 1");
    }
    format!("//a/b[{inner}]")
}

/// Experiment 4 (Figure 3 right): the fixed query `'//a' + q(20) + '//b'`
/// with `q(i) = '//b[ancestor::a' + q(i-1) + '//b]/ancestor::a'`.
pub fn exp4_query(i: usize) -> String {
    fn q(i: usize) -> String {
        if i == 0 {
            String::new()
        } else {
            format!("//b[ancestor::a{}//b]/ancestor::a", q(i - 1))
        }
    }
    format!("//a{}//b", q(i))
}

/// Experiment 5a (Figure 4a): `count(//b/following::b/…/following::b)`
/// with `k-1` following steps.
pub fn exp5a_query(k: usize) -> String {
    assert!(k >= 1);
    format!("count(//b{})", "/following::b".repeat(k - 1))
}

/// Experiment 5b (Figure 4b): `count(//b//b…//b)` with `k` descendant
/// steps on a depth-`i` path of b-nodes.
pub fn exp5b_query(k: usize) -> String {
    assert!(k >= 1);
    format!("count({})", "//b".repeat(k))
}

/// Core XPath scaling workload (Theorem 10.5): a fixed-size query family
/// of pure paths and boolean predicates of size `k`.
pub fn core_query(k: usize) -> String {
    // Alternating child/parent hops with boolean predicates — Core XPath
    // but antagonist, so naive engines blow up while the algebra is linear.
    let mut q = String::from("//a/b[not(c)]");
    for i in 0..k {
        if i % 2 == 0 {
            q.push_str("/parent::a/b[following-sibling::b or not(following::*)]");
        } else {
            q.push_str("/parent::a/b[not(preceding-sibling::zzz)]");
        }
    }
    q
}

/// Extended Wadler scaling workload (Theorem 11.3): positional predicates
/// and `π = c` comparisons, nested `k` deep.
pub fn wadler_query(k: usize) -> String {
    let mut inner = String::from("following-sibling::* and position() != last()");
    for _ in 0..k {
        inner = format!("following-sibling::*[{inner}] and position() != last()");
    }
    format!("//*[{inner}]")
}

/// The 16-query shared-prefix batch workload: every query extends the
/// same `//a//b` spine, so the root descendant pass, the `a`/`b` child
/// expansions and the duplicated predicates dedupe under the batched
/// evaluator's memo. One definition serves the `bench_axes`
/// CI batch guard, the `batch_eval` Criterion bench and the differential
/// suite, so the guard always protects the workload the bench reports.
pub fn batch_shared_prefix() -> Vec<String> {
    [
        "//c",
        "//d",
        "/c",
        "/c/d",
        "//c/d",
        "//c[d]",
        "[c]",
        "[c]/c",
        "[descendant::d]",
        "[descendant::d]//c",
        "//d[not(c)]",
        "//c[following-sibling::c]",
        "[c and descendant::d]",
        "[c]//d",
        "//c/following-sibling::*",
        "[not(descendant::d)]",
    ]
    .iter()
    .map(|s| format!("//a//b{s}"))
    .collect()
}

/// The disjoint control batch: no shared spine structure beyond the
/// normalized `//` head, so batching should gain little — the honest
/// baseline next to [`batch_shared_prefix`].
pub fn batch_disjoint() -> Vec<String> {
    ["//a/b", "//b/c", "//c/d", "//d[c]", "//b[following::c]", "//c/preceding-sibling::*"]
        .iter()
        .map(ToString::to_string)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpath_syntax::parse_normalized;

    #[test]
    fn exp1_matches_paper_example() {
        // "the third query was '//a/b/parent::a/b/parent::a/b'" — the i+1-th
        // query appends '/parent::a/b' to the i-th, starting from '//a/b';
        // so the third query is exp1_query(2).
        assert_eq!(exp1_query(2), "//a/b/parent::a/b/parent::a/b");
        assert_eq!(exp1_query(0), "//a/b");
    }

    #[test]
    fn exp2_matches_paper_examples() {
        assert_eq!(exp2_query(1), "//*[parent::a/child::* = 'c']");
        assert_eq!(exp2_query(2), "//*[parent::a/child::*[parent::a/child::* = 'c'] = 'c']");
        assert_eq!(
            exp2_query(3),
            "//*[parent::a/child::*[parent::a/child::*[parent::a/child::* = 'c'] = 'c'] = 'c']"
        );
    }

    #[test]
    fn exp3_matches_paper_examples() {
        assert_eq!(exp3_query(1), "//a/b[count(parent::a/b) > 1]");
        assert_eq!(exp3_query(2), "//a/b[count(parent::a/b[count(parent::a/b) > 1]) > 1]");
    }

    #[test]
    fn exp4_matches_paper_example() {
        // "the query of size two ... is
        //  //a//b[ancestor::a//b[ancestor::a//b]/ancestor::a//b]/ancestor::a//b"
        assert_eq!(
            exp4_query(2),
            "//a//b[ancestor::a//b[ancestor::a//b]/ancestor::a//b]/ancestor::a//b"
        );
        assert_eq!(exp4_query(0), "//a//b");
    }

    #[test]
    fn exp5_shapes() {
        assert_eq!(exp5a_query(1), "count(//b)");
        assert_eq!(exp5a_query(3), "count(//b/following::b/following::b)");
        assert_eq!(exp5b_query(2), "count(//b//b)");
    }

    #[test]
    fn all_workloads_parse() {
        for k in 1..6 {
            for q in [
                exp1_query(k),
                exp2_query(k),
                exp3_query(k),
                exp4_query(k),
                exp5a_query(k),
                exp5b_query(k),
                core_query(k),
                wadler_query(k),
            ] {
                parse_normalized(&q).unwrap_or_else(|e| panic!("{q}: {e}"));
            }
        }
    }

    #[test]
    fn fragment_expectations() {
        use xpath_core::{classify, Fragment};
        assert_eq!(
            classify(&parse_normalized(&exp1_query(3)).unwrap()).fragment,
            Fragment::CoreXPath
        );
        assert_eq!(
            classify(&parse_normalized(&exp2_query(3)).unwrap()).fragment,
            Fragment::XPatterns
        );
        assert_eq!(
            classify(&parse_normalized(&exp3_query(3)).unwrap()).fragment,
            Fragment::FullXPath
        );
        assert_eq!(
            classify(&parse_normalized(&exp4_query(3)).unwrap()).fragment,
            Fragment::CoreXPath
        );
        assert_eq!(
            classify(&parse_normalized(&core_query(3)).unwrap()).fragment,
            Fragment::CoreXPath
        );
        assert_eq!(
            classify(&parse_normalized(&wadler_query(3)).unwrap()).fragment,
            Fragment::ExtendedWadler
        );
    }
}
