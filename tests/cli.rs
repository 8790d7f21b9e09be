//! End-to-end tests of the `xpq` command-line tool: spawn the real binary
//! and check stdout/stderr/exit codes for each mode.

use std::io::Write;
use std::process::{Command, Stdio};

const XML: &str = r#"<library><book year="1994"><title>Foundations</title></book><book year="2002"><title>XPath</title></book></library>"#;

fn xpq(args: &[&str], stdin: &str) -> (String, String, i32) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_xpq"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn xpq");
    // If the query is rejected before stdin is read (parse errors exit
    // early), the pipe closes and the write fails with EPIPE — fine.
    let _ = child.stdin.as_mut().unwrap().write_all(stdin.as_bytes());
    let out = child.wait_with_output().expect("wait");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code().unwrap_or(-1),
    )
}

#[test]
fn node_set_query_prints_string_values() {
    let (stdout, _, code) = xpq(&["//title"], XML);
    assert_eq!(code, 0);
    assert_eq!(stdout, "Foundations\nXPath\n");
}

#[test]
fn scalar_query_prints_value() {
    let (stdout, _, code) = xpq(&["count(//book)"], XML);
    assert_eq!(code, 0);
    assert_eq!(stdout.trim(), "2");
}

#[test]
fn attribute_results_show_name_and_value() {
    let (stdout, _, code) = xpq(&["//book[2]/@year"], XML);
    assert_eq!(code, 0);
    assert_eq!(stdout.trim(), "@year=2002");
}

#[test]
fn serialize_mode_prints_xml() {
    let (stdout, _, code) = xpq(&["--serialize", "//book[1]"], XML);
    assert_eq!(code, 0);
    assert!(stdout.contains("<book year=\"1994\"><title>Foundations</title></book>"), "{stdout}");
}

#[test]
fn classify_mode() {
    let (stdout, _, code) = xpq(&["-c", "//book[title]"], "");
    assert_eq!(code, 0);
    assert!(stdout.to_lowercase().contains("core"), "{stdout}");
    let (stdout, _, _) = xpq(&["-c", "//book[position() = last()]"], "");
    assert!(!stdout.to_lowercase().starts_with("core xpath"), "{stdout}");
}

#[test]
fn normalize_mode() {
    let (stdout, _, code) = xpq(&["-n", "//a[5]"], "");
    assert_eq!(code, 0);
    assert_eq!(stdout.trim(), "/descendant-or-self::node()/child::a[position() = 5]");
}

#[test]
fn explain_mode_reports_streamability() {
    // The lazy: line carries the analyzer's two-valued verdict.
    let (stdout, _, code) = xpq(&["--explain", "//book[title]"], "");
    assert_eq!(code, 0);
    assert!(stdout.contains("lazy:      lazy — spine streams"), "{stdout}");
    // It states the route rule, not a size threshold.
    assert!(
        stdout.contains("a take hint runs it window by window; full drains materialize"),
        "{stdout}"
    );
    // A reverse step in the spine, or a query outside the algebra,
    // materializes and says why.
    let (stdout, _, _) = xpq(&["--explain", "//book/parent::*"], "");
    assert!(stdout.contains("lazy:      materialize — parent::"), "{stdout}");
    let (stdout, _, _) = xpq(&["--explain", "count(//book[1])"], "");
    assert!(stdout.contains("lazy:      materialize — runs on OptMinContext"), "{stdout}");
    // Paths lifted out of an aggregate feed a fold, which needs them whole.
    let (stdout, _, _) = xpq(&["--explain", "count(//book)"], "");
    assert!(stdout.contains("lazy:      materialize — paths lifted onto the algebra"), "{stdout}");
    // An explicit general strategy materializes even a forward spine.
    let (stdout, _, _) = xpq(&["--explain", "-s", "topdown", "//book[title]"], "");
    assert!(stdout.contains("lazy:      materialize — runs on TopDown"), "{stdout}");
    // The lazy: line is the only laziness verdict explain prints.
    assert!(!stdout.contains("streaming:") && !stdout.contains("rewrite:"), "{stdout}");
}

#[test]
fn explain_lists_lifted_paths_and_the_outer_fold() {
    let (stdout, _, code) =
        xpq(&["--explain", "count(//book[author]) > count(//book[@id = 'b1'])"], "");
    assert_eq!(code, 0);
    assert!(stdout.contains("strategy:  XPatterns"), "{stdout}");
    assert!(
        stdout
            .contains("lifted:    2 path(s) on the §10 algebra; outer fold: count(#0) > count(#1)"),
        "{stdout}"
    );
    assert!(stdout.contains("#0 Core XPath"), "{stdout}");
    assert!(stdout.contains("#1 XPatterns"), "{stdout}");
    // The general evaluators' Wadler restrictions no longer explain it.
    assert!(!stdout.contains("OptMinContext") && !stdout.contains("is not allowed"), "{stdout}");
    assert!(stdout.contains("lazy:      materialize — paths lifted"), "{stdout}");
    // A remainder that does not lift keeps Figure 1's account.
    let (stdout, _, _) = xpq(&["--explain", "count(//book[count(author) > 1])"], "");
    assert!(stdout.contains("OptMinContext") && stdout.contains("is not allowed"), "{stdout}");
    assert!(!stdout.contains("lifted:"), "{stdout}");
}

#[test]
fn explain_shows_the_constant_empty_short_circuit() {
    let (stdout, _, code) = xpq(&["--explain", "//text()/child::*"], "");
    assert_eq!(code, 0);
    assert!(stdout.contains("const:"), "{stdout}");
    assert!(stdout.contains("short-circuits"), "{stdout}");
    assert!(stdout.contains("lint:"), "{stdout}");
}

#[test]
fn lint_mode_reports_diagnostics_and_exit_codes() {
    // Warnings (provably empty) exit 0.
    let (stdout, _, code) = xpq(&["--lint", "//text()/child::*"], "");
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("warning[empty-query]"), "{stdout}");
    assert!(stdout.contains("lint: 1 analyzed"), "{stdout}");
    // Errors (unknown function) exit 1.
    let (stdout, _, code) = xpq(&["--lint", "//a[string-join(b, ',')]"], "");
    assert_eq!(code, 1);
    assert!(stdout.contains("error[unknown-function]"), "{stdout}");
    // An unparseable corpus member is an error diagnostic, not an abort:
    // the rest of the batch is still checked.
    let (stdout, _, code) = xpq(&["--lint", "-e", "(((", "-e", "//a/b"], "");
    assert_eq!(code, 1);
    assert!(stdout.contains("error[parse-error]"), "{stdout}");
    assert!(stdout.contains("# //a/b"), "{stdout}");
    // Clean queries report their lazy verdict and exit 0.
    let (stdout, _, code) = xpq(&["--lint", "-e", "//a/b", "-e", "//author/parent::book"], "");
    assert_eq!(code, 0);
    assert!(stdout.contains("laziness: lazy\n"), "{stdout}");
    assert!(stdout.contains("laziness: materialize — parent::"), "{stdout}");
    assert!(stdout.contains("lint: 2 analyzed: 0 empty, 0 const-folded; 1 lazy / 1 materialized"));
    // A query outside an explicitly requested fragment is an error.
    let (stdout, _, code) = xpq(&["--lint", "-s", "corexpath", "count(//a)"], "");
    assert_eq!(code, 1);
    assert!(stdout.contains("error[compile-error]: unsupported fragment"), "{stdout}");
}

#[test]
fn lint_json_is_machine_readable() {
    let (stdout, _, code) =
        xpq(&["--lint", "--json", "-e", "//text()/child::*", "-e", "//a/b"], "");
    assert_eq!(code, 0);
    assert!(stdout.contains("\"satisfiable\": false"), "{stdout}");
    assert!(stdout.contains("\"laziness\": \"lazy\""), "{stdout}");
    assert!(stdout.contains("\"laziness\": \"materialize\", \"reason\": \"the plan"), "{stdout}");
    assert!(stdout.contains("\"lazy\": 1, \"materialized\": 1"), "{stdout}");
    assert!(stdout.contains("\"code\": \"empty-query\""), "{stdout}");
    assert!(stdout.contains("\"summary\""), "{stdout}");
    assert!(stdout.contains("\"provably_empty\": 1"), "{stdout}");
    // Quotes inside query text are escaped.
    let (stdout, _, _) = xpq(&["--lint", "--json", "//a[b = \"x\"]"], "");
    assert!(stdout.contains("\\\"x\\\""), "{stdout}");
    // --json without --lint is a usage error.
    let (_, stderr, code) = xpq(&["--json", "//a"], "");
    assert_eq!(code, 2);
    assert!(stderr.contains("--json requires --lint"), "{stderr}");
}

#[test]
fn explicit_strategies_agree() {
    for s in ["naive", "pool", "bottomup", "topdown", "mincontext", "optmincontext", "auto"] {
        let (stdout, stderr, code) = xpq(&["-s", s, "count(//book)"], XML);
        assert_eq!(code, 0, "{s}: {stderr}");
        assert_eq!(stdout.trim(), "2", "{s}");
    }
    // Fragment strategies on fragment queries.
    for s in ["corexpath", "xpatterns"] {
        let (stdout, _, code) = xpq(&["-s", s, "//title"], XML);
        assert_eq!(code, 0, "{s}");
        assert_eq!(stdout, "Foundations\nXPath\n", "{s}");
    }
    // There is no streaming strategy (the cursor is the one lazy
    // evaluator): unknown names are usage errors listing the valid
    // strategies, never a silent fallback to auto.
    for s in ["stream", "streaming", "fast"] {
        let (stdout, stderr, code) = xpq(&["-s", s, "//title"], XML);
        assert_eq!(code, 2, "{s}: {stderr}");
        assert!(stdout.is_empty(), "{s}: {stdout}");
        assert!(stderr.contains(&format!("unknown strategy \"{s}\"")), "{stderr}");
        assert!(stderr.contains("valid strategies: naive pool bottomup topdown"), "{stderr}");
    }
}

#[test]
fn fragment_strategy_rejects_outside_queries() {
    let (_, stderr, code) = xpq(&["-s", "corexpath", "count(//book)"], XML);
    assert_ne!(code, 0);
    assert!(stderr.contains("unsupported"), "{stderr}");
}

#[test]
fn verify_mode_runs_the_oracle() {
    let (stdout, stderr, code) = xpq(&["--verify", "//book[1]/title"], XML);
    assert_eq!(code, 0, "{stderr}");
    assert!(stderr.contains("all algorithms agree"), "{stderr}");
    assert_eq!(stdout.trim(), "Foundations");
}

#[test]
fn stats_and_time_flags() {
    let (_, stderr, code) = xpq(&["--stats", "--time", "//title"], XML);
    assert_eq!(code, 0);
    assert!(stderr.contains("nodes: "), "{stderr}");
    assert!(stderr.contains("evaluate: "), "{stderr}");
}

#[test]
fn ns_flag_enables_namespace_nodes() {
    let doc = r#"<a xmlns:p="urn:p"><p:b>x</p:b></a>"#;
    let (stdout, _, code) = xpq(&["--ns", "count(//namespace::*)"], doc);
    assert_eq!(code, 0);
    // a and p:b each carry p + implicit xml.
    assert_eq!(stdout.trim(), "4");
    // Without --ns, xmlns stays an attribute and no namespace nodes exist.
    let (stdout, _, _) = xpq(&["count(//namespace::*)"], doc);
    assert_eq!(stdout.trim(), "0");
}

#[test]
fn bad_query_and_bad_xml_fail_cleanly() {
    let (_, stderr, code) = xpq(&["//["], XML);
    assert_eq!(code, 2);
    assert!(stderr.contains("query error"), "{stderr}");
    let (_, stderr, code) = xpq(&["//a"], "<a><b></a>");
    assert_eq!(code, 1);
    assert!(stderr.contains("XML error"), "{stderr}");
}

#[test]
fn optimize_flag_rewrites_normalized_output() {
    // Every compile runs the rewrite pass: `-n` prints `//` merged into
    // one descendant step, without the `self::node()` step.
    let (out, _, code) = xpq(&["-n", "//b/self::node()"], "");
    assert_eq!(code, 0);
    assert_eq!(out.trim(), "/descendant::b");
    // The flag that used to switch the pass on is a usage error.
    for flag in ["-O", "--optimize"] {
        let (_, stderr, code) = xpq(&[flag, "//book/title"], XML);
        assert_eq!(code, 2, "{flag}: {stderr}");
        assert!(stderr.contains("rewrite pass"), "{stderr}");
    }
}

#[test]
fn repeat_flag_reuses_the_compiled_query() {
    let (stdout, stderr, code) = xpq(&["--repeat", "50", "--time", "count(//book)"], XML);
    assert_eq!(code, 0, "{stderr}");
    assert_eq!(stdout.trim(), "2", "result printed once, not per run");
    assert!(stderr.contains("compile: "), "{stderr}");
    assert!(stderr.contains("50 runs"), "{stderr}");
    // Repeats go through a pre-warmed QueryCache: one compile, hits after.
    assert!(stderr.contains("cache: 49 hits, 1 misses"), "{stderr}");
    // Invalid counts are rejected.
    let (_, stderr, code) = xpq(&["-r", "0", "//book"], XML);
    assert_eq!(code, 2);
    assert!(stderr.contains("invalid repeat count"), "{stderr}");
}

#[test]
fn verbose_reports_fragment_and_strategy() {
    let (_, stderr, code) = xpq(&["-v", "//title"], XML);
    assert_eq!(code, 0);
    assert!(stderr.contains("fragment:"), "{stderr}");
    assert!(stderr.contains("strategy:"), "{stderr}");
}

#[test]
fn removed_thread_options_are_usage_errors() {
    // Every evaluation runs on its calling thread; the options that once
    // capped a batch fan-out are unknown now. `-T` and `--threads` fall
    // into the positional slots, which leaves one argument too many.
    for flag in ["-T", "--threads"] {
        let (_, stderr, code) = xpq(&[flag, "2", "//title"], XML);
        assert_eq!(code, 2, "{flag}: {stderr}");
        let (stdout, stderr, code) = xpq(&[flag, "2", "-e", "//title", "-e", "//book"], XML);
        assert_eq!((stdout.as_str(), code), ("", 2), "{flag}: {stderr}");
    }
    let (_, stderr, code) = xpq(&["serve", "--max-threads", "2"], "");
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("unknown flag --max-threads"), "{stderr}");
}

#[test]
fn batch_expressions_evaluate_in_one_pass_with_headers() {
    let (stdout, _, code) = xpq(&["-e", "//title", "-e", "count(//book)"], XML);
    assert_eq!(code, 0);
    assert_eq!(stdout, "# //title\nFoundations\nXPath\n# count(//book)\n2\n");
}

#[test]
fn batch_results_match_independent_invocations() {
    let queries = ["//title", "count(//book)", "//book[@year > 2000]/title", "//title"];
    let mut args: Vec<&str> = Vec::new();
    for q in &queries {
        args.push("-e");
        args.push(q);
    }
    let (stdout, _, code) = xpq(&args, XML);
    assert_eq!(code, 0);
    let mut expected = String::new();
    for q in &queries {
        let (one, _, code) = xpq(&[q], XML);
        assert_eq!(code, 0, "{q}");
        expected.push_str(&format!("# {q}\n{one}"));
    }
    assert_eq!(stdout, expected, "batched output must equal N independent runs");
}

#[test]
fn batch_verbose_reports_mode_and_memo_hits() {
    // A duplicated query repeats every unit, so the batch memo is
    // attached and serves the second copy's steps.
    let (_, stderr, code) =
        xpq(&["-v", "-e", "//book/title", "-e", "//book/title", "-e", "//book/@year"], XML);
    assert_eq!(code, 0, "{stderr}");
    assert!(stderr.contains("batch: mode=lock_step_shared"), "{stderr}");
    let hits: u64 = stderr
        .split_once(" memo hits")
        .and_then(|(head, _)| head.rsplit(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no memo-hit count: {stderr}"));
    assert!(hits > 0, "{stderr}");
}

#[test]
fn query_file_feeds_the_batch() {
    let path = gkp_xpath::xml::temp::TempPath::new("queries.txt");
    std::fs::write(&path, "# a comment\n//title\n\ncount(//book)\n").unwrap();
    let (stdout, stderr, code) = xpq(&["--query-file", path.to_str().unwrap()], XML);
    assert_eq!(code, 0, "{stderr}");
    assert_eq!(stdout, "# //title\nFoundations\nXPath\n# count(//book)\n2\n");
    // A missing file is a usage error.
    let (_, stderr, code) = xpq(&["--query-file", "/no/such/file"], XML);
    assert_eq!(code, 2);
    assert!(stderr.contains("cannot read"), "{stderr}");
}

#[test]
fn explain_sizes_come_from_the_given_document() {
    // A FILE or --snapshot sets |D| to the document's node count, for the
    // single-query report and the batch report alike.
    let n = gkp_xpath::Document::parse_str(XML).unwrap().len();
    let xml = gkp_xpath::xml::temp::TempPath::new("explain.xml");
    std::fs::write(&xml, XML).unwrap();
    let snap = gkp_xpath::xml::temp::TempPath::new("explain.gksnap");
    let doc = gkp_xpath::Document::parse_str(XML).unwrap();
    gkp_xpath::xml::snap::write(&doc, &snap).unwrap();
    let xml_path = xml.to_str().unwrap();
    let snap_path = snap.to_str().unwrap();
    for args in [
        vec!["--explain", "//book[title]", xml_path],
        vec!["--explain", "--snapshot", snap_path, "//book[title]"],
        vec!["--explain", "-e", "//book", "-e", "//title", xml_path],
    ] {
        let (stdout, stderr, code) = xpq(&args, "");
        assert_eq!(code, 0, "{args:?}: {stderr}");
        assert!(stdout.contains(&format!("|D|:       {n} nodes (the given document)")), "{stdout}");
        assert!(stdout.contains(&format!("|D| = {n}")), "{args:?}: {stdout}");
        assert!(!stdout.contains("|D| = 1000"), "{args:?}: {stdout}");
    }
    // Without a document the size is assumed, and said to be.
    let (stdout, _, code) = xpq(&["--explain", "//book[title]"], "");
    assert_eq!(code, 0);
    assert!(stdout.contains("|D|:       1000 nodes (assumed"), "{stdout}");
    assert!(stdout.contains("|D| = 1000"), "{stdout}");
    // The planner lines state the materialization rule at that size.
    assert!(stdout.contains("sorted vec below 32 result nodes"), "{stdout}");
}

#[test]
fn batch_explain_reports_the_mode_decision() {
    let (stdout, _, code) = xpq(&["--explain", "-e", "//book[author]", "-e", "//book[author]"], "");
    assert_eq!(code, 0);
    assert!(stdout.contains("batch:"), "{stdout}");
    assert!(stdout.contains("batch mode @"), "{stdout}");
    assert!(stdout.contains("step units shared"), "{stdout}");
    // The duplicate repeats every unit: the memo rule is stated, the
    // retired cost crossover is not.
    assert!(stdout.contains("memo: attached"), "{stdout}");
    assert!(!stdout.contains("pays above") && !stdout.contains("repay"), "{stdout}");
}

#[test]
fn batch_explain_sections_print_in_input_order() {
    let queries = ["//book[author]", "count(//book)", "//title", "//book[2]"];
    let mut args = vec!["--explain"];
    for q in &queries {
        args.push("-e");
        args.push(q);
    }
    let (stdout, _, code) = xpq(&args, "");
    assert_eq!(code, 0);
    // One `# query` header per member, in exactly the order given.
    let headers: Vec<&str> =
        stdout.lines().filter(|l| l.starts_with("# ")).map(|l| &l[2..]).collect();
    assert_eq!(headers, queries, "{stdout}");
    // --lint honors the same ordering contract.
    let mut args = vec!["--lint"];
    for q in &queries {
        args.push("-e");
        args.push(q);
    }
    let (stdout, _, _) = xpq(&args, "");
    let headers: Vec<&str> =
        stdout.lines().filter(|l| l.starts_with("# ")).map(|l| &l[2..]).collect();
    assert_eq!(headers, queries, "{stdout}");
}

#[test]
fn batch_per_query_errors_keep_the_rest() {
    // A query outside the requested fragment fails the whole compile...
    let (_, stderr, code) = xpq(&["-s", "corexpath", "-e", "//title", "-e", "count(//book)"], XML);
    assert_ne!(code, 0);
    assert!(stderr.contains("unsupported"), "{stderr}");
    // ...while a runtime-failing member (unknown functions surface at
    // evaluation time) only fails its own slot: the healthy result still
    // prints, the error goes to stderr, and the exit code reports it.
    let (stdout, stderr, code) = xpq(&["-e", "count(//book)", "-e", "bogus(//book)"], XML);
    assert_eq!(code, 1, "{stderr}");
    assert!(stdout.contains("# count(//book)\n2\n"), "{stdout}");
    assert!(stderr.contains("unknown function"), "{stderr}");
    // Scalar oddities are results, not errors.
    let (stdout, _, code) = xpq(&["-e", "count(//book)", "-e", "1 div 0"], XML);
    assert_eq!(code, 0);
    assert!(stdout.contains("Infinity") || stdout.contains("inf"), "{stdout}");
}

/// The per-query `laziness` values of an `xpq --lint --json` report, in
/// input order.
fn lint_json_verdicts(stdout: &str) -> Vec<bool> {
    stdout
        .lines()
        .filter(|l| l.trim_start().starts_with("{\"query\""))
        .map(|l| {
            if l.contains("\"laziness\": \"lazy\"") {
                true
            } else if l.contains("\"laziness\": \"materialize\"") {
                false
            } else {
                panic!("no laziness verdict in {l}")
            }
        })
        .collect()
}

/// The `lazy:` verdicts of an `xpq --explain` batch report, in input
/// order.
fn explain_verdicts(stdout: &str) -> Vec<bool> {
    stdout
        .lines()
        .filter_map(|l| l.strip_prefix("lazy:"))
        .map(|rest| match rest.split_whitespace().next() {
            Some("lazy") => true,
            Some("materialize") => false,
            other => panic!("unexpected lazy: line {other:?}"),
        })
        .collect()
}

/// `--lint`, `--explain` and the cursor all read one lazy verdict: on
/// every query of every checked-in corpus, plus predicate, relative,
/// scalar and const-folded shapes, the three must agree.
#[test]
fn lint_explain_and_cursor_agree_on_the_lazy_verdict() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("queries");
    let mut corpora: Vec<(String, Vec<String>)> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "txt"))
        .map(|p| {
            let queries = std::fs::read_to_string(&p)
                .unwrap()
                .lines()
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(String::from)
                .collect();
            (p.display().to_string(), queries)
        })
        .collect();
    corpora.sort();
    assert!(corpora.len() >= 3, "{corpora:?}");
    let extras = ["//a[b]", "a/b", "count(//a)", "//text()/child::*"];
    corpora.push(("extras".into(), extras.iter().map(ToString::to_string).collect()));

    let compiler = gkp_xpath::Compiler::new();
    let mut verdicts = std::collections::HashMap::new();
    for (name, queries) in &corpora {
        let mut args: Vec<&str> = Vec::new();
        for q in queries {
            args.extend(["-e", q.as_str()]);
        }
        let (lint, stderr, code) = xpq(&[&["--lint", "--json"][..], &args].concat(), "");
        assert_eq!(code, 0, "{name}: {stderr}");
        let (explain, stderr, code) = xpq(&[&["--explain"][..], &args].concat(), "");
        assert_eq!(code, 0, "{name}: {stderr}");
        let (lint, explain) = (lint_json_verdicts(&lint), explain_verdicts(&explain));
        assert_eq!(lint.len(), queries.len(), "{name}");
        assert_eq!(explain.len(), queries.len(), "{name}");
        for (i, q) in queries.iter().enumerate() {
            let cursor = compiler.compile(q).unwrap().lazy_eligible();
            assert_eq!(lint[i], cursor, "{name}: {q}: --lint disagrees with the cursor");
            assert_eq!(explain[i], cursor, "{name}: {q}: --explain disagrees with the cursor");
            verdicts.insert(q.clone(), cursor);
        }
    }
    assert!(verdicts["//a[b]"], "//a[b] runs lazily");
    assert!(verdicts["a/b"], "relative forward spines run lazily");
    assert!(!verdicts["count(//a)"], "scalar queries materialize");
    assert!(!verdicts["//text()/child::*"], "const-folded plans materialize");
}

#[test]
fn early_exit_flags_separate_no_match_from_errors() {
    // --exists: exit 0 on a match, 1 on none.
    let (stdout, stderr, code) = xpq(&["--exists", "//book"], XML);
    assert_eq!((stdout.trim(), code), ("true", 0), "{stderr}");
    let (stdout, stderr, code) = xpq(&["--exists", "//nope"], XML);
    assert_eq!((stdout.trim(), code), ("false", 1), "{stderr}");
    // --first: the first match, exit 1 on none.
    let (stdout, stderr, code) = xpq(&["--first", "//title"], XML);
    assert_eq!((stdout.trim(), code), ("Foundations", 0), "{stderr}");
    let (_, stderr, code) = xpq(&["--first", "//nope"], XML);
    assert_eq!(code, 1, "{stderr}");
    // --limit 2: exactly two lines out of three matches.
    let (stdout, stderr, code) = xpq(&["--limit", "2", "//b"], "<a><b>1</b><b>2</b><b>3</b></a>");
    assert_eq!(code, 0, "{stderr}");
    assert_eq!(stdout.lines().collect::<Vec<_>>(), ["1", "2"]);
    // An evaluation error exits 2, never the "no match" 1.
    for flags in [&["--exists"][..], &["--first"], &["--limit", "2"]] {
        let (_, stderr, code) = xpq(&[flags, &["count(//book)"]].concat(), XML);
        assert_eq!(code, 2, "{flags:?}: {stderr}");
        assert!(stderr.contains("evaluation error"), "{flags:?}: {stderr}");
    }
}

#[test]
fn context_free_predicates_after_an_empty_step_evaluate() {
    // The step before each predicate selects nothing; the absolute paths
    // inside must still be covered for the general evaluators.
    let catalog = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/catalog.xml");
    for q in [
        "//nope[position() = count(/catalog)]",
        "/nope[count((/catalog)[1]) = 1]",
        "count(/nope[(/catalog)[1]])",
    ] {
        let (want, stderr, code) = xpq(&["-s", "topdown", q, catalog], "");
        assert_eq!(code, 0, "{q}: {stderr}");
        for s in ["auto", "mincontext", "optmincontext"] {
            let (got, stderr, code) = xpq(&["-s", s, q, catalog], "");
            assert_eq!(code, 0, "{q} under {s}: {stderr}");
            assert_eq!(got, want, "{q} under {s}");
        }
    }
}
