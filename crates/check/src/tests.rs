//! Scanner-level unit tests: the lexical stripper, test-region tracking,
//! suppression parsing and each rule on embedded fixtures.

use super::*;

fn parse(src: &str) -> SourceFile {
    SourceFile::parse("crates/server/src/fixture.rs", src)
}

fn findings_of(file: &mut SourceFile, rule: &str) -> Vec<usize> {
    let mut report = LintReport::default();
    match rule {
        RULE_UNWRAP => check_no_unwrap_public(file, &mut report),
        RULE_ORDERING => check_ordering_public(file, &mut report),
        RULE_GUARD => check_guard_public(file, &mut report),
        _ => panic!("unsupported rule in fixture helper"),
    }
    report
        .findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| f.line)
        .collect()
}

// Thin pub(crate) shims so the fixtures drive the real rule bodies.
fn check_no_unwrap_public(file: &mut SourceFile, report: &mut LintReport) {
    super::check_no_unwrap(file, report)
}
fn check_ordering_public(file: &mut SourceFile, report: &mut LintReport) {
    super::check_ordering(file, report)
}
fn check_guard_public(file: &mut SourceFile, report: &mut LintReport) {
    super::check_guard_across_write(file, report)
}

#[test]
fn strings_and_comments_are_blanked() {
    let f = parse(
        r#"
let a = "contains .unwrap() and panic!(";
// a comment mentioning .unwrap()
let b = 'x';
"#,
    );
    for line in &f.lines {
        assert!(
            !line.code.contains(".unwrap()"),
            "literal leaked: {:?}",
            line.code
        );
    }
    assert!(f.lines[2].comment.contains(".unwrap()"));
}

#[test]
fn block_comments_nest_and_span_lines() {
    let f =
        parse("/* outer /* inner */ still comment */ let x = 1;\n/* spans\nlines */ let y = 2;");
    assert!(f.lines[0].code.contains("let x = 1;"));
    assert!(!f.lines[0].code.contains("comment"));
    assert!(!f.lines[1].code.contains("spans"));
    assert!(f.lines[2].code.contains("let y = 2;"));
}

#[test]
fn char_literals_do_not_eat_lifetimes() {
    let f = parse("fn f<'a>(x: &'a str) -> &'a str { x }\nlet c = '}';\nlet n = '\\n';");
    assert!(f.lines[0].code.contains("fn f<'a>"));
    // The brace inside the char literal must not skew depth tracking.
    assert!(!f.lines[1].code.contains('}') || f.lines[1].code.matches('}').count() == 0);
}

#[test]
fn cfg_test_regions_are_tracked_by_depth() {
    let src = r#"
fn lib_code() { x.unwrap(); }
#[cfg(test)]
mod tests {
    fn test_code() { y.unwrap(); }
}
fn more_lib() { z.unwrap(); }
"#;
    let mut f = parse(src);
    assert_eq!(findings_of(&mut f, RULE_UNWRAP), vec![2, 7]);
}

#[test]
fn whole_test_files_are_exempt_from_no_unwrap() {
    let mut f = SourceFile::parse(
        "crates/server/src/test_util.rs",
        "fn helper() { x.unwrap(); }",
    );
    assert_eq!(findings_of(&mut f, RULE_UNWRAP), Vec::<usize>::new());
    let mut f = SourceFile::parse(
        "crates/baselines/src/semantic/tests.rs",
        "fn helper() { x.unwrap(); }",
    );
    assert_eq!(findings_of(&mut f, RULE_UNWRAP), Vec::<usize>::new());
}

#[test]
fn expect_matches_only_the_method_call() {
    let mut f = parse("let n = rd.expect_count(n, 16, \"x\");\nlet v = opt.expect(\"boom\");");
    assert_eq!(findings_of(&mut f, RULE_UNWRAP), vec![2]);
}

#[test]
fn suppressions_cover_same_line_and_two_above() {
    let src = r#"
// pc-check: allow(no-unwrap, "fixture: invariant documented")
let a = x.unwrap();
let b = y.unwrap(); // pc-check: allow(no-unwrap, "fixture: also fine")
let c = z.unwrap();
"#;
    let mut f = parse(src);
    let mut report = LintReport::default();
    super::check_no_unwrap(&mut f, &mut report);
    let lines: Vec<usize> = report.findings.iter().map(|f| f.line).collect();
    assert_eq!(lines, vec![5], "only the unsuppressed site fires");
    assert_eq!(report.allowed.len(), 2);
}

#[test]
fn unreasoned_suppressions_are_violations() {
    let src = "let a = x.unwrap(); // pc-check: allow(no-unwrap)";
    let mut f = parse(src);
    let mut report = LintReport::default();
    super::check_no_unwrap(&mut f, &mut report);
    assert_eq!(report.findings.len(), 1);
    assert_eq!(report.findings[0].rule, RULE_SUPPRESSION);
    assert!(report.allowed.is_empty());
}

#[test]
fn ordering_requires_invariant_comment_in_window() {
    let src = r#"
let a = flag.load(Ordering::Acquire);
// ordering: Release publish pairs with the Acquire load in `stop()`.
let b = flag.load(Ordering::Acquire);
let c = n.fetch_add(1, Ordering::Relaxed); // ordering: monotone counter, read after join
"#;
    let mut f = parse(src);
    assert_eq!(findings_of(&mut f, RULE_ORDERING), vec![2]);
}

#[test]
fn ordering_comment_window_is_bounded() {
    let src = "// ordering: too far away\n\n\n\n\n\nlet a = flag.load(Ordering::Acquire);";
    let mut f = parse(src);
    assert_eq!(findings_of(&mut f, RULE_ORDERING), vec![7]);
}

#[test]
fn cmp_ordering_is_ignored() {
    let mut f = parse("a.partial_cmp(&b).map(|o| o == std::cmp::Ordering::Less);");
    assert_eq!(findings_of(&mut f, RULE_ORDERING), Vec::<usize>::new());
}

#[test]
fn guard_across_socket_write_is_flagged() {
    let src = r#"
fn bad(tcp: &TcpTransport, stream: &mut TcpStream, frame: &[u8]) {
    let conns = tcp.conns.lock().unwrap();
    stream.write_all(frame).ok();
}
"#;
    let mut f = parse(src);
    assert_eq!(findings_of(&mut f, RULE_GUARD), vec![4]);
}

#[test]
fn writing_through_the_connection_io_guard_is_allowed() {
    let src = r#"
fn good(conn: &Mutex<Conn>, frame: &[u8]) {
    let mut io = conn.lock().unwrap();
    io.stream.write_all(frame).ok();
}
"#;
    let mut f = parse(src);
    assert_eq!(findings_of(&mut f, RULE_GUARD), Vec::<usize>::new());
}

#[test]
fn dropped_guards_do_not_flag_later_writes() {
    let src = r#"
fn ok(tcp: &TcpTransport, stream: &mut TcpStream, frame: &[u8]) {
    let conns = tcp.conns.lock().unwrap();
    drop(conns);
    stream.write_all(frame).ok();
}
"#;
    let mut f = parse(src);
    assert_eq!(findings_of(&mut f, RULE_GUARD), Vec::<usize>::new());
}

#[test]
fn scope_exit_releases_guards() {
    let src = r#"
fn ok(tcp: &TcpTransport, stream: &mut TcpStream, frame: &[u8]) {
    {
        let conns = tcp.conns.lock().unwrap();
        let _ = conns.len();
    }
    stream.write_all(frame).ok();
}
"#;
    let mut f = parse(src);
    assert_eq!(findings_of(&mut f, RULE_GUARD), Vec::<usize>::new());
}

#[test]
fn recover_helpers_bind_guards_too() {
    let src = r#"
fn bad(tcp: &TcpTransport, stream: &mut TcpStream, frame: &[u8]) {
    let conns = lock_recover(&tcp.conns);
    stream.write_all(frame).ok();
}
"#;
    let mut f = parse(src);
    assert_eq!(findings_of(&mut f, RULE_GUARD), vec![4]);
}

#[test]
fn writing_through_a_recovered_connection_io_guard_is_allowed() {
    let src = r#"
fn good(conn: &Mutex<Conn>, frame: &[u8]) {
    let mut io = crate::sync_util::lock_recover(conn);
    io.stream.write_all(frame).ok();
}
"#;
    let mut f = parse(src);
    assert_eq!(findings_of(&mut f, RULE_GUARD), Vec::<usize>::new());
}

#[test]
fn stream_writes_with_args_are_not_guard_bindings() {
    // `.write(buf)` has arguments — only the empty-paren lock APIs bind.
    let src = "let n = stream.write(&frame[..]);\nstream.write_all(&frame).ok();";
    let mut f = parse(src);
    assert_eq!(findings_of(&mut f, RULE_GUARD), Vec::<usize>::new());
}

#[test]
fn const_expr_evaluator_handles_the_real_shapes() {
    let mut env = BTreeMap::new();
    env.insert("EPOCH_BYTES".to_string(), 8);
    assert_eq!(eval_expr("16", &env), Some(16));
    assert_eq!(eval_expr("4 + EPOCH_BYTES", &env), Some(12));
    assert_eq!(eval_expr("(1 << 23) - 1", &env), Some((1 << 23) - 1));
    assert_eq!(eval_expr("8 << 20", &env), Some(8 << 20));
    assert_eq!(eval_expr("1 + 4 + 24", &env), Some(29));
    assert_eq!(eval_expr("2 * EPOCH_BYTES + 1", &env), Some(17));
    assert_eq!(eval_expr("0x1F", &env), Some(0x1F));
    assert_eq!(eval_expr("MISSING + 1", &env), None);
}

#[test]
fn collect_consts_reads_declarations() {
    let mut out = BTreeMap::new();
    collect_consts(
        "pub const A: u64 = 4096;\nconst B: usize = 33;\npub const C: u64 = 4 + A;\n\
         pub const NOT_INT: &str = \"x\";",
        &mut out,
    );
    assert_eq!(out.get("A"), Some(&4096));
    assert_eq!(out.get("B"), Some(&33));
    assert_eq!(out.get("C"), Some(&4100));
    assert!(!out.contains_key("NOT_INT"));
}

#[test]
fn stale_suppressions_are_reported_by_the_driver() {
    // Driven through run_lint in tests/workspace_clean.rs; here just the
    // bookkeeping: an allow that never matches stays unused.
    let f = parse("// pc-check: allow(no-unwrap, \"nothing here\")\nlet x = 1;");
    assert!(f.suppressions.iter().all(|s| !s.used));
}
