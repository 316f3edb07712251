//! Scanner-level unit tests: the lexical stripper and each rule on
//! embedded fixtures.

use super::*;

fn parse(src: &str) -> SourceFile {
    SourceFile::parse("crates/server/src/fixture.rs", src)
}

fn findings_of(file: &mut SourceFile, rule: &str) -> Vec<usize> {
    let mut report = LintReport::default();
    match rule {
        RULE_ORDERING => check_ordering(file, &mut report),
        RULE_GUARD => check_guard_across_write(file, &mut report),
        _ => panic!("unsupported rule in fixture helper"),
    }
    report
        .findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| f.line)
        .collect()
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
fn an_allow_comment_silences_nothing() {
    let src = r#"let a = x.load(Ordering::Acquire); // pc-check: allow(ordering-invariant, "why")"#;
    let mut f = parse(src);
    assert_eq!(findings_of(&mut f, RULE_ORDERING), vec![1]);
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
