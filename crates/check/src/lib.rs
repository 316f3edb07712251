//! `pc_check`: the workspace's concurrency lint.
//!
//! A deliberately small, dependency-free static pass — a line-aware
//! scanner (comments and string literals are stripped by a char-level
//! state machine, `#[cfg(test)]` regions are tracked by brace depth), not
//! a real parser. That buys exactly the class of checks this workspace
//! needs without an AST:
//!
//! * [`RULE_UNWRAP`] — no `unwrap()` / `expect()` / `panic!` /
//!   `unreachable!` / `todo!` / `unimplemented!` in non-test library code
//!   of `pc_server`, `pc_wire` and `pc_sim`. A panic on a serving thread
//!   strands every waiter parked on the same condvar or lock (the PR 8
//!   hung-fleet failure family), so every panic path must either be
//!   rewritten or carry a reasoned [suppression](#suppressions).
//! * [`RULE_ORDERING`] — every atomic `Ordering::{Relaxed, Acquire,
//!   Release, AcqRel, SeqCst}` use must be preceded (within
//!   [`ORDERING_COMMENT_WINDOW`] lines, or trailed on the same line) by an
//!   `ordering:` comment naming the invariant the chosen ordering
//!   provides — what it synchronizes, or why no synchronization is needed.
//! * [`RULE_GUARD`] — in `pc_server::wire`, no lock guard may be held
//!   across a blocking socket write (`write_all`) unless the write goes
//!   *through* that guard: the one per-connection I/O mutex, which *is* the
//!   client's channel and is held for the whole request/reply exchange. Any
//!   other guard (the connection table, say) held across a blocking write
//!   turns one slow peer into a stall for every client.
//! * [`RULE_DRIFT`] — the byte constants in `pc_rtree::proto` (the
//!   paper's cost model) and the packed record sizes in `pc_wire`'s codec
//!   must agree, so the `encoded == wire_bytes() + itemized overhead`
//!   identity pinned by the codec proptests cannot silently rot when
//!   either side's constants move.
//!
//! # Suppressions
//!
//! A finding is suppressed by a comment on the same line, or on one of
//! the two preceding lines:
//!
//! ```text
//! // pc-check: allow(no-unwrap, "constructor precondition, not runtime input")
//! ```
//!
//! The reason is mandatory — an allow without one is itself a violation —
//! and so is usefulness: a suppression that matches no finding is flagged
//! as stale. The report ([`LintReport`]) carries every violation *and*
//! every accepted suppression with its reason, and serializes to JSON for
//! the CI artifact.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

pub const RULE_UNWRAP: &str = "no-unwrap";
pub const RULE_ORDERING: &str = "ordering-invariant";
pub const RULE_GUARD: &str = "no-guard-across-write";
pub const RULE_DRIFT: &str = "wire-const-drift";
pub const RULE_SUPPRESSION: &str = "suppression";

/// How many lines above an `Ordering::*` use the `ordering:` invariant
/// comment may sit (multi-line method chains put the comment above the
/// statement, not the token).
pub const ORDERING_COMMENT_WINDOW: usize = 4;

/// Crates whose library code must be panic-free (rule `no-unwrap`).
const PANIC_FREE_CRATES: &[&str] = &["server", "wire", "sim"];

/// File-name stems that are test code in their entirety (gated by a
/// `#[cfg(test)] mod …;` in their parent, so the region tracker cannot
/// see the attribute from inside the file).
const TEST_FILE_STEMS: &[&str] = &["tests", "proptests", "test_util"];

// ---------------------------------------------------------------------
// Findings and the report
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
pub struct Finding {
    pub rule: &'static str,
    pub file: String,
    pub line: usize,
    pub message: String,
}

#[derive(Clone, Debug)]
pub struct Allowed {
    pub rule: &'static str,
    pub file: String,
    pub line: usize,
    pub reason: String,
}

#[derive(Clone, Debug, Default)]
pub struct LintReport {
    pub files_scanned: usize,
    /// Unsuppressed violations: each one fails the lint.
    pub findings: Vec<Finding>,
    /// Findings covered by a reasoned suppression (reported, not fatal).
    pub allowed: Vec<Allowed>,
}

impl LintReport {
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Finding counts per rule, for the summary table.
    pub fn counts(&self) -> BTreeMap<&'static str, usize> {
        let mut m = BTreeMap::new();
        for f in &self.findings {
            *m.entry(f.rule).or_insert(0) += 1;
        }
        m
    }

    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"files_scanned\": {},", self.files_scanned);
        let _ = writeln!(s, "  \"violations\": {},", self.findings.len());
        let _ = writeln!(s, "  \"allowed\": {},", self.allowed.len());
        s.push_str("  \"findings\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
                f.rule,
                json_escape(&f.file),
                f.line,
                json_escape(&f.message)
            );
            s.push_str(if i + 1 < self.findings.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("  ],\n  \"suppressions\": [\n");
        for (i, a) in self.allowed.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"reason\": \"{}\"}}",
                a.rule,
                json_escape(&a.file),
                a.line,
                json_escape(&a.reason)
            );
            s.push_str(if i + 1 < self.allowed.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("  ]\n}\n");
        s
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------
// Source model: one scanned file
// ---------------------------------------------------------------------

/// One source line after lexical stripping.
#[derive(Clone, Debug, Default)]
pub struct Line {
    /// Code with comments removed and string/char literal *contents*
    /// blanked (delimiters kept), so token searches cannot match inside
    /// literals or docs.
    pub code: String,
    /// Concatenated comment text on the line (line + block comments).
    pub comment: String,
    /// Inside a `#[cfg(test)]`-gated region (or a test-only file).
    pub in_test: bool,
}

/// A parsed `// pc-check: allow(rule, reason)` marker.
#[derive(Clone, Debug)]
struct Suppression {
    rule: String,
    reason: String,
    line: usize,
    /// Trailing comment on a code line (covers that line only) vs a
    /// standalone comment line (covers the next two lines).
    trailing: bool,
    used: bool,
}

pub struct SourceFile {
    /// Path relative to the workspace root, `/`-separated.
    pub rel_path: String,
    pub lines: Vec<Line>,
    suppressions: Vec<Suppression>,
}

impl SourceFile {
    pub fn parse(rel_path: &str, text: &str) -> SourceFile {
        let lines = strip_lines(text);
        let lines = mark_test_regions(rel_path, lines);
        let mut suppressions = Vec::new();
        for (i, line) in lines.iter().enumerate() {
            if let Some((rule, reason)) = parse_allow(&line.comment) {
                suppressions.push(Suppression {
                    rule,
                    reason,
                    line: i + 1,
                    trailing: !line.code.trim().is_empty(),
                    used: false,
                });
            }
        }
        SourceFile {
            rel_path: rel_path.to_string(),
            lines,
            suppressions,
        }
    }

    /// Looks for a suppression of `rule` covering `line` (1-based): a
    /// trailing allow covers exactly its own line; a standalone comment
    /// allow covers the two lines below it.
    fn suppression_for(&mut self, rule: &str, line: usize) -> Option<&mut Suppression> {
        self.suppressions.iter_mut().find(|s| {
            s.rule == rule
                && if s.trailing {
                    s.line == line
                } else {
                    s.line < line && line - s.line <= 2
                }
        })
    }
}

/// Extracts `pc-check: allow(rule, reason...)` from comment text. The
/// marker must *lead* the comment — prose (or docs like this paragraph)
/// that merely mentions the syntax never arms a suppression.
fn parse_allow(comment: &str) -> Option<(String, String)> {
    let trimmed = comment.trim();
    if !trimmed.starts_with("pc-check: allow(") {
        return None;
    }
    let body = &trimmed["pc-check: allow(".len()..];
    let close = body.rfind(')')?;
    let body = &body[..close];
    let (rule, reason) = match body.split_once(',') {
        Some((r, why)) => (r.trim(), why.trim()),
        None => (body.trim(), ""),
    };
    let reason = reason.trim_matches('"').trim();
    Some((rule.to_string(), reason.to_string()))
}

// ---------------------------------------------------------------------
// Lexical stripping: comments out, literal contents blanked
// ---------------------------------------------------------------------

fn strip_lines(text: &str) -> Vec<Line> {
    #[derive(PartialEq)]
    enum State {
        Code,
        Block(u32),    // nested block comment depth
        Str,           // "..."
        RawStr(usize), // r##"..."## with N hashes
    }
    let mut state = State::Code;
    let mut out = Vec::new();
    for raw in text.lines() {
        let mut code = String::with_capacity(raw.len());
        let mut comment = String::new();
        let bytes: Vec<char> = raw.chars().collect();
        let mut i = 0;
        while i < bytes.len() {
            let c = bytes[i];
            let next = bytes.get(i + 1).copied();
            match state {
                State::Block(depth) => {
                    if c == '*' && next == Some('/') {
                        state = if depth == 1 {
                            State::Code
                        } else {
                            State::Block(depth - 1)
                        };
                        i += 2;
                    } else if c == '/' && next == Some('*') {
                        state = State::Block(depth + 1);
                        i += 2;
                    } else {
                        comment.push(c);
                        i += 1;
                    }
                }
                State::Str => {
                    if c == '\\' {
                        code.push(' ');
                        if next.is_some() {
                            code.push(' ');
                            i += 2;
                        } else {
                            i += 1;
                        }
                    } else if c == '"' {
                        code.push('"');
                        state = State::Code;
                        i += 1;
                    } else {
                        code.push(' ');
                        i += 1;
                    }
                }
                State::RawStr(hashes) => {
                    if c == '"' {
                        let mut n = 0;
                        while n < hashes && bytes.get(i + 1 + n) == Some(&'#') {
                            n += 1;
                        }
                        if n == hashes {
                            code.push('"');
                            for _ in 0..hashes {
                                code.push('#');
                            }
                            state = State::Code;
                            i += 1 + hashes;
                            continue;
                        }
                    }
                    code.push(' ');
                    i += 1;
                }
                State::Code => {
                    if c == '/' && next == Some('/') {
                        comment.push_str(&raw[byte_offset(raw, i) + 2..]);
                        break;
                    } else if c == '/' && next == Some('*') {
                        state = State::Block(1);
                        i += 2;
                    } else if c == '"' {
                        code.push('"');
                        state = State::Str;
                        i += 1;
                    } else if c == 'r'
                        && matches!(next, Some('"') | Some('#'))
                        && !prev_is_ident(&code)
                    {
                        // r"..." or r#"..."#
                        let mut hashes = 0;
                        while bytes.get(i + 1 + hashes) == Some(&'#') {
                            hashes += 1;
                        }
                        if bytes.get(i + 1 + hashes) == Some(&'"') {
                            code.push('r');
                            for _ in 0..hashes {
                                code.push('#');
                            }
                            code.push('"');
                            state = State::RawStr(hashes);
                            i += 2 + hashes;
                        } else {
                            code.push(c);
                            i += 1;
                        }
                    } else if c == '\'' {
                        // Char literal vs lifetime: 'x' / '\n' are
                        // literals; 'a in `&'a` is a lifetime.
                        if next == Some('\\') {
                            // Escape: blank until the closing quote.
                            code.push('\'');
                            i += 1;
                            while i < bytes.len() && bytes[i] != '\'' {
                                code.push(' ');
                                i += if bytes[i] == '\\' { 2 } else { 1 };
                            }
                            if i < bytes.len() {
                                code.push('\'');
                                i += 1;
                            }
                        } else if bytes.get(i + 2) == Some(&'\'') {
                            code.push('\'');
                            code.push(' ');
                            code.push('\'');
                            i += 3;
                        } else {
                            code.push(c); // lifetime
                            i += 1;
                        }
                    } else {
                        code.push(c);
                        i += 1;
                    }
                }
            }
        }
        out.push(Line {
            code,
            comment,
            in_test: false,
        });
    }
    out
}

/// Maps a char index back to a byte offset (lines may hold non-ASCII).
fn byte_offset(s: &str, char_idx: usize) -> usize {
    s.char_indices()
        .nth(char_idx)
        .map(|(b, _)| b)
        .unwrap_or(s.len())
}

fn prev_is_ident(code: &str) -> bool {
    code.chars()
        .last()
        .map(|c| c.is_alphanumeric() || c == '_')
        .unwrap_or(false)
}

/// Marks lines inside `#[cfg(test)] <item> { … }` regions (brace-depth
/// tracked) and whole-file test modules (by stem / directory convention).
fn mark_test_regions(rel_path: &str, mut lines: Vec<Line>) -> Vec<Line> {
    let path = Path::new(rel_path);
    let stem = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or_default();
    let whole_file_test = TEST_FILE_STEMS.contains(&stem)
        || rel_path.starts_with("tests/")
        || rel_path.contains("/tests/");
    if whole_file_test {
        for l in &mut lines {
            l.in_test = true;
        }
        return lines;
    }

    let mut depth: i32 = 0;
    // (region entry depth) for each open #[cfg(test)] item body.
    let mut test_regions: Vec<i32> = Vec::new();
    // Saw #[cfg(test)] and waiting for the item's opening brace.
    let mut pending_cfg = false;
    for line in &mut lines {
        let code = line.code.clone();
        if code.contains("#[cfg(test)]") || code.contains("#[cfg(all(test") {
            pending_cfg = true;
        }
        if !test_regions.is_empty() || pending_cfg {
            line.in_test = true;
        }
        for c in code.chars() {
            match c {
                '{' => {
                    if pending_cfg {
                        test_regions.push(depth);
                        pending_cfg = false;
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if let Some(&entry) = test_regions.last() {
                        if depth == entry {
                            test_regions.pop();
                        }
                    }
                }
                // `#[cfg(test)] mod foo;` — out-of-line module, no body
                // here; the file itself is caught by the stem rule.
                ';' if pending_cfg && test_regions.is_empty() => {
                    pending_cfg = false;
                }
                _ => {}
            }
        }
    }
    lines
}

// ---------------------------------------------------------------------
// Rule: no-unwrap
// ---------------------------------------------------------------------

const PANIC_TOKENS: &[&str] = &[
    ".unwrap()",
    ".expect(",
    "panic!(",
    "unreachable!(",
    "todo!(",
    "unimplemented!(",
];

fn check_no_unwrap(file: &mut SourceFile, report: &mut LintReport) {
    for i in 0..file.lines.len() {
        let line = &file.lines[i];
        if line.in_test {
            continue;
        }
        let code = line.code.clone();
        for tok in PANIC_TOKENS {
            if !code.contains(tok) {
                continue;
            }
            // `debug_assert!`-style macros are fine; `.expect(` never
            // matches `expect_count(` etc. because of the leading dot.
            let message = format!(
                "`{}` in non-test library code: a panic here can strand \
                 waiters on this thread's locks/condvars; return a typed \
                 error or add a reasoned allow",
                tok.trim_end_matches('(')
            );
            emit(file, report, RULE_UNWRAP, i + 1, message);
            break; // one finding per line
        }
    }
}

// ---------------------------------------------------------------------
// Rule: ordering-invariant
// ---------------------------------------------------------------------

const ATOMIC_ORDERINGS: &[&str] = &[
    "Ordering::Relaxed",
    "Ordering::Acquire",
    "Ordering::Release",
    "Ordering::AcqRel",
    "Ordering::SeqCst",
];

fn check_ordering(file: &mut SourceFile, report: &mut LintReport) {
    for i in 0..file.lines.len() {
        let code = &file.lines[i].code;
        let Some(which) = ATOMIC_ORDERINGS.iter().find(|o| code.contains(*o)) else {
            continue;
        };
        let lo = i.saturating_sub(ORDERING_COMMENT_WINDOW);
        let documented = (lo..=i).any(|j| {
            file.lines[j]
                .comment
                .to_ascii_lowercase()
                .contains("ordering:")
        });
        if !documented {
            let message = format!(
                "`{which}` without an `ordering:` invariant comment within \
                 {ORDERING_COMMENT_WINDOW} lines naming what it synchronizes"
            );
            emit(file, report, RULE_ORDERING, i + 1, message);
        }
    }
}

// ---------------------------------------------------------------------
// Rule: no-guard-across-write
// ---------------------------------------------------------------------

#[derive(Debug)]
struct LiveGuard {
    name: String,
    source: String,
    decl_depth: i32,
    decl_line: usize,
}

/// Files the socket-write lock-discipline rule applies to.
fn guard_rule_applies(rel_path: &str) -> bool {
    rel_path == "crates/server/src/wire.rs"
}

fn check_guard_across_write(file: &mut SourceFile, report: &mut LintReport) {
    let mut depth: i32 = 0;
    let mut guards: Vec<LiveGuard> = Vec::new();
    for i in 0..file.lines.len() {
        let code = file.lines[i].code.clone();
        let line_start_depth = depth;
        for c in code.chars() {
            match c {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
        }
        // Scope exits kill guards declared deeper.
        guards.retain(|g| depth >= g.decl_depth && line_start_depth >= g.decl_depth);
        // Explicit drops.
        for g_idx in (0..guards.len()).rev() {
            if code.contains(&format!("drop({})", guards[g_idx].name)) {
                guards.remove(g_idx);
            }
        }
        // Blocking socket writes: flag if any live guard is not the one
        // being written through.
        if let Some(pos) = code.find("write_all(") {
            let recv = receiver_before(&code, pos);
            let offenders: Vec<String> = guards
                .iter()
                .filter(|g| recv != g.name && !recv.starts_with(&format!("{}.", g.name)))
                .map(|g| format!("`{}` (line {}, {})", g.name, g.decl_line, g.source))
                .collect();
            if !offenders.is_empty() {
                let message = format!(
                    "blocking socket write with lock guard(s) held: {} — a \
                     slow peer would stall every thread contending on them",
                    offenders.join(", ")
                );
                emit(file, report, RULE_GUARD, i + 1, message);
            }
        }
        // New guard bindings: `let [mut] NAME = EXPR.lock()…` (also
        // `.read()` / `.write()` — empty parens, so `stream.write(buf)`
        // never matches) and the poison-tolerant `sync_util` helpers
        // (`lock_recover(&x)` etc.), which return guards too.
        if let Some(g) = parse_guard_binding(&code, line_start_depth, i + 1) {
            guards.push(g);
        }
    }
}

fn receiver_before(code: &str, call_pos: usize) -> String {
    // `write_all(` may be reached via `x.write_all(`; walk the receiver
    // chain backwards over ident chars and dots.
    let head = &code[..call_pos];
    let mut chars: Vec<char> = head.chars().collect();
    if chars.last() == Some(&'.') {
        chars.pop();
    }
    let mut recv: Vec<char> = Vec::new();
    while let Some(&c) = chars.last() {
        if c.is_alphanumeric() || c == '_' || c == '.' {
            recv.push(c);
            chars.pop();
        } else {
            break;
        }
    }
    recv.reverse();
    let recv: String = recv.into_iter().collect();
    recv.split('.').next().unwrap_or("").to_string()
}

fn parse_guard_binding(code: &str, depth: i32, line_no: usize) -> Option<LiveGuard> {
    let let_pos = code.find("let ")?;
    let rest = &code[let_pos + 4..];
    let rest = rest.strip_prefix("mut ").unwrap_or(rest);
    let (name, after) = rest.split_once('=')?;
    let name = name.trim().trim_end_matches(':').trim();
    if !name.chars().all(|c| c.is_alphanumeric() || c == '_') || name.is_empty() {
        return None;
    }
    let after = after.trim();
    let lockish = [".lock()", ".read()", ".write()"];
    let recoverish = ["lock_recover(", "read_recover(", "write_recover("];
    let source = if let Some(hit) = lockish.iter().find(|t| after.contains(*t)) {
        after
            .find(*hit)
            .map(|p| after[..p].trim().to_string())
            .unwrap_or_default()
    } else if let Some(hit) = recoverish.iter().find(|t| after.contains(*t)) {
        // The guarded lock is the helper's argument: `lock_recover(&x)`.
        let start = after.find(*hit)? + hit.len();
        let arg = after[start..].split(')').next().unwrap_or("");
        arg.trim().trim_start_matches('&').trim().to_string()
    } else {
        return None;
    };
    Some(LiveGuard {
        name: name.to_string(),
        source,
        decl_depth: depth,
        decl_line: line_no,
    })
}

// ---------------------------------------------------------------------
// Rule: wire-const-drift
// ---------------------------------------------------------------------

/// The cross-crate byte-constant identities the codec's size proptests
/// assume. Each is (label, lhs expr, rhs expr, relation) evaluated over
/// the merged constant tables of `pc_rtree::proto` and `pc_wire`.
const DRIFT_IDENTITIES: &[(&str, &str, &str, &str)] = &[
    // The frame doc ("16-byte versioned frame header") and every
    // overhead itemization assume this exact size.
    ("frame-header", "FRAME_HEADER_BYTES", "16", "=="),
    // Shipment cell records pack to the modeled R-tree entry record.
    ("cell-pack", "SIDE_BYTES", "ENTRY_BYTES", "=="),
    // Heap object sides pack to the modeled object header record.
    ("obj-pack", "SIDE_BYTES", "OBJECT_HEADER_BYTES", "=="),
    // A heap entry = confirmation word + one packed side…
    (
        "heap-entry",
        "HEAP_ENTRY_BYTES",
        "CONFIRM_BYTES + SIDE_BYTES",
        "==",
    ),
    // …and a join-pair entry carries a second side.
    (
        "heap-pair",
        "HEAP_PAIR_BYTES",
        "CONFIRM_BYTES + 2 * SIDE_BYTES",
        "==",
    ),
    // The encoded query spec must fit the model's descriptor budget.
    ("spec-budget", "SPEC_BYTES", "QUERY_DESC_BYTES", "<="),
    // Fresh versioned replies itemize exactly variant byte + count word
    // + the reply section header.
    (
        "fresh-overhead",
        "VERSIONED_FRESH_OVERHEAD_BYTES",
        "1 + 4 + RESPONSE_REPLY_HEADER_BYTES",
        "==",
    ),
];

/// Files whose constants feed the drift identities, workspace-relative.
pub const DRIFT_SOURCE_FILES: &[&str] = &[
    "crates/rtree/src/proto.rs",
    "crates/wire/src/codec.rs",
    "crates/wire/src/frame.rs",
    "crates/wire/src/lib.rs",
];

fn check_wire_drift(root: &Path, report: &mut LintReport) {
    let mut consts: BTreeMap<String, i128> = BTreeMap::new();
    let mut tag_consts: Vec<(String, i128)> = Vec::new();
    for rel in DRIFT_SOURCE_FILES {
        let path = root.join(rel);
        let Ok(text) = std::fs::read_to_string(&path) else {
            report.findings.push(Finding {
                rule: RULE_DRIFT,
                file: (*rel).to_string(),
                line: 0,
                message: "drift-check source file missing (moved or renamed?)".into(),
            });
            continue;
        };
        collect_consts(&text, &mut consts);
    }
    for (name, value) in &consts {
        if name.starts_with("REQ_") || name.starts_with("RESP_") {
            tag_consts.push((name.clone(), *value));
        }
    }

    let anchor = |report: &mut LintReport, msg: String| {
        report.findings.push(Finding {
            rule: RULE_DRIFT,
            file: DRIFT_SOURCE_FILES[0].to_string(),
            line: 0,
            message: msg,
        });
    };

    for (label, lhs, rhs, rel) in DRIFT_IDENTITIES {
        let l = eval_expr(lhs, &consts);
        let r = eval_expr(rhs, &consts);
        match (l, r) {
            (Some(l), Some(r)) => {
                let holds = match *rel {
                    "==" => l == r,
                    "<=" => l <= r,
                    other => unreachable!("unknown relation {other}"),
                };
                if !holds {
                    anchor(
                        report,
                        format!(
                            "wire constant drift [{label}]: `{lhs}` = {l} is not {rel} `{rhs}` = {r}"
                        ),
                    );
                }
            }
            _ => anchor(
                report,
                format!(
                    "wire constant drift [{label}]: cannot resolve `{lhs}` {rel} `{rhs}` \
                     (constant renamed or moved out of the scanned files?)"
                ),
            ),
        }
    }

    // Frame tags: requests and responses live in disjoint nibble-ish
    // ranges (`tag::is_request` relies on it) and never collide.
    for (name, v) in &tag_consts {
        let ok = if name.starts_with("REQ_") {
            (1..16).contains(v)
        } else {
            (16..32).contains(v)
        };
        if !ok {
            anchor(
                report,
                format!("wire constant drift [tag-range]: `{name}` = {v} escapes its tag range"),
            );
        }
    }
    for a in 0..tag_consts.len() {
        for b in a + 1..tag_consts.len() {
            if tag_consts[a].1 == tag_consts[b].1 {
                anchor(
                    report,
                    format!(
                        "wire constant drift [tag-collision]: `{}` and `{}` share value {}",
                        tag_consts[a].0, tag_consts[b].0, tag_consts[a].1
                    ),
                );
            }
        }
    }
}

/// Pulls `const NAME: <int type> = EXPR;` declarations out of stripped
/// source text. Expressions resolve lazily via [`eval_expr`].
fn collect_consts(text: &str, out: &mut BTreeMap<String, i128>) {
    let lines = strip_lines(text);
    let mut raw: Vec<(String, String)> = Vec::new();
    for line in &lines {
        let code = line.code.trim();
        let Some(rest) = code
            .strip_prefix("pub const ")
            .or_else(|| code.strip_prefix("const "))
        else {
            continue;
        };
        let Some((name_ty, expr)) = rest.split_once('=') else {
            continue;
        };
        let Some((name, ty)) = name_ty.split_once(':') else {
            continue;
        };
        let ty = ty.trim();
        if !matches!(ty, "u8" | "u16" | "u32" | "u64" | "usize" | "i64") {
            continue;
        }
        let expr = expr.trim().trim_end_matches(';').trim();
        raw.push((name.trim().to_string(), expr.to_string()));
    }
    // Two resolution passes let forward references settle (const order in
    // a file is arbitrary).
    for _ in 0..2 {
        for (name, expr) in &raw {
            if !out.contains_key(name) {
                if let Some(v) = eval_expr(expr, out) {
                    out.insert(name.clone(), v);
                }
            }
        }
    }
}

/// Evaluates an integer const expression: literals (incl. `0x`, `_`),
/// identifiers from `env`, `+ - * << >> |` and parens.
pub fn eval_expr(expr: &str, env: &BTreeMap<String, i128>) -> Option<i128> {
    let tokens = tokenize(expr)?;
    let mut pos = 0;
    let v = parse_or(&tokens, &mut pos, env)?;
    if pos == tokens.len() {
        Some(v)
    } else {
        None
    }
}

#[derive(Clone, Debug, PartialEq)]
enum Tok {
    Num(i128),
    Ident(String),
    Op(&'static str),
    LParen,
    RParen,
}

fn tokenize(s: &str) -> Option<Vec<Tok>> {
    let mut toks = Vec::new();
    let chars: Vec<char> = s.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        match c {
            ' ' | '\t' => i += 1,
            '(' => {
                toks.push(Tok::LParen);
                i += 1;
            }
            ')' => {
                toks.push(Tok::RParen);
                i += 1;
            }
            '+' => {
                toks.push(Tok::Op("+"));
                i += 1;
            }
            '-' => {
                toks.push(Tok::Op("-"));
                i += 1;
            }
            '*' => {
                toks.push(Tok::Op("*"));
                i += 1;
            }
            '|' => {
                toks.push(Tok::Op("|"));
                i += 1;
            }
            '<' if chars.get(i + 1) == Some(&'<') => {
                toks.push(Tok::Op("<<"));
                i += 2;
            }
            '>' if chars.get(i + 1) == Some(&'>') => {
                toks.push(Tok::Op(">>"));
                i += 2;
            }
            '0'..='9' => {
                let start = i;
                let hex = c == '0' && chars.get(i + 1) == Some(&'x');
                if hex {
                    i += 2;
                }
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                let lit: String = chars[start..i].iter().filter(|&&c| c != '_').collect();
                // Strip explicit type suffixes like `16u64` (hex digits
                // must survive, so only the known suffixes come off).
                let mut lit = lit;
                for suffix in [
                    "usize", "isize", "u64", "i64", "u32", "i32", "u16", "i16", "u8", "i8",
                ] {
                    if let Some(body) = lit.strip_suffix(suffix) {
                        if !body.is_empty() {
                            lit = body.to_string();
                        }
                        break;
                    }
                }
                let v = if let Some(h) = lit.strip_prefix("0x") {
                    i128::from_str_radix(h, 16).ok()?
                } else {
                    lit.parse().ok()?
                };
                toks.push(Tok::Num(v));
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                let ident: String = chars[start..i].iter().collect();
                // `EPOCH_BYTES as u64` style casts: skip the keyword and
                // the following type token.
                if ident == "as" {
                    while i < chars.len() && chars[i] == ' ' {
                        i += 1;
                    }
                    while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                        i += 1;
                    }
                } else {
                    toks.push(Tok::Ident(ident));
                }
            }
            _ => return None,
        }
    }
    Some(toks)
}

fn parse_or(toks: &[Tok], pos: &mut usize, env: &BTreeMap<String, i128>) -> Option<i128> {
    let mut v = parse_shift(toks, pos, env)?;
    while toks.get(*pos) == Some(&Tok::Op("|")) {
        *pos += 1;
        v |= parse_shift(toks, pos, env)?;
    }
    Some(v)
}

fn parse_shift(toks: &[Tok], pos: &mut usize, env: &BTreeMap<String, i128>) -> Option<i128> {
    let mut v = parse_add(toks, pos, env)?;
    loop {
        match toks.get(*pos) {
            Some(Tok::Op("<<")) => {
                *pos += 1;
                v <<= parse_add(toks, pos, env)?;
            }
            Some(Tok::Op(">>")) => {
                *pos += 1;
                v >>= parse_add(toks, pos, env)?;
            }
            _ => return Some(v),
        }
    }
}

fn parse_add(toks: &[Tok], pos: &mut usize, env: &BTreeMap<String, i128>) -> Option<i128> {
    let mut v = parse_mul(toks, pos, env)?;
    loop {
        match toks.get(*pos) {
            Some(Tok::Op("+")) => {
                *pos += 1;
                v += parse_mul(toks, pos, env)?;
            }
            Some(Tok::Op("-")) => {
                *pos += 1;
                v -= parse_mul(toks, pos, env)?;
            }
            _ => return Some(v),
        }
    }
}

fn parse_mul(toks: &[Tok], pos: &mut usize, env: &BTreeMap<String, i128>) -> Option<i128> {
    let mut v = parse_atom(toks, pos, env)?;
    while toks.get(*pos) == Some(&Tok::Op("*")) {
        *pos += 1;
        v *= parse_atom(toks, pos, env)?;
    }
    Some(v)
}

fn parse_atom(toks: &[Tok], pos: &mut usize, env: &BTreeMap<String, i128>) -> Option<i128> {
    match toks.get(*pos)? {
        Tok::Num(v) => {
            *pos += 1;
            Some(*v)
        }
        Tok::Ident(name) => {
            *pos += 1;
            env.get(name).copied()
        }
        Tok::LParen => {
            *pos += 1;
            let v = parse_or(toks, pos, env)?;
            if toks.get(*pos) == Some(&Tok::RParen) {
                *pos += 1;
                Some(v)
            } else {
                None
            }
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------

fn emit(
    file: &mut SourceFile,
    report: &mut LintReport,
    rule: &'static str,
    line: usize,
    message: String,
) {
    let rel = file.rel_path.clone();
    if let Some(s) = file.suppression_for(rule, line) {
        s.used = true;
        if s.reason.is_empty() {
            report.findings.push(Finding {
                rule: RULE_SUPPRESSION,
                file: rel,
                line: s.line,
                message: format!("allow({rule}) without a reason — suppressions must say why"),
            });
        } else {
            let reason = s.reason.clone();
            report.allowed.push(Allowed {
                rule,
                file: rel,
                line,
                reason,
            });
        }
        return;
    }
    report.findings.push(Finding {
        rule,
        file: rel,
        line,
        message,
    });
}

fn rust_files_under(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files_under(&path, out);
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
}

/// Runs every rule over the workspace rooted at `root`.
pub fn run_lint(root: &Path) -> std::io::Result<LintReport> {
    let mut report = LintReport::default();

    // Scanned set: every crate's src tree plus the workspace integration
    // tests. Vendored stand-ins are exempt (not ours to lint).
    let mut files: Vec<PathBuf> = Vec::new();
    let crates_dir = root.join("crates");
    let Ok(entries) = std::fs::read_dir(&crates_dir) else {
        return Err(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            format!("no crates/ under {} — wrong --root?", root.display()),
        ));
    };
    let mut crate_dirs: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    crate_dirs.sort();
    for crate_dir in crate_dirs {
        rust_files_under(&crate_dir.join("src"), &mut files);
        rust_files_under(&crate_dir.join("tests"), &mut files);
    }
    rust_files_under(&root.join("tests"), &mut files);

    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let text = std::fs::read_to_string(&path)?;
        let mut file = SourceFile::parse(&rel, &text);
        report.files_scanned += 1;

        let panic_free = PANIC_FREE_CRATES
            .iter()
            .any(|c| rel.starts_with(&format!("crates/{c}/src/")));
        if panic_free {
            check_no_unwrap(&mut file, &mut report);
        }
        check_ordering(&mut file, &mut report);
        if guard_rule_applies(&rel) {
            check_guard_across_write(&mut file, &mut report);
        }

        // Stale suppressions: an allow that matched nothing is noise at
        // best and a silently-disarmed check at worst.
        for s in &file.suppressions {
            if !s.used {
                report.findings.push(Finding {
                    rule: RULE_SUPPRESSION,
                    file: rel.clone(),
                    line: s.line,
                    message: format!(
                        "stale suppression: allow({}) matched no finding on lines {}..={}",
                        s.rule,
                        s.line,
                        s.line + 2
                    ),
                });
            }
        }
    }

    check_wire_drift(root, &mut report);
    report.findings.sort_by(|a, b| {
        a.file
            .cmp(&b.file)
            .then(a.line.cmp(&b.line))
            .then(a.rule.cmp(b.rule))
    });
    Ok(report)
}

#[cfg(test)]
mod tests;
