//! `pc_check`: the workspace's concurrency lint.
//!
//! A deliberately small, dependency-free static pass — a line-aware
//! scanner (comments and string literals are stripped by a char-level
//! state machine), not a real parser. It holds the two invariants no
//! compiler or clippy lint can express:
//!
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
//!
//! The rest is the toolchain's: panic paths in `pc_server`, `pc_wire`,
//! `pc_sim`, `pc_cache` and `pc_client` are denied by clippy lints at the
//! top of each `lib.rs`, and the codec's record sizes are held to the
//! `pc_rtree::proto` byte model by `const` assertions in `pc_wire`, which
//! every build evaluates.
//!
//! There is no suppression syntax: a finding is fixed, never silenced.
//! The report ([`LintReport`]) is the list of findings; the CLI prints it
//! and exits nonzero unless it is empty.

use std::path::{Path, PathBuf};

pub const RULE_ORDERING: &str = "ordering-invariant";
pub const RULE_GUARD: &str = "no-guard-across-write";

/// How many lines above an `Ordering::*` use the `ordering:` invariant
/// comment may sit (multi-line method chains put the comment above the
/// statement, not the token).
pub const ORDERING_COMMENT_WINDOW: usize = 4;

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

#[derive(Clone, Debug, Default)]
pub struct LintReport {
    pub files_scanned: usize,
    /// Violations: each one fails the lint.
    pub findings: Vec<Finding>,
}

impl LintReport {
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }
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
}

pub struct SourceFile {
    /// Path relative to the workspace root, `/`-separated.
    pub rel_path: String,
    pub lines: Vec<Line>,
}

impl SourceFile {
    pub fn parse(rel_path: &str, text: &str) -> SourceFile {
        SourceFile {
            rel_path: rel_path.to_string(),
            lines: strip_lines(text),
        }
    }

    fn finding(&self, rule: &'static str, line: usize, message: String) -> Finding {
        Finding {
            rule,
            file: self.rel_path.clone(),
            line,
            message,
        }
    }
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
        out.push(Line { code, comment });
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

fn check_ordering(file: &SourceFile, report: &mut LintReport) {
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
            report
                .findings
                .push(file.finding(RULE_ORDERING, i + 1, message));
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

fn check_guard_across_write(file: &SourceFile, report: &mut LintReport) {
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
                report
                    .findings
                    .push(file.finding(RULE_GUARD, i + 1, message));
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
// Driver
// ---------------------------------------------------------------------

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
            format!("no crates/ under {}", root.display()),
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
        let file = SourceFile::parse(&rel, &text);
        report.files_scanned += 1;

        check_ordering(&file, &mut report);
        if guard_rule_applies(&rel) {
            check_guard_across_write(&file, &mut report);
        }
    }

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
