//! The linter's own acceptance gate: the real workspace must lint clean.
//!
//! This is the test CI leans on — a fresh violation anywhere in the
//! workspace (an unannotated `Ordering::*`, a guard held across a socket
//! write, or a stale/reasonless suppression) fails the suite with the
//! finding list in the assertion message.

use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    // crates/check -> crates -> workspace root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("crates/check sits two levels below the workspace root")
        .to_path_buf()
}

#[test]
fn the_workspace_lints_clean() {
    let report = pc_check::run_lint(&workspace_root()).expect("lint walks the workspace");
    assert!(report.files_scanned > 50, "scanned a real workspace");
    let rendered: Vec<String> = report
        .findings
        .iter()
        .map(|f| format!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.message))
        .collect();
    assert!(
        report.clean(),
        "workspace has lint violations:\n{}",
        rendered.join("\n")
    );
}

#[test]
fn every_suppression_is_reasoned_and_used() {
    let report = pc_check::run_lint(&workspace_root()).expect("lint walks the workspace");
    for a in &report.allowed {
        assert!(
            !a.reason.trim().is_empty(),
            "{}:{}: allow({}) without a reason survived",
            a.file,
            a.line,
            a.rule
        );
    }
}

#[test]
fn report_serializes_for_the_ci_artifact() {
    let report = pc_check::run_lint(&workspace_root()).expect("lint walks the workspace");
    let json = report.to_json();
    assert!(json.contains("\"files_scanned\""));
    assert!(json.contains("\"findings\""));
    assert!(json.contains("\"allowed\""));
}

/// The workspace itself carries no allow, so a fixture workspace proves the
/// driver still collects a reasoned one and reports a stale one.
#[test]
fn the_driver_collects_reasoned_allows_and_flags_stale_ones() {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("pc-check-fixture");
    let src = root.join("crates/fixture/src");
    std::fs::create_dir_all(&src).expect("create the fixture workspace");
    std::fs::write(
        src.join("lib.rs"),
        r#"
// pc-check: allow(ordering-invariant, "fixture: a reasoned allow")
let a = x.load(Ordering::Acquire);
// pc-check: allow(ordering-invariant, "fixture: matches nothing")
let b = 1;
"#,
    )
    .expect("write the fixture source");
    let report = pc_check::run_lint(&root).expect("lint walks the fixture");
    assert_eq!(report.files_scanned, 1);
    let allowed: Vec<_> = report
        .allowed
        .iter()
        .map(|a| (a.file.as_str(), a.line, a.reason.as_str()))
        .collect();
    assert_eq!(
        allowed,
        [("crates/fixture/src/lib.rs", 3, "fixture: a reasoned allow")]
    );
    let findings: Vec<_> = report.findings.iter().map(|f| (f.rule, f.line)).collect();
    assert_eq!(findings, [(pc_check::RULE_SUPPRESSION, 4)]);
}
