//! The linter's own acceptance gate: the real workspace must lint clean.
//!
//! A fresh violation anywhere in the workspace (an unannotated
//! `Ordering::*`, or a guard held across a socket write) fails the suite
//! with the finding list in the assertion message.

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
