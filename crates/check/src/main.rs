//! CLI for the workspace concurrency lint: `cargo run -p pc-check -- lint`.

use std::path::PathBuf;
use std::process::ExitCode;

/// Walks upward until a directory holding a `[workspace]` manifest.
fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args != ["lint"] {
        eprintln!(
            "usage: pc-check lint\n\
             \n\
             Runs the workspace concurrency lint (atomic ordering invariants,\n\
             lock discipline across socket writes) from inside the workspace,\n\
             prints every finding and exits nonzero if there is one."
        );
        return ExitCode::from(2);
    }
    let Some(root) = find_workspace_root() else {
        eprintln!("pc-check: no workspace root found (run from inside the repo)");
        return ExitCode::from(2);
    };

    let report = match pc_check::run_lint(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("pc-check: {e}");
            return ExitCode::from(2);
        }
    };

    for f in &report.findings {
        println!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.message);
    }
    println!(
        "pc-check: {} files scanned, {} violation(s)",
        report.files_scanned,
        report.findings.len()
    );

    if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
