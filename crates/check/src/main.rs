//! CLI for the workspace concurrency lint: `cargo run -p pc-check -- lint`.

use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: pc-check lint [--root DIR] [--json FILE] [-q]\n\
         \n\
         Runs the workspace concurrency lint (atomic ordering invariants,\n\
         lock discipline across socket writes) and exits nonzero on any\n\
         violation. --json writes the full report (findings + reasoned\n\
         suppressions) for the CI artifact."
    );
    ExitCode::from(2)
}

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
    if args.first().map(String::as_str) != Some("lint") {
        return usage();
    }
    let mut root: Option<PathBuf> = None;
    let mut json: Option<PathBuf> = None;
    let mut quiet = false;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--root" if i + 1 < args.len() => {
                root = Some(PathBuf::from(&args[i + 1]));
                i += 2;
            }
            "--json" if i + 1 < args.len() => {
                json = Some(PathBuf::from(&args[i + 1]));
                i += 2;
            }
            "-q" | "--quiet" => {
                quiet = true;
                i += 1;
            }
            _ => return usage(),
        }
    }
    let Some(root) = root.or_else(find_workspace_root) else {
        eprintln!("pc-check: no workspace root found (run from the repo or pass --root)");
        return ExitCode::from(2);
    };

    let report = match pc_check::run_lint(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("pc-check: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(path) = &json {
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("pc-check: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    if !quiet {
        for f in &report.findings {
            println!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.message);
        }
        let counts = report.counts();
        let summary: Vec<String> = counts.iter().map(|(r, n)| format!("{r}: {n}")).collect();
        println!(
            "pc-check: {} files scanned, {} violation(s){}{}, {} reasoned allow(s)",
            report.files_scanned,
            report.findings.len(),
            if summary.is_empty() { "" } else { " — " },
            summary.join(", "),
            report.allowed.len()
        );
    }

    if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
