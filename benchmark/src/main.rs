//! Command line of the benchmark. See `README.md` and `--help`.

use pc_benchmark::compare::run_compare;
use pc_benchmark::single::{run_single, SingleArgs};
use pc_benchmark::suite::{manifest, run_suite, SuiteArgs, RUN_SECONDS};
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: pc_benchmark::alloc::Counting = pc_benchmark::alloc::Counting;

const USAGE: &str = "\
pc-benchmark — the serve-path benchmark of procache

  pc-benchmark --workload NAME --seed N --seconds S --trace 0|1
        One run of one workload in this process (what BENCHMARK.json's
        command executes). Prints a record line, then the result line.
        Also: --div D (divide the budget), --verify-only,
        --spans-out FILE (raw span dump of a traced run, CSV).

  pc-benchmark run [--seed N] [--seconds S] [--reps R] [--out FILE]
                   [--smoke] [--verify-only]
        Every workload: correctness pass, R timed repetitions in fresh
        processes (order alternated), one traced repetition. Prints every
        metric with unit, direction, sample count, median and quartiles.
        --smoke: budgets / 50, one repetition, and BENCHMARK.json checked
        against the emitted names. Defaults: seed 2005, 20 s, 5 reps.

  pc-benchmark compare A.json B.json
        One row per (workload, metric): medians, quartiles, ratio B/A,
        bound, verdict same/better/worse/unresolved. Exits non-zero on
        any `worse` (which includes a higher failed_share).

  pc-benchmark manifest
        Prints BENCHMARK.json as the benchmark's own tables define it.

Workloads: paper_mix, nojoin_wire, nojoin_churn, nojoin_sharded.";

/// `--key value` pairs and bare flags, checked against what the command
/// knows so a typo is an error, not a silently ignored option.
struct Flags {
    pairs: Vec<(String, String)>,
    bare: Vec<String>,
    positional: Vec<String>,
}

fn parse_flags(args: &[String], valued: &[&str], bare: &[&str]) -> Result<Flags, String> {
    let mut out = Flags {
        pairs: Vec::new(),
        bare: Vec::new(),
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if valued.contains(&a.as_str()) {
            let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
            out.pairs.push((a.clone(), v.clone()));
        } else if bare.contains(&a.as_str()) {
            out.bare.push(a.clone());
        } else if a.starts_with("--") {
            return Err(format!("unknown option {a}"));
        } else {
            out.positional.push(a.clone());
        }
    }
    Ok(out)
}

impl Flags {
    fn get<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.pairs.iter().find(|(k, _)| k == key) {
            None => Ok(None),
            Some((_, v)) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("{key}: cannot parse {v:?}")),
        }
    }

    fn has(&self, key: &str) -> bool {
        self.bare.iter().any(|k| k == key)
    }
}

fn single(args: &[String]) -> Result<bool, String> {
    let f = parse_flags(
        args,
        &[
            "--workload",
            "--seed",
            "--seconds",
            "--trace",
            "--div",
            "--spans-out",
        ],
        &["--verify-only"],
    )?;
    if !f.positional.is_empty() {
        return Err(format!("unexpected argument {:?}", f.positional[0]));
    }
    let trace = match f.get::<u8>("--trace")? {
        None | Some(0) => false,
        Some(1) => true,
        Some(n) => return Err(format!("--trace takes 0 or 1, not {n}")),
    };
    let args = SingleArgs {
        workload: f.get("--workload")?.ok_or("--workload is required")?,
        seed: f.get("--seed")?.unwrap_or(2005),
        seconds: f.get("--seconds")?.unwrap_or(RUN_SECONDS),
        trace,
        div: f.get("--div")?.unwrap_or(1),
        verify_only: f.has("--verify-only"),
        spans_out: f.get::<PathBuf>("--spans-out")?,
    };
    let result = run_single(&args)?;
    for p in &result.problems {
        eprintln!("PROBLEM: {p}");
    }
    println!("{}", result.full().render());
    println!("{}", result.contract().render());
    // The result line carries correctness; the exit code only says whether
    // a result could be produced.
    Ok(true)
}

fn suite(args: &[String]) -> Result<bool, String> {
    let f = parse_flags(
        args,
        &["--seed", "--seconds", "--reps", "--out"],
        &["--smoke", "--verify-only"],
    )?;
    if !f.positional.is_empty() {
        return Err(format!("unexpected argument {:?}", f.positional[0]));
    }
    run_suite(&SuiteArgs {
        seed: f.get("--seed")?.unwrap_or(2005),
        seconds: f.get("--seconds")?.unwrap_or(RUN_SECONDS),
        reps: f.get("--reps")?.unwrap_or(5),
        out: f.get::<PathBuf>("--out")?,
        smoke: f.has("--smoke"),
        verify_only: f.has("--verify-only"),
    })
}

fn compare(args: &[String]) -> Result<bool, String> {
    let f = parse_flags(args, &[], &[])?;
    match f.positional.as_slice() {
        [a, b] => run_compare(a.as_ref(), b.as_ref()),
        _ => Err("compare takes exactly two result files".to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        None | Some("--help" | "-h" | "help") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some("run") => suite(&args[1..]),
        Some("compare") => compare(&args[1..]),
        Some("manifest") => {
            print!("{}", manifest().render_pretty());
            Ok(true)
        }
        Some(_) => single(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
