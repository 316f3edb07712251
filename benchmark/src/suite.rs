//! `run`: the whole benchmark in one command. Every workload's correctness
//! pass, then the timed repetitions — a fresh process per workload and
//! repetition, order alternated — then one traced repetition per workload;
//! medians and quartiles over repetitions, written as one result file.

use crate::json::{self, Value};
use crate::metrics::{contract_per_layer, EndToEnd, Listed, END_TO_END, PER_LAYER};
use crate::stats::quartiles;
use crate::workloads::{Workload, WORKLOADS};
use std::io::Read as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

pub struct SuiteArgs {
    pub seed: u64,
    pub seconds: u32,
    pub reps: usize,
    pub out: Option<PathBuf>,
    /// Budgets ÷ 50, one repetition, and `BENCHMARK.json` checked against
    /// what was emitted.
    pub smoke: bool,
    /// Only the correctness pass.
    pub verify_only: bool,
}

/// Where `--smoke` finds the manifest: `run` is started from the repo
/// root, as `BENCHMARK.json`'s own command is.
const BENCHMARK_JSON: &str = "BENCHMARK.json";

/// Length of one run: `BENCHMARK.json`'s `run_seconds` and `run`'s default.
/// Budgets are sized per second of it (see `workloads`).
pub const RUN_SECONDS: u32 = 20;

/// `BENCHMARK.json`, rendered from the benchmark's own tables.
pub fn manifest() -> Value {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    Value::obj()
        .with(
            "command",
            command.iter().map(|&c| Value::from(c)).collect::<Vec<_>>(),
        )
        .with("paths", vec![Value::from("benchmark")])
        .with("run_seconds", RUN_SECONDS as u64)
        .with(
            "workloads",
            WORKLOADS
                .iter()
                .map(|w| Value::obj().with("name", w.name).with("why", w.why))
                .collect::<Vec<_>>(),
        )
        .with(
            "end_to_end",
            END_TO_END
                .iter()
                .filter(|m| m.listed == Listed::EndToEnd)
                .map(|m| {
                    Value::obj()
                        .with("name", m.name)
                        .with("unit", m.unit)
                        .with("better", m.better.name())
                        .with("bound", m.bound)
                })
                .collect::<Vec<_>>(),
        )
        .with(
            "per_layer",
            contract_per_layer()
                .map(|(name, unit, better)| {
                    Value::obj()
                        .with("name", name)
                        .with("unit", unit)
                        .with("better", better.name())
                })
                .collect::<Vec<_>>(),
        )
}

/// A child that neither finishes nor fails within this is killed and its
/// budget counted as failed.
const CHILD_TIMEOUT: Duration = Duration::from_secs(170);
const SMOKE_DIV: usize = 50;

/// One child run, parsed from the record line it prints before the
/// contract's result line.
struct Child {
    correct: bool,
    attempted: u64,
    failed: u64,
    end_to_end: Vec<(String, f64)>,
    per_layer: Vec<(String, f64)>,
    problems: Vec<String>,
}

fn numbers(v: Option<&Value>) -> Vec<(String, f64)> {
    v.map_or(Vec::new(), |v| {
        v.fields()
            .iter()
            .filter_map(|(k, v)| v.as_f64().map(|n| (k.clone(), n)))
            .collect()
    })
}

fn spawn_child(w: &Workload, args: &SuiteArgs, extra: &[&str]) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let div = if args.smoke { SMOKE_DIV } else { 1 };
    let mut child = Command::new(exe)
        .args(["--workload", w.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--div", &div.to_string()])
        .args(extra)
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn child: {e}"))?;
    let mut stdout = child.stdout.take().expect("child stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = stdout.read_to_string(&mut text);
        text
    });
    let started = Instant::now();
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if started.elapsed() > CHILD_TIMEOUT => {
                let _ = child.kill();
                let _ = child.wait();
                let _ = reader.join();
                return Err(format!("{}: child timed out and was killed", w.name));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => return Err(format!("wait for child: {e}")),
        }
    };
    let text = reader.join().map_err(|_| "stdout reader panicked")?;
    if !status.success() {
        return Err(format!("{}: child exited with {status}", w.name));
    }
    let record = text
        .lines()
        .rev()
        .filter(|l| !l.trim().is_empty())
        .nth(1)
        .ok_or_else(|| format!("{}: child printed no record line", w.name))?;
    let v = json::parse(record).map_err(|e| format!("{}: child record: {e}", w.name))?;
    Ok(Child {
        correct: v.get("correct").and_then(Value::as_bool).unwrap_or(false),
        attempted: v.get("attempted").and_then(Value::as_f64).unwrap_or(0.0) as u64,
        failed: v.get("failed").and_then(Value::as_f64).unwrap_or(0.0) as u64,
        end_to_end: numbers(v.get("end_to_end")),
        per_layer: numbers(v.get("per_layer")),
        problems: v
            .get("problems")
            .and_then(Value::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|p| p.as_str().map(str::to_string))
            .collect(),
    })
}

/// What `run` gathered for one workload.
#[derive(Default)]
struct Gathered {
    attempted: u64,
    failed: u64,
    /// Per end-to-end metric, one value per repetition.
    values: Vec<(String, Vec<f64>)>,
    per_layer: Vec<(String, f64)>,
}

impl Gathered {
    /// Folds one child in. `lost` is the budget to write off as failed if
    /// the child came back with nothing.
    fn absorb(
        &mut self,
        w: &Workload,
        what: &str,
        lost: u64,
        child: Result<Child, String>,
    ) -> Vec<String> {
        match child {
            Ok(c) => {
                self.attempted += c.attempted;
                self.failed += c.failed;
                for (name, v) in c.end_to_end {
                    match self.values.iter_mut().find(|(n, _)| *n == name) {
                        Some((_, vs)) => vs.push(v),
                        None => self.values.push((name, vec![v])),
                    }
                }
                if !c.per_layer.is_empty() {
                    self.per_layer = c.per_layer;
                }
                let mut problems = c.problems;
                if !c.correct && problems.is_empty() {
                    problems.push("reported incorrect".to_string());
                }
                problems
                    .into_iter()
                    .map(|p| format!("{} {what}: {p}", w.name))
                    .collect()
            }
            Err(e) => {
                self.attempted += lost;
                self.failed += lost;
                vec![format!("{what}: {e}")]
            }
        }
    }
}

fn host_facts() -> Value {
    let read = |p: &str| std::fs::read_to_string(p).map(|s| s.trim().to_string());
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string());
    Value::obj()
        .with(
            "nproc",
            std::thread::available_parallelism().map_or(0, |n| n.get()),
        )
        .with(
            "kernel",
            read("/proc/sys/kernel/osrelease").unwrap_or_else(|_| "unknown".to_string()),
        )
        .with("rustc", rustc.unwrap_or_else(|| "unknown".to_string()))
}

fn metric_entry(spec: &EndToEnd, w: &Workload, values: &[f64]) -> Value {
    let (q1, median, q3) = quartiles(values).unwrap_or((f64::NAN, f64::NAN, f64::NAN));
    Value::obj()
        .with("unit", spec.unit)
        .with("better", spec.better.name())
        .with("bound", spec.compare_bound(w))
        .with("n", values.len())
        .with("median", median)
        .with("q1", q1)
        .with("q3", q3)
        .with(
            "values",
            values.iter().map(|&v| Value::Num(v)).collect::<Vec<_>>(),
        )
}

/// `BENCHMARK.json` must be what [`manifest`] renders: exactly the
/// workloads and metrics the benchmark emits, with the same units,
/// directions and bounds.
pub fn check_benchmark_json(path: &Path) -> Vec<String> {
    let doc = match std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|t| json::parse(&t))
    {
        Ok(doc) => doc,
        Err(e) => return vec![format!("{}: {e}", path.display())],
    };
    let want = manifest();
    want.fields()
        .iter()
        .filter(|(key, value)| doc.get(key) != Some(value))
        .map(|(key, value)| {
            format!(
                "{}: \"{key}\" differs from the benchmark's tables; expected {}",
                path.display(),
                value.render()
            )
        })
        .chain(
            (doc.fields().len() != want.fields().len())
                .then(|| format!("{}: unexpected top-level keys", path.display())),
        )
        .collect()
}

fn print_table(workloads: &[(&Workload, Gathered)]) {
    for (w, g) in workloads {
        println!("\n== {} ==", w.name);
        println!(
            "  {:<28} {:>6} {:>7} {:>3} {:>14} {:>14} {:>14}",
            "end-to-end metric", "unit", "better", "n", "median", "q1", "q3"
        );
        for spec in END_TO_END.iter().filter(|m| m.scope.covers(w)) {
            let Some((_, vs)) = g.values.iter().find(|(n, _)| n == spec.name) else {
                continue;
            };
            let (q1, median, q3) = quartiles(vs).unwrap_or((f64::NAN, f64::NAN, f64::NAN));
            println!(
                "  {:<28} {:>6} {:>7} {:>3} {:>14.6} {:>14.6} {:>14.6}",
                spec.name,
                spec.unit,
                spec.better.name(),
                vs.len(),
                median,
                q1,
                q3
            );
        }
        if !g.per_layer.is_empty() {
            println!(
                "  {:<40} {:>6} {:>7} {:>14}",
                "per-layer metric (1 traced run)", "unit", "better", "value"
            );
        }
        for spec in PER_LAYER.iter() {
            if let Some((_, v)) = g.per_layer.iter().find(|(n, _)| n == spec.name) {
                println!(
                    "  {:<40} {:>6} {:>7} {:>14.6}",
                    spec.name,
                    spec.unit,
                    spec.better.name(),
                    v
                );
            }
        }
    }
}

/// Runs the suite; `Ok(true)` when nothing failed.
pub fn run_suite(args: &SuiteArgs) -> Result<bool, String> {
    let reps = if args.smoke { 1 } else { args.reps.max(1) };
    let mut gathered: Vec<(&Workload, Gathered)> =
        WORKLOADS.iter().map(|w| (w, Gathered::default())).collect();
    let mut problems: Vec<String> = Vec::new();
    let div = if args.smoke { SMOKE_DIV } else { 1 };
    let lost = |w: &Workload| w.budget(args.seconds, div).total(w.clients);

    for (w, g) in gathered.iter_mut() {
        eprintln!("correctness pass: {}", w.name);
        let child = spawn_child(w, args, &["--trace", "0", "--verify-only"]);
        problems.extend(g.absorb(w, "correctness pass", w.verify_full as u64, child));
    }
    if !args.verify_only {
        for rep in 0..reps {
            // Alternate the order so no workload always runs on a machine
            // warmed (or cooled) by the same neighbour.
            let mut order: Vec<usize> = (0..gathered.len()).collect();
            if rep % 2 == 1 {
                order.reverse();
            }
            for i in order {
                let (w, g) = &mut gathered[i];
                eprintln!("repetition {}/{reps}: {}", rep + 1, w.name);
                let child = spawn_child(w, args, &["--trace", "0"]);
                problems.extend(g.absorb(w, &format!("repetition {}", rep + 1), lost(w), child));
            }
        }
        for (w, g) in gathered.iter_mut() {
            eprintln!("traced repetition: {}", w.name);
            let child = spawn_child(w, args, &["--trace", "1"]);
            problems.extend(g.absorb(w, "traced repetition", lost(w), child));
        }
        for (w, g) in &gathered {
            for spec in END_TO_END.iter().filter(|m| m.scope.covers(w)) {
                let n = g
                    .values
                    .iter()
                    .find(|(n, _)| n == spec.name)
                    .map_or(0, |(_, vs)| vs.iter().filter(|v| v.is_finite()).count());
                if n != reps {
                    problems.push(format!(
                        "{}: {} has {n} finite values for {reps} repetitions",
                        w.name, spec.name
                    ));
                }
                // Without churn the model metrics are a pure function of
                // the seed: anything but bit-equality is a bug.
                let pinned = spec.pinned.is_some() && !w.churn;
                if let Some((_, vs)) = g.values.iter().find(|(n, _)| n == spec.name) {
                    if pinned && vs.iter().any(|v| v.to_bits() != vs[0].to_bits()) {
                        problems.push(format!(
                            "{}: {} differs across repetitions of one seed: {vs:?}",
                            w.name, spec.name
                        ));
                    }
                }
            }
        }
        if args.smoke {
            problems.extend(check_benchmark_json(Path::new(BENCHMARK_JSON)));
        }
        print_table(&gathered);
    }

    let doc = Value::obj()
        .with("schema", 1u64)
        .with("seed", args.seed)
        .with("seconds", args.seconds as u64)
        .with("repetitions", reps)
        .with("budget_divisor", if args.smoke { SMOKE_DIV } else { 1 })
        .with("host", host_facts())
        .with(
            "workloads",
            gathered
                .iter()
                .map(|(w, g)| {
                    let e2e = END_TO_END
                        .iter()
                        .filter_map(|spec| {
                            let (_, vs) = g.values.iter().find(|(n, _)| n == spec.name)?;
                            Some((spec.name.to_string(), metric_entry(spec, w, vs)))
                        })
                        .collect();
                    let per_layer = PER_LAYER
                        .iter()
                        .filter_map(|spec| {
                            let (_, v) = g.per_layer.iter().find(|(n, _)| n == spec.name)?;
                            let entry = Value::obj()
                                .with("unit", spec.unit)
                                .with("better", spec.better.name())
                                .with("value", *v);
                            Some((spec.name.to_string(), entry))
                        })
                        .collect();
                    Value::obj()
                        .with("name", w.name)
                        .with("why", w.why)
                        .with("attempted", g.attempted)
                        .with("failed", g.failed)
                        .with("end_to_end", Value::Obj(e2e))
                        .with("per_layer", Value::Obj(per_layer))
                })
                .collect::<Vec<_>>(),
        )
        .with(
            "problems",
            problems
                .iter()
                .map(|p| Value::from(p.as_str()))
                .collect::<Vec<_>>(),
        );
    if let Some(out) = &args.out {
        std::fs::write(out, doc.render_pretty())
            .map_err(|e| format!("write {}: {e}", out.display()))?;
        println!("\nwrote {}", out.display());
    }
    let failed: u64 = gathered.iter().map(|(_, g)| g.failed).sum();
    for p in &problems {
        eprintln!("PROBLEM: {p}");
    }
    println!(
        "\n{}: {} problems, {failed} failed operations",
        if problems.is_empty() && failed == 0 {
            "ok"
        } else {
            "FAILED"
        },
        problems.len()
    );
    Ok(problems.is_empty() && failed == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The limits of the `BENCHMARK.json` contract that the tables could
    /// grow out of.
    #[test]
    fn manifest_fits_the_contract() {
        let m = manifest();
        let keys: Vec<&str> = m.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let len = |key| m.get(key).and_then(Value::as_arr).unwrap().len();
        assert!(len("command") <= 32);
        assert!((2..=8).contains(&len("workloads")));
        assert!((1..=16).contains(&len("end_to_end")));
        assert!((1..=128).contains(&len("per_layer")));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(m.render_pretty().len() <= 64 * 1024);
        let e2e = m.get("end_to_end").and_then(Value::as_arr).unwrap();
        let setup = e2e
            .iter()
            .find(|v| v.get("name").and_then(Value::as_str) == Some("setup_s"))
            .expect("setup_s is mandatory");
        assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
        assert_eq!(setup.get("better").and_then(Value::as_str), Some("lower"));
        // The driver makes 4 + 22 * workloads runs inside 3420 s, builds
        // included; a run is its budget plus set-ups and the quick
        // correctness pass, measured at under 1.3 x RUN_SECONDS.
        let runs = 4 + 22 * len("workloads");
        assert!(runs as f64 * RUN_SECONDS as f64 * 1.3 < 3420.0 - 2.0 * 120.0);
    }

    #[test]
    fn the_committed_manifest_is_the_rendered_one() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        assert_eq!(check_benchmark_json(&path), Vec::<String>::new());
    }
}
