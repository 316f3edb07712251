//! `compare A.json B.json`: one row per (workload, end-to-end metric) with
//! both medians and quartiles, the ratio B/A, the bound and a verdict. This
//! is the "two sets agree" check, and what a later change is judged with:
//! A is the baseline, B the candidate.

use crate::json::{self, Value};
use crate::metrics::{end_to_end, Better};
use crate::workloads::by_name;
use std::path::Path;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    /// The run-to-run spread is wider than the bound, so a difference of
    /// the bound's size could not have been seen either way.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a row: the repetitions of one metric on one workload.
#[derive(Clone, Debug, PartialEq)]
pub struct Side {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub values: Vec<f64>,
}

impl Side {
    fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Judges candidate `b` against baseline `a`.
///
/// `bound > 0` is a share of `a`'s median. Within it the metric is `same`,
/// beyond it `worse` or `better` — unless either side's own spread exceeds
/// the bound, which makes it `unresolved`, except when every run of one
/// side beats every run of the other. `bound == 0` is absolute (the
/// `failed_share` rule): any worsening at all is `worse`.
pub fn judge(a: &Side, b: &Side, better: Better, bound: f64) -> Verdict {
    // Positive = b is worse, as a share of a's median.
    let worse_by = |x: f64, y: f64| match better {
        Better::Lower => y - x,
        Better::Higher => x - y,
    };
    if bound == 0.0 {
        return match worse_by(a.median, b.median) {
            d if d > 0.0 => Verdict::Worse,
            d if d < 0.0 => Verdict::Better,
            _ => Verdict::Same,
        };
    }
    let change = worse_by(a.median, b.median) / a.median.abs();
    // Every run of one side on the good side of every run of the other.
    let separated = |good: &Side, bad: &Side| {
        good.values
            .iter()
            .all(|&g| bad.values.iter().all(|&x| worse_by(g, x) > 0.0))
    };
    let noisy = a.spread().max(b.spread()) > bound;
    if change > bound {
        if noisy && !separated(a, b) {
            Verdict::Unresolved
        } else {
            Verdict::Worse
        }
    } else if change < -bound {
        if noisy && !separated(b, a) {
            Verdict::Unresolved
        } else {
            Verdict::Better
        }
    } else if noisy {
        Verdict::Unresolved
    } else {
        Verdict::Same
    }
}

pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub a: Side,
    pub b: Side,
    pub bound: f64,
    pub verdict: Verdict,
}

fn side(entry: &Value) -> Option<Side> {
    Some(Side {
        median: entry.get("median")?.as_f64()?,
        q1: entry.get("q1")?.as_f64()?,
        q3: entry.get("q3")?.as_f64()?,
        values: entry
            .get("values")?
            .as_arr()?
            .iter()
            .filter_map(Value::as_f64)
            .collect(),
    })
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if doc.get("schema").and_then(Value::as_f64) != Some(1.0) {
        return Err(format!("{}: not a schema-1 result file", path.display()));
    }
    Ok(doc)
}

/// Rows for every (workload, end-to-end metric) both files hold. A pair
/// the baseline has and the candidate lacks is an error: a metric must not
/// vanish unnoticed.
pub fn compare_docs(a: &Value, b: &Value) -> Result<Vec<Row>, String> {
    let workloads = |doc: &'_ Value| -> Vec<Value> {
        doc.get("workloads")
            .and_then(Value::as_arr)
            .unwrap_or(&[])
            .to_vec()
    };
    let mut rows = Vec::new();
    for wa in workloads(a) {
        let name = wa.get("name").and_then(Value::as_str).unwrap_or("");
        let Some(wb) = workloads(b)
            .into_iter()
            .find(|w| w.get("name").and_then(Value::as_str) == Some(name))
        else {
            return Err(format!("workload {name} is missing from the second file"));
        };
        let spec_w = by_name(name);
        for (metric, ea) in wa.get("end_to_end").map_or(&[][..], Value::fields) {
            let eb = wb
                .get("end_to_end")
                .and_then(|e| e.get(metric))
                .ok_or_else(|| format!("{name}: {metric} is missing from the second file"))?;
            let (sa, sb) = side(ea)
                .zip(side(eb))
                .ok_or_else(|| format!("{name}: {metric} is malformed"))?;
            // The benchmark's own tables fix direction and bound; a file
            // from an older table falls back to what it recorded.
            let table = end_to_end(metric);
            let better = match table.map(|t| t.better).or_else(|| {
                match ea.get("better").and_then(Value::as_str) {
                    Some("higher") => Some(Better::Higher),
                    Some("lower") => Some(Better::Lower),
                    _ => None,
                }
            }) {
                Some(better) => better,
                None => return Err(format!("{name}: {metric} has no direction")),
            };
            let bound = match (table, spec_w) {
                (Some(t), Some(w)) => t.compare_bound(w),
                _ => ea
                    .get("bound")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("{name}: {metric} has no bound"))?,
            };
            rows.push(Row {
                workload: name.to_string(),
                metric: metric.clone(),
                unit: ea
                    .get("unit")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string(),
                verdict: judge(&sa, &sb, better, bound),
                a: sa,
                b: sb,
                bound,
            });
        }
    }
    Ok(rows)
}

/// Prints the table; `Ok(true)` when no row is `worse`.
pub fn run_compare(a: &Path, b: &Path) -> Result<bool, String> {
    let rows = compare_docs(&load(a)?, &load(b)?)?;
    println!("A = {}   (baseline: ratios are B/A)", a.display());
    println!("B = {}", b.display());
    println!(
        "{:<15} {:<25} {:>5} {:>13} {:>27} {:>13} {:>27} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "unit",
        "A median",
        "A [q1, q3]",
        "B median",
        "B [q1, q3]",
        "B/A",
        "bound"
    );
    let mut counts = [0usize; 4];
    for r in &rows {
        counts[r.verdict as usize] += 1;
        let iqr = |s: &Side| format!("[{:.5}, {:.5}]", s.q1, s.q3);
        let ratio = if r.a.median == 0.0 {
            "-".to_string()
        } else {
            format!("{:.4}", r.b.median / r.a.median)
        };
        println!(
            "{:<15} {:<25} {:>5} {:>13.5} {:>27} {:>13.5} {:>27} {:>8} {:>6}  {}",
            r.workload,
            r.metric,
            r.unit,
            r.a.median,
            iqr(&r.a),
            r.b.median,
            iqr(&r.b),
            ratio,
            if r.bound == 0.0 {
                "abs 0".to_string()
            } else {
                format!("{:.1}%", r.bound * 100.0)
            },
            r.verdict.name()
        );
    }
    println!(
        "\n{} rows: {} same, {} better, {} worse, {} unresolved",
        rows.len(),
        counts[Verdict::Same as usize],
        counts[Verdict::Better as usize],
        counts[Verdict::Worse as usize],
        counts[Verdict::Unresolved as usize]
    );
    Ok(counts[Verdict::Worse as usize] == 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::quartiles;

    fn side_of(values: &[f64]) -> Side {
        let (q1, median, q3) = quartiles(values).unwrap();
        Side {
            median,
            q1,
            q3,
            values: values.to_vec(),
        }
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let base = side_of(&[100.0, 101.0, 99.0, 100.5, 99.5]);
        let close = side_of(&[103.0, 102.0, 104.0, 103.5, 102.5]);
        let far = side_of(&[120.0, 121.0, 119.0, 120.5, 119.5]);
        let j = |a, b, better| judge(a, b, better, 0.08);
        assert_eq!(j(&base, &close, Better::Lower), Verdict::Same);
        assert_eq!(j(&base, &far, Better::Lower), Verdict::Worse);
        assert_eq!(j(&base, &far, Better::Higher), Verdict::Better);
        assert_eq!(j(&far, &base, Better::Lower), Verdict::Better);

        // Spread wider than the bound: a shift inside the noise cannot be
        // called, a shift with every run separated still can.
        let noisy = side_of(&[80.0, 120.0, 100.0, 90.0, 110.0]);
        let noisy_shifted = side_of(&[95.0, 135.0, 115.0, 105.0, 125.0]);
        let noisy_far = side_of(&[180.0, 220.0, 200.0, 190.0, 210.0]);
        assert_eq!(j(&noisy, &noisy, Better::Lower), Verdict::Unresolved);
        assert_eq!(
            j(&noisy, &noisy_shifted, Better::Lower),
            Verdict::Unresolved
        );
        assert_eq!(j(&noisy, &noisy_far, Better::Lower), Verdict::Worse);
        assert_eq!(j(&noisy_far, &noisy, Better::Lower), Verdict::Better);
    }

    #[test]
    fn a_zero_bound_is_absolute() {
        let zero = side_of(&[0.0, 0.0, 0.0]);
        let some = side_of(&[0.0, 0.001, 0.001]);
        assert_eq!(judge(&zero, &zero, Better::Lower, 0.0), Verdict::Same);
        assert_eq!(judge(&zero, &some, Better::Lower, 0.0), Verdict::Worse);
        assert_eq!(judge(&some, &zero, Better::Lower, 0.0), Verdict::Better);
    }

    fn doc(throughput: &[f64], failed_share: &[f64]) -> Value {
        let entry = |better: &str, bound: f64, values: &[f64]| {
            let s = side_of(values);
            Value::obj()
                .with("unit", "x")
                .with("better", better)
                .with("bound", bound)
                .with("median", s.median)
                .with("q1", s.q1)
                .with("q3", s.q3)
                .with(
                    "values",
                    values.iter().map(|&v| Value::Num(v)).collect::<Vec<_>>(),
                )
        };
        Value::obj().with("schema", 1u64).with(
            "workloads",
            vec![Value::obj().with("name", "paper_mix").with(
                "end_to_end",
                Value::obj()
                    .with("throughput_qps", entry("higher", 0.08, throughput))
                    .with("failed_share", entry("lower", 0.0, failed_share)),
            )],
        )
    }

    #[test]
    fn documents_compare_row_by_row() {
        let a = doc(&[180.0, 181.0, 179.0], &[0.0, 0.0, 0.0]);
        let slower = doc(&[120.0, 121.0, 119.0], &[0.0, 0.0, 0.0]);
        let failing = doc(&[180.0, 181.0, 179.0], &[0.0, 0.01, 0.01]);
        let verdicts = |b: &Value| -> Vec<Verdict> {
            compare_docs(&a, b)
                .unwrap()
                .iter()
                .map(|r| r.verdict)
                .collect()
        };
        assert_eq!(verdicts(&a), [Verdict::Same, Verdict::Same]);
        assert_eq!(verdicts(&slower), [Verdict::Worse, Verdict::Same]);
        assert_eq!(verdicts(&failing), [Verdict::Same, Verdict::Worse]);
        // A metric that vanished from the candidate is an error, not a pass.
        let gone = Value::obj().with("schema", 1u64).with(
            "workloads",
            vec![Value::obj()
                .with("name", "paper_mix")
                .with("end_to_end", Value::obj())],
        );
        assert!(compare_docs(&a, &gone).is_err());
    }
}
