//! Shared harness for the per-figure experiment binaries.
//!
//! Every binary accepts:
//!
//! * `--paper-scale` — Table 6.1 exactly (123,593-object NE-like dataset,
//!   10,000 queries, 1e-6 windows). Expect minutes per model run.
//! * `--objects N`, `--queries N`, `--seed S` — manual overrides.
//!
//! The default is a scaled-down run (20,000 objects, 2,000 queries) whose
//! query selectivity is adjusted so the *absolute* result-set sizes match
//! the paper's (≈0–5 objects per query, tens of join pairs), which is what
//! keeps the relative shapes intact.

use pc_sim::{CacheModel, SimConfig};
use pc_workload::DatasetKind;

/// Parsed command-line options shared by all experiment binaries.
#[derive(Clone, Debug)]
pub struct HarnessOpts {
    pub paper_scale: bool,
    pub objects: Option<usize>,
    pub queries: Option<usize>,
    pub seed: u64,
    /// Updates per applied batch (one epoch bump per batch).
    pub update_batch: usize,
    /// Write machine-readable results (JSON) to this path.
    pub json: Option<String>,
}

/// Reads the value following a flag and parses it; a missing or malformed
/// value panics with the flag's usage string.
fn value<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, usage: &str) -> T {
    args.next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("usage: {usage}"))
}

impl HarnessOpts {
    pub fn from_args() -> Self {
        HarnessOpts::parse(std::env::args().skip(1))
    }

    fn parse(args: impl IntoIterator<Item = String>) -> Self {
        let mut opts = HarnessOpts {
            paper_scale: false,
            objects: None,
            queries: None,
            seed: 2005,
            update_batch: 1,
            json: None,
        };
        let args = &mut args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--paper-scale" => opts.paper_scale = true,
                "--objects" => opts.objects = Some(value(args, "--objects N")),
                "--queries" => opts.queries = Some(value(args, "--queries N")),
                "--seed" => opts.seed = value(args, "--seed S"),
                "--update-batch" => {
                    let n: usize = value(args, "--update-batch B");
                    assert!(n > 0, "--update-batch must be ≥ 1");
                    opts.update_batch = n;
                }
                "--json" => opts.json = Some(value(args, "--json OUT")),
                "--help" | "-h" => {
                    eprintln!(
                        "options: --paper-scale | --objects N | --queries N | --seed S \
                         | --update-batch B | --json OUT"
                    );
                    std::process::exit(0);
                }
                other => panic!("unknown option {other}"),
            }
        }
        opts
    }

    /// The base configuration for these options (model fields are set by
    /// each experiment afterwards).
    pub fn base_config(&self) -> SimConfig {
        let mut cfg = if self.paper_scale {
            SimConfig::paper()
        } else {
            scaled_default()
        };
        if let Some(n) = self.objects {
            cfg.n_objects = n;
            scale_selectivity(&mut cfg);
        }
        if let Some(q) = self.queries {
            cfg.n_queries = q;
        }
        cfg.seed = self.seed;
        cfg
    }
}

/// The default scaled-down configuration (see module docs).
pub fn scaled_default() -> SimConfig {
    let mut cfg = SimConfig::paper();
    cfg.n_objects = 20_000;
    cfg.n_queries = 2_000;
    cfg.window = 100;
    cfg.verify = false;
    scale_selectivity(&mut cfg);
    cfg
}

/// Rescales the window area so the expected absolute range-result count
/// matches the paper's at this dataset cardinality. The join distance is
/// deliberately *not* scaled: the NE-like dataset has a hard-core minimum
/// spacing (like real postal zones), so the paper's 5e-5 join is a pure
/// index/CPU stressor at every scale — scaling it up would change the
/// experiment's nature, not its resolution.
fn scale_selectivity(cfg: &mut SimConfig) {
    let paper_n = DatasetKind::Ne.paper_cardinality() as f64;
    let n = cfg.n_objects as f64;
    // E[range results] = area · n  (uniform approximation).
    cfg.workload.area_wnd = 1e-6 * paper_n / n;
}

/// Runs several configurations on worker threads, preserving order.
pub fn run_parallel(configs: &[SimConfig]) -> Vec<pc_sim::SimResult> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = configs
            .iter()
            .map(|cfg| scope.spawn(move || pc_sim::run(cfg)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

/// Sets the three models of Fig. 6–9 on a base config.
pub fn three_models(base: &SimConfig) -> Vec<(String, SimConfig)> {
    let mut out = Vec::new();
    for model in [
        CacheModel::Page,
        CacheModel::Semantic,
        CacheModel::Proactive,
    ] {
        let mut cfg = *base;
        cfg.model = model;
        out.push((cfg.model_label().to_string(), cfg));
    }
    out
}

// ---------------------------------------------------------------------
// Machine-readable output
// ---------------------------------------------------------------------

/// Minimal JSON writer for `--json OUT` bench artifacts — the vendored
/// environment has no serde, and the values here are flat numbers,
/// ASCII strings and arrays of objects, so a string builder suffices.
pub mod json {
    /// One `{...}` object under construction.
    #[derive(Default)]
    pub struct Obj {
        fields: Vec<String>,
    }

    impl Obj {
        pub fn new() -> Self {
            Obj::default()
        }

        /// A numeric or boolean field (anything whose `Display` form is a
        /// valid JSON literal; `f64` must be finite).
        pub fn num(mut self, key: &str, value: impl std::fmt::Display) -> Self {
            self.fields.push(format!("\"{key}\":{value}"));
            self
        }

        /// A string field (keys and values are ASCII; quotes/backslashes
        /// escaped).
        pub fn str(mut self, key: &str, value: &str) -> Self {
            let escaped = value.replace('\\', "\\\\").replace('"', "\\\"");
            self.fields.push(format!("\"{key}\":\"{escaped}\""));
            self
        }

        /// A pre-rendered JSON value (nested object or array).
        pub fn raw(mut self, key: &str, value: &str) -> Self {
            self.fields.push(format!("\"{key}\":{value}"));
            self
        }

        pub fn render(&self) -> String {
            format!("{{{}}}", self.fields.join(","))
        }
    }

    /// Renders pre-rendered values as a JSON array.
    pub fn array<S: AsRef<str>>(items: &[S]) -> String {
        let inner: Vec<&str> = items.iter().map(AsRef::as_ref).collect();
        format!("[{}]", inner.join(","))
    }
}

// ---------------------------------------------------------------------
// Table rendering
// ---------------------------------------------------------------------

/// Renders an aligned text table.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats bytes human-readably (fixed-point kB for table columns).
pub fn fmt_bytes(b: f64) -> String {
    if b >= 1024.0 * 1024.0 {
        format!("{:.2}MB", b / (1024.0 * 1024.0))
    } else if b >= 1024.0 {
        format!("{:.2}kB", b / 1024.0)
    } else {
        format!("{b:.0}B")
    }
}

pub fn fmt_pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

pub fn fmt_s(x: f64) -> String {
    format!("{x:.3}s")
}

pub fn fmt_ms(x: f64) -> String {
    format!("{x:.3}ms")
}

/// Experiment banner with reproduction context.
pub fn banner(title: &str, cfg: &SimConfig) {
    println!("=== {title} ===");
    println!(
        "dataset={} objects={} queries={} |C|={}% seed={}",
        cfg.dataset,
        cfg.n_objects,
        cfg.n_queries,
        cfg.cache_frac * 100.0,
        cfg.seed
    );
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(vec!["model", "resp"]);
        t.row(vec!["PAG", "5.6"]);
        t.row(vec!["APRO", "1.2"]);
        let s = t.render();
        assert!(s.contains("model"));
        assert!(s.lines().count() == 4);
        // Columns align: every line equally wide.
        let widths: std::collections::HashSet<usize> = s.lines().skip(2).map(|l| l.len()).collect();
        assert_eq!(widths.len(), 1);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only-one"]);
    }

    #[test]
    #[should_panic(expected = "usage: --objects N")]
    fn a_valued_flag_given_last_names_its_usage() {
        HarnessOpts::parse(["--queries", "5", "--objects"].map(String::from));
    }

    #[test]
    fn selectivity_scaling_keeps_expected_results() {
        let cfg = scaled_default();
        // E[range results] = area · n ≈ paper's 1e-6 · 123593 ≈ 0.124.
        let expect = cfg.workload.area_wnd * cfg.n_objects as f64;
        assert!((expect - 0.123593).abs() < 1e-6, "{expect}");
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_bytes(512.0), "512B");
        assert_eq!(fmt_bytes(2048.0), "2.00kB");
        assert_eq!(fmt_pct(0.513), "51.3%");
        assert_eq!(fmt_s(1.234567), "1.235s");
    }
}
