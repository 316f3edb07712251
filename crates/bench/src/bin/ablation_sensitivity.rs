//! Ablation of the adaptive scheme's sensitivity `s` and report period.
//! Table 6.1 fixes s = 20 % and the paper does not sweep it; this harness
//! does, on the Fig. 11 drifting-k workload.
//!
//! Expectations: tiny `s` makes d twitchy (index share oscillates), huge
//! `s` freezes d (APRO degenerates towards its initial form); the paper's
//! 20 % sits in the stable middle. Longer report periods slow adaptation
//! the same way Fig. 11 notes a "certain degree of delay".

use pc_bench::{fmt_s, HarnessOpts, Table};
use pc_mobility::MobilityModel;
use pc_server::FormPolicy;
use pc_sim::{self as sim, CacheModel};

fn main() {
    let opts = HarnessOpts::from_args();
    let mut base = opts.base_config();
    base.model = CacheModel::Proactive;
    base.form = FormPolicy::Adaptive;
    base.mobility = MobilityModel::Ran;
    base.cache_frac = 0.001;
    base.drifting_k = Some((10, 1));
    base.workload.mix = pc_workload::QueryMix::knn_only();
    pc_bench::banner("Ablation: adaptive sensitivity s and report period", &base);

    println!("sweep of s (report period = {}):", base.fmr_report_period);
    let mut t = Table::new(vec!["s", "fmr", "i/c (mean)", "resp"]);
    for s in [0.05, 0.1, 0.2, 0.4, 0.8] {
        let mut cfg = base;
        cfg.sensitivity = s;
        let r = sim::run(&cfg);
        let ic =
            r.windows.iter().map(|w| w.index_to_cache).sum::<f64>() / r.windows.len().max(1) as f64;
        t.row(vec![
            format!("{:.0}%", s * 100.0),
            format!("{:.3}", r.summary.fmr),
            format!("{ic:.3}"),
            fmt_s(r.summary.avg_response_s),
        ]);
    }
    t.print();

    println!("\nsweep of the report period (s = 20%):");
    let mut t = Table::new(vec!["period", "fmr", "i/c (mean)", "resp"]);
    for period in [10usize, 25, 50, 100, 250] {
        let mut cfg = base;
        cfg.fmr_report_period = period;
        let r = sim::run(&cfg);
        let ic =
            r.windows.iter().map(|w| w.index_to_cache).sum::<f64>() / r.windows.len().max(1) as f64;
        t.row(vec![
            format!("{period}"),
            format!("{:.3}", r.summary.fmr),
            format!("{ic:.3}"),
            fmt_s(r.summary.avg_response_s),
        ]);
    }
    t.print();
}
