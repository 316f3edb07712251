//! Figure 9: client CPU time per query under different cache sizes (RAN).
//!
//! Paper expectations: APRO costs the most client CPU in absolute terms
//! (it partially executes queries, especially joins) but is the *least
//! sensitive* to cache size thanks to the cached index structure — PAG and
//! SEM scan their caches sequentially, so their CPU grows with |C|.
//!
//! CPU here is measured wall-clock on the host, so absolute values differ
//! from the paper's Pentium 4; the comparison is relative — which model
//! costs more, and how each curve bends with |C|. Every model measures its
//! server CPU the same way, as the wall time inside its `Transport::call`s
//! (the in-process server answering); client CPU is the rest of the
//! query's wall time. The twelve runs go one after another, so none is
//! timed against another's contention.

use pc_bench::{banner, fmt_ms, three_models, HarnessOpts, Table};
use pc_mobility::MobilityModel;

const FRACS: [f64; 4] = [0.001, 0.005, 0.01, 0.05];

fn main() {
    let opts = HarnessOpts::from_args();
    let mut base = opts.base_config();
    base.mobility = MobilityModel::Ran;
    banner("Figure 9: client CPU per query vs cache size (RAN)", &base);

    let mut configs = Vec::new();
    for frac in FRACS {
        let mut b = base;
        b.cache_frac = frac;
        for (_, cfg) in three_models(&b) {
            configs.push(cfg);
        }
    }
    // One after another: configs run side by side would time each other.
    let results: Vec<_> = configs.iter().map(pc_sim::run).collect();

    let mut t = Table::new(vec!["|C|", "PAG", "SEM", "APRO", "APRO expansions"]);
    for (fi, frac) in FRACS.iter().enumerate() {
        t.row(vec![
            format!("{}%", frac * 100.0),
            fmt_ms(results[fi * 3].summary.avg_client_cpu_ms),
            fmt_ms(results[fi * 3 + 1].summary.avg_client_cpu_ms),
            fmt_ms(results[fi * 3 + 2].summary.avg_client_cpu_ms),
            format!("{:.1}", results[fi * 3 + 2].summary.avg_client_expansions),
        ]);
    }
    t.print();

    println!("\nserver CPU per query (sanity: communication still dominates):");
    let mut t = Table::new(vec!["|C|", "PAG", "SEM", "APRO"]);
    for (fi, frac) in FRACS.iter().enumerate() {
        let row: Vec<String> = (0..3)
            .map(|mi| fmt_ms(results[fi * 3 + mi].summary.avg_server_cpu_ms))
            .collect();
        t.row(vec![
            format!("{}%", frac * 100.0),
            row[0].clone(),
            row[1].clone(),
            row[2].clone(),
        ]);
    }
    t.print();

    println!("\npaper expectations: APRO mostly the most expensive but flattest in");
    println!("|C|; the CPU-to-communication gap stays > 1 order of magnitude.");
}
