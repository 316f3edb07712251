//! §6.4 statistics: R*-tree index sizes and binary-partition-tree overhead
//! for the NE-like and RD-like datasets. The paper reports, at full scale:
//! R*-tree 3.8 MB (NE) / 18.5 MB (RD); BPTs 4.2 MB (NE) / 23.7 MB (RD) —
//! i.e. the BPT overhead stays under twice the index size (§4.2's bound).
//!
//! Beside the paper's disk-model sizes, two columns describe the BPT store
//! as this implementation keeps it in memory: resident heap bytes per node
//! entry (implicit leaves: 36 B per super entry plus per-BPT headers and
//! slot tables) and build wall time per node (best of three builds on
//! [`pc_rtree::par::worker_count`] threads).

use pc_bench::{fmt_bytes, HarnessOpts, Table};
use pc_rtree::bpt::BptStore;
use pc_rtree::{RTree, RTreeConfig};
use pc_workload::DatasetKind;
use std::time::Instant;

/// Builds timed per dataset; the fastest is reported.
const BUILDS: usize = 3;

fn main() {
    let opts = HarnessOpts::from_args();
    println!("=== Index and BPT sizes (§6.4) ===\n");
    let mut t = Table::new(vec![
        "dataset",
        "objects",
        "nodes",
        "height",
        "R-tree",
        "BPTs",
        "BPT/index",
        "resident",
        "B/entry",
        "build/node",
    ]);
    for kind in [DatasetKind::Ne, DatasetKind::Rd] {
        let n = if opts.paper_scale {
            kind.paper_cardinality()
        } else {
            opts.objects.unwrap_or(50_000)
        };
        let store = kind.generate(n, opts.seed);
        let objects: Vec<_> = store.iter().copied().collect();
        let tree = RTree::bulk_load(RTreeConfig::paper(), &objects);
        let mut bpts = BptStore::default();
        let mut build_s = f64::INFINITY;
        for _ in 0..BUILDS {
            let t = Instant::now();
            bpts = BptStore::build(&tree);
            build_s = build_s.min(t.elapsed().as_secs_f64());
        }
        let stats = tree.stats();
        // Every object and every non-root node is one entry of some node.
        let entries = n + stats.node_count - 1;
        let aux = bpts.total_aux_bytes();
        let resident = bpts.heap_bytes() as f64;
        t.row(vec![
            kind.name().to_string(),
            format!("{n}"),
            format!("{}", stats.node_count),
            format!("{}", stats.height),
            fmt_bytes(stats.index_bytes as f64),
            fmt_bytes(aux as f64),
            format!("{:.2}x", aux as f64 / stats.index_bytes as f64),
            fmt_bytes(resident),
            format!("{:.1}", resident / entries as f64),
            format!("{:.1}us", build_s * 1e6 / stats.node_count as f64),
        ]);
    }
    t.print();
    println!("\npaper (full scale): NE 3.8MB R-tree / 4.2MB BPTs; RD 18.5MB / 23.7MB.");
    println!("invariant: BPT overhead <= 2x the index (§4.2).");
    println!(
        "resident / B/entry: BptStore::heap_bytes (memory, not the disk model); \
         build/node: best of {BUILDS} BptStore::build on up to {} threads.",
        std::thread::available_parallelism().map_or(1, |p| p.get())
    );
}
