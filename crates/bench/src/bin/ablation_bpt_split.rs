//! Ablation of a design choice the paper asserts but does not test: does
//! §4.2's choice of the *R\* split* for binary partition trees actually
//! matter, versus a naïve midpoint cut?
//!
//! Same tree, two BPT stores. For a batch of cold kNN/range remainders we
//! compare (a) compact-form sizes — worse partitions overlap more, so the
//! query's grey subtree is bigger — and (b) engine cell expansions, the
//! paper's CPU proxy.

use pc_bench::{fmt_bytes, HarnessOpts, Table};
use pc_geom::{Point, Rect};
use pc_rtree::bpt::{BptStore, SplitPolicy};
use pc_rtree::engine::{execute, AccessLog};
use pc_rtree::proto::QuerySpec;
use pc_rtree::view::FullView;
use pc_rtree::{RTree, RTreeConfig};
use pc_server::{build_shipments, FormMode};
use pc_workload::datasets;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn main() {
    let opts = HarnessOpts::from_args();
    let n = opts.objects.unwrap_or(50_000);
    let queries = opts.queries.unwrap_or(400);
    println!("=== Ablation: BPT split policy (R* vs midpoint) ===");
    println!("objects={n} queries={queries} seed={}\n", opts.seed);

    let store = datasets::ne_like(n, opts.seed);
    let objects: Vec<_> = store.iter().copied().collect();
    let tree = RTree::bulk_load(RTreeConfig::paper(), &objects);

    let mut table = Table::new(vec![
        "policy",
        "compact bytes/query",
        "full bytes/query",
        "saving",
        "expansions/query",
        "BPT build",
    ]);
    for policy in [SplitPolicy::RStar, SplitPolicy::Midpoint] {
        let t0 = std::time::Instant::now();
        let bpts = BptStore::build_with(&tree, policy);
        let build_time = t0.elapsed();
        let view = FullView::new(&tree, &bpts);

        let mut rng = SmallRng::seed_from_u64(opts.seed ^ 0xB7);
        let mut compact_bytes = 0u64;
        let mut full_bytes = 0u64;
        let mut expansions = 0u64;
        for i in 0..queries {
            let p = Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0));
            let spec = if i % 2 == 0 {
                QuerySpec::Knn {
                    center: p,
                    k: rng.random_range(1..8),
                }
            } else {
                QuerySpec::Range {
                    window: Rect::centered_square(p, rng.random_range(0.005..0.05)),
                }
            };
            let mut log = AccessLog::default();
            let out = execute(&view, &spec, &mut log);
            expansions += out.expansions;
            compact_bytes += build_shipments(&log, &tree, &bpts, FormMode::COMPACT)
                .iter()
                .map(|s| s.wire_bytes())
                .sum::<u64>();
            full_bytes += build_shipments(&log, &tree, &bpts, FormMode::Full)
                .iter()
                .map(|s| s.wire_bytes())
                .sum::<u64>();
        }
        let q = queries as f64;
        table.row(vec![
            format!("{policy:?}"),
            fmt_bytes(compact_bytes as f64 / q),
            fmt_bytes(full_bytes as f64 / q),
            format!(
                "{:.1}%",
                (1.0 - compact_bytes as f64 / full_bytes as f64) * 100.0
            ),
            format!("{:.1}", expansions as f64 / q),
            format!("{:.2?}", build_time),
        ]);
    }
    table.print();
    println!("\nexpectation: the R* policy compacts better (bigger saving) at a");
    println!("higher one-time build cost; midpoint trees overlap more, touching");
    println!("more cells per query.");
}
