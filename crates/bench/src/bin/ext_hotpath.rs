//! Query hot-path extension experiment: what does a served query cost, next
//! to the plain-tree reference?
//!
//! Every query a server, cluster or client answers runs the §3.3 engine
//! (`pc_rtree::engine`) over an `IndexView`; `pc_rtree::query` is the
//! reference the tests compare it against and serves nothing. This binary
//! sweeps dataset sizes up to `--objects` (use `--objects 1000000` for the
//! million-object run) and, at each size, answers the same range, kNN and
//! self-join queries four ways:
//!
//! * **direct** — `Shard::direct`: the engine over the server's
//!   `FullView`, untraced (what `Request::Direct` runs);
//! * **resume** — `Shard::resume_remainder` of the cold remainder
//!   `{Q, [root]}` in compact form: the same traversal traced, plus
//!   building the supporting index and splitting the result set (what a
//!   cold client's contact costs the server);
//! * **run_local** — `Client::run_local` over a `CacheView` warmed by
//!   these very queries (cache large enough that nothing is evicted), so
//!   every query completes locally: stage ① at its best;
//! * **reference** — `pc_rtree::query`, the iterative SoA loops over the
//!   plain tree.
//!
//! Each arm's time includes producing its id / pair list. Before timing,
//! **every** query is answered by all four arms and the answers compared
//! (ids for range, distances for kNN — ties may pick different ids — and
//! canonical pairs for the join); any disagreement aborts the run with a
//! non-zero exit. `--json OUT` writes the rows as `BENCH_hotpath.json`.

use pc_bench::{json, HarnessOpts, Table};
use pc_cache::{Catalog, ReplacementPolicy};
use pc_client::Client;
use pc_geom::{Point, Rect};
use pc_rtree::proto::{CellRef, HeapEntry, QuerySpec, RemainderQuery, Side};
use pc_rtree::{query, ObjectId, RTreeConfig};
use pc_server::{Cluster, FormMode, ServerConfig, Snapshot};
use pc_workload::datasets;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// Neighbours requested per kNN query (the paper's NN experiments use
/// small k; 10 keeps the heap non-trivial).
const K: u32 = 10;

/// Self-join distance — the paper's 5e-5 scale; the NE-like hard-core
/// spacing makes this a pure index/CPU stressor at every cardinality.
const JOIN_DIST: f64 = 6e-5;

/// The self-join walks the whole tree; a handful of repetitions is plenty
/// of work at every size in the sweep.
const JOIN_REPS: usize = 3;

const ARMS: [&str; 4] = ["direct", "resume", "run_local", "reference"];

/// What one arm answered: result ids in the arm's own order, join pairs.
type Answer = (Vec<ObjectId>, Vec<(ObjectId, ObjectId)>);

/// A query and the remainder `{Q, [root]}` a cold client submits for it.
struct Case {
    spec: QuerySpec,
    cold: RemainderQuery,
}

/// The part of an answer every arm must agree on, bit for bit.
fn canonical(spec: &QuerySpec, (mut ids, mut pairs): Answer, snap: &Snapshot) -> Vec<u64> {
    match spec {
        QuerySpec::Range { .. } => {
            ids.sort_unstable();
            ids.iter().map(|id| id.0 as u64).collect()
        }
        // Nearest first in every arm; equal distances may name different
        // objects.
        QuerySpec::Knn { center, .. } => ids
            .iter()
            .map(|&id| snap.store().get(id).mbr.min_dist(center).to_bits())
            .collect(),
        QuerySpec::Join { .. } => {
            pairs.sort_unstable();
            pairs
                .iter()
                .map(|(a, b)| (a.0 as u64) << 32 | b.0 as u64)
                .collect()
        }
    }
}

fn direct(snap: &Snapshot, case: &Case) -> Answer {
    let out = snap.shard(0).direct(&case.spec);
    let ids = out.results.iter().map(|&(id, _)| id).collect();
    (ids, out.result_pairs)
}

fn resume(snap: &Snapshot, case: &Case) -> Answer {
    let reply = snap
        .shard(0)
        .resume_remainder(snap.store(), &case.cold, FormMode::COMPACT);
    black_box(&reply.index);
    (reply.objects.iter().map(|o| o.id).collect(), reply.pairs)
}

fn run_local(client: &mut Client, case: &Case) -> Answer {
    let local = client.run_local(&case.spec);
    assert!(
        local.complete(),
        "warm cache left a remainder for {:?}",
        case.spec
    );
    (local.saved, local.saved_pairs)
}

fn reference(snap: &Snapshot, case: &Case) -> Answer {
    let tree = snap.shard(0).tree();
    match case.spec {
        QuerySpec::Range { window } => (query::range_query(tree, &window), Vec::new()),
        QuerySpec::Knn { center, k } => {
            let nearest = query::knn_query(tree, &center, k as usize);
            (nearest.into_iter().map(|(id, _)| id).collect(), Vec::new())
        }
        QuerySpec::Join { dist } => (Vec::new(), query::distance_self_join(tree, dist)),
    }
}

/// Runs `spec` through the client until its cache answers it alone.
fn warm(client: &mut Client, server: &Cluster, spec: &QuerySpec) {
    for _ in 0..8 {
        client.begin_query();
        let Some(rq) = client.run_local(spec).remainder else {
            return;
        };
        let reply = server.process_remainder(0, &rq);
        client.absorb(&reply, Point::ORIGIN);
    }
    panic!("cache still incomplete for {spec:?} after 8 contacts");
}

struct Row {
    objects: usize,
    kind: &'static str,
    queries: usize,
    /// µs per query, in [`ARMS`] order.
    us: [f64; 4],
    results: u64,
}

/// Times one pass of `arm` over `cases`: (µs per query, results returned).
fn time_pass(cases: &[Case], mut arm: impl FnMut(&Case) -> Answer) -> (f64, u64) {
    let mut results = 0;
    let t = Instant::now();
    for case in cases {
        let (ids, pairs) = black_box(arm(black_box(case)));
        results += (ids.len() + pairs.len()) as u64;
    }
    let us = t.elapsed().as_secs_f64() * 1e6 / cases.len() as f64;
    (us, results)
}

fn measure(n: usize, queries: usize, seed: u64) -> Vec<Row> {
    let server = Cluster::single(
        datasets::ne_like(n, seed),
        RTreeConfig::paper(),
        ServerConfig::default(),
    );
    let snap = server.snapshot();
    let snap = &*snap;
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x407);
    let mut point = || Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0));

    let tree = snap.shard(0).tree();
    let root = Side::Cell {
        cell: CellRef::node_root(tree.root()),
        mbr: tree.root_mbr().expect("non-empty dataset"),
    };
    let case = |spec: QuerySpec| {
        let entry = if spec.is_join() {
            HeapEntry::Pair(root, root)
        } else {
            HeapEntry::Single(root)
        };
        let cold = RemainderQuery {
            spec,
            already_found: 0,
            heap: vec![(0.0, entry)],
        };
        Case { spec, cold }
    };
    // Fixed window area (1e-4 of the unit square): result counts grow with
    // n, which is exactly what stresses the qualification loop.
    let windows: Vec<Case> = (0..queries)
        .map(|_| Rect::centered_square(point(), 0.01))
        .map(|window| case(QuerySpec::Range { window }))
        .collect();
    let knns: Vec<Case> = (0..queries)
        .map(|_| {
            case(QuerySpec::Knn {
                center: point(),
                k: K,
            })
        })
        .collect();
    let joins: Vec<Case> = (0..JOIN_REPS)
        .map(|_| case(QuerySpec::Join { dist: JOIN_DIST }))
        .collect();

    // A cache nothing is ever evicted from, warmed by the queries it will
    // be timed on.
    let catalog = Catalog::from_tree(tree);
    let mut client = Client::new(1 << 40, ReplacementPolicy::Grd3, catalog);
    for case in windows.iter().chain(&knns).chain(&joins[..1]) {
        warm(&mut client, &server, &case.spec);
    }

    let mut rows = Vec::new();
    for (kind, cases) in [("range", &windows), ("knn", &knns), ("join", &joins)] {
        // Cross-check every query before timing any: the table never
        // compares different work.
        for case in cases {
            let want = canonical(&case.spec, reference(snap, case), snap);
            let served = [
                direct(snap, case),
                resume(snap, case),
                run_local(&mut client, case),
            ];
            for (arm, got) in ARMS.iter().zip(served) {
                assert!(
                    canonical(&case.spec, got, snap) == want,
                    "{arm} disagrees with the reference on {:?} at {n} objects",
                    case.spec
                );
            }
        }
        let passes = [
            time_pass(cases, |c| direct(snap, c)),
            time_pass(cases, |c| resume(snap, c)),
            time_pass(cases, |c| run_local(&mut client, c)),
            time_pass(cases, |c| reference(snap, c)),
        ];
        assert!(
            passes.iter().all(|p| p.1 == passes[3].1),
            "{kind} result counts diverged between arms"
        );
        rows.push(Row {
            objects: n,
            kind,
            queries: cases.len(),
            us: passes.map(|p| p.0),
            results: passes[3].1,
        });
    }
    rows
}

fn main() {
    let opts = HarnessOpts::from_args();
    let max_objects = opts.objects.unwrap_or(200_000);
    let queries = opts.queries.unwrap_or(1_000);
    println!("=== ext: query hot path (served executor vs plain-tree reference) ===");
    println!(
        "k={K} join_dist={JOIN_DIST} queries/size={queries} seed={}\n",
        opts.seed
    );

    let mut sizes = vec![max_objects];
    while *sizes.last().unwrap() > 40_000 {
        sizes.push(sizes.last().unwrap() / 4);
    }
    sizes.reverse();

    let mut t = Table::new(vec![
        "objects",
        "kind",
        "queries",
        "direct/q",
        "resume/q",
        "run_local/q",
        "reference/q",
        "results",
    ]);
    let mut json_rows = Vec::new();
    for &n in &sizes {
        for r in measure(n, queries, opts.seed) {
            let mut cells = vec![
                r.objects.to_string(),
                r.kind.to_string(),
                r.queries.to_string(),
            ];
            cells.extend(r.us.iter().map(|us| format!("{us:.1}us")));
            cells.push(r.results.to_string());
            t.row(cells);
            let mut obj = json::Obj::new()
                .num("objects", r.objects)
                .str("kind", r.kind)
                .num("queries", r.queries);
            for (arm, us) in ARMS.iter().zip(r.us) {
                obj = obj.num(&format!("{arm}_us"), us);
            }
            json_rows.push(obj.num("results", r.results).render());
        }
    }
    t.print();
    println!("\nevery query cross-checked: direct = resume = run_local = reference");

    if let Some(path) = &opts.json {
        let doc = json::Obj::new()
            .str("bench", "ext_hotpath")
            .num("seed", opts.seed)
            .num("k", K)
            .num("join_dist", JOIN_DIST)
            .num("queries_per_size", queries)
            .num("max_objects", max_objects)
            .raw("rows", &json::array(&json_rows))
            .render();
        std::fs::write(path, doc + "\n").expect("write --json output");
        println!("wrote {path}");
    }
}
