//! Query hot-path extension experiment: what does a served query cost, next
//! to the plain-tree reference?
//!
//! Every query a server, cluster or client answers runs the §3.3 engine
//! (`pc_rtree::engine`) over an index that is its own `IndexView` — a
//! shard's `RTree`, a `Snapshot`, a client's `ProactiveCache`;
//! `pc_rtree::query` is the reference the tests compare it against and
//! serves nothing. This binary
//! sweeps dataset sizes up to `--objects` (use `--objects 1000000` for the
//! million-object run) and, at each size, answers the same range, kNN and
//! self-join queries six ways:
//!
//! * **direct** — `engine::execute` over the shard's `RTree` itself,
//!   untraced (what `Request::Direct` runs on one shard);
//! * **traverse** — `engine::resume` of the cold remainder `{Q, [root]}`
//!   under `NoopTracer`: the traversal a cold contact runs, untraced;
//! * **trace** — `pc_server::resume_traced` of the same remainder: the
//!   traversal plus the `AccessLog`;
//! * **resume** — `resume_traced` + `pc_server::assemble` in compact form:
//!   the traced traversal plus building the supporting index and
//!   splitting the result set (what a cold client's contact costs the
//!   server);
//! * **run_local** — `Client::run_local` over a `ProactiveCache` warmed by
//!   these very queries (cache large enough that nothing is evicted), so
//!   every query completes locally: stage ① at its best;
//! * **reference** — `pc_rtree::query`, the iterative SoA loops over the
//!   plain tree.
//!
//! Each arm's time includes producing its id / pair list, and is the
//! fastest of [`PASSES`] passes over the queries, the arm order rotated
//! per pass; `spread` is the widest arm's slowest / fastest pass − 1.
//! Before timing, **every** query is answered by all six arms and the
//! answers compared (ids for range, distances for kNN — ties may pick
//! different ids — and the pair set for the join); the five served arms
//! must also emit a join's pairs and objects in the same order, since the
//! engine emits them by (pair distance, pair). Any disagreement aborts the
//! run with a non-zero exit. `--json OUT` writes the rows as
//! `BENCH_hotpath.json`.

use pc_bench::{json, HarnessOpts, Table};
use pc_cache::{Catalog, ReplacementPolicy};
use pc_client::Client;
use pc_geom::{Point, Rect};
use pc_rtree::engine::{self, execute, NoopTracer};
use pc_rtree::proto::{CellRef, HeapEntry, QuerySpec, RemainderQuery, Request, Side};
use pc_rtree::{query, ObjectId, RTreeConfig};
use pc_server::{
    assemble, resume_traced, Cluster, FormMode, ServerConfig, ServerHandle, Snapshot, Transport,
};
use pc_workload::datasets;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// Neighbours requested per kNN query (the paper's NN experiments use
/// small k; 10 keeps the heap non-trivial).
const K: u32 = 10;

/// Self-join distances, one query each (the self-join walks the whole
/// tree, so two are plenty of work at every size in the sweep): the
/// paper's 5e-5 scale, which the NE-like hard-core spacing (1.5e-4) makes
/// a pure index/CPU stressor returning no pairs, and just above that
/// spacing, which returns pairs at every size from 10 000 objects up
/// (69 there, 8 835 at 123 593).
const JOIN_DISTS: [f64; 2] = [6e-5, 2e-4];

/// Passes timed per arm; an arm's time is its fastest pass.
const PASSES: usize = 5;

/// What one arm answered: result ids in the arm's own order, join pairs.
type Answer = (Vec<ObjectId>, Vec<(ObjectId, ObjectId)>);

/// One way to answer a case: over the snapshot, or over the warm client.
type Arm = fn(&Snapshot, &mut Client, &Case) -> Answer;

/// The arms in column order; the last, the reference, is what every other
/// arm is checked against.
const ARMS: [(&str, Arm); 6] = [
    ("direct", |snap, _, case| direct(snap, case)),
    ("traverse", |snap, _, case| traverse(snap, case)),
    ("trace", |snap, _, case| trace(snap, case)),
    ("resume", |snap, _, case| resume(snap, case)),
    ("run_local", |_, client, case| run_local(client, case)),
    ("reference", |snap, _, case| reference(snap, case)),
];
const REFERENCE: usize = ARMS.len() - 1;

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
    let out = execute(snap.shard(0), &case.spec, &mut NoopTracer);
    let ids = out.results.iter().map(|&(id, _)| id).collect();
    (ids, out.result_pairs)
}

fn traverse(snap: &Snapshot, case: &Case) -> Answer {
    let out = engine::resume(snap.shard(0), &case.cold, &mut NoopTracer);
    let ids = out.results.iter().map(|&(id, _)| id).collect();
    (ids, out.result_pairs)
}

fn trace(snap: &Snapshot, case: &Case) -> Answer {
    let (out, log) = resume_traced(snap.shard(0), &case.cold);
    black_box(&log);
    let ids = out.results.iter().map(|&(id, _)| id).collect();
    (ids, out.result_pairs)
}

fn resume(snap: &Snapshot, case: &Case) -> Answer {
    let tree = snap.shard(0);
    let (outcome, log) = resume_traced(tree, &case.cold);
    let reply = assemble(tree, snap.store(), outcome, log, FormMode::COMPACT);
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
    let tree = snap.shard(0);
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
        let reply = server.call(0, Request::Remainder(rq)).into_remainder();
        client.absorb(&reply, Point::ORIGIN);
    }
    panic!("cache still incomplete for {spec:?} after 8 contacts");
}

struct Row {
    objects: usize,
    kind: &'static str,
    queries: usize,
    /// µs per query, in [`ARMS`] order: each arm's fastest pass.
    us: [f64; ARMS.len()],
    /// Each arm's slowest pass / fastest pass − 1.
    spread: [f64; ARMS.len()],
    results: u64,
}

/// Times one pass of `arm` over `cases`: (µs per query, results returned
/// — pairs for a join, which the reference answers without objects).
fn time_pass(cases: &[Case], mut arm: impl FnMut(&Case) -> Answer) -> (f64, u64) {
    let mut results = 0;
    let t = Instant::now();
    for case in cases {
        let (ids, pairs) = black_box(arm(black_box(case)));
        results += if case.spec.is_join() {
            pairs.len()
        } else {
            ids.len()
        } as u64;
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
    let snap = server.core().pin();
    let snap = &*snap;
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x407);
    let mut point = || Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0));

    let root = server.bootstrap_root().0;
    let (node, mbr) = root.expect("non-empty dataset");
    let side = Side::Cell {
        cell: CellRef::node_root(node),
        mbr,
    };
    let case = |spec: QuerySpec| {
        let entry = if spec.is_join() {
            HeapEntry::Pair(side, side)
        } else {
            HeapEntry::Single(side)
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
    let joins: Vec<Case> = JOIN_DISTS
        .iter()
        .map(|&dist| case(QuerySpec::Join { dist }))
        .collect();

    // A cache nothing is ever evicted from, warmed by the queries it will
    // be timed on.
    let mut client = Client::new(1 << 40, ReplacementPolicy::Grd3, Catalog { root });
    for case in windows.iter().chain(&knns).chain(&joins) {
        warm(&mut client, &server, &case.spec);
    }

    let mut rows = Vec::new();
    for (kind, cases) in [("range", &windows), ("knn", &knns), ("join", &joins)] {
        // Cross-check every query before timing any: the table never
        // compares different work.
        for case in cases {
            let answers = ARMS.map(|(_, arm)| arm(snap, &mut client, case));
            let want = canonical(&case.spec, answers[REFERENCE].clone(), snap);
            for ((name, _), got) in ARMS.iter().zip(&answers).take(REFERENCE) {
                if case.spec.is_join() {
                    assert!(
                        *got == answers[0],
                        "{name} emits the join at {n} objects in another order than direct"
                    );
                }
                assert!(
                    canonical(&case.spec, got.clone(), snap) == want,
                    "{name} disagrees with the reference on {:?} at {n} objects",
                    case.spec
                );
            }
        }
        // The arm order rotates per pass: no arm always runs first, or
        // right after the same neighbour.
        let (mut us, mut slowest) = ([f64::INFINITY; ARMS.len()], [0f64; ARMS.len()]);
        let mut results = [0; ARMS.len()];
        for pass in 0..PASSES {
            for at in (0..ARMS.len()).map(|i| (pass + i) % ARMS.len()) {
                let (t, found) = time_pass(cases, |c| ARMS[at].1(snap, &mut client, c));
                (us[at], slowest[at], results[at]) = (us[at].min(t), slowest[at].max(t), found);
            }
        }
        assert!(
            results.iter().all(|&r| r == results[REFERENCE]),
            "{kind} result counts diverged between arms"
        );
        rows.push(Row {
            objects: n,
            kind,
            queries: cases.len(),
            us,
            spread: std::array::from_fn(|a| slowest[a] / us[a] - 1.0),
            results: results[REFERENCE],
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
        "k={K} join_dists={JOIN_DISTS:?} queries/size={queries} seed={}\n",
        opts.seed
    );

    let mut sizes = vec![max_objects];
    while *sizes.last().unwrap() > 40_000 {
        sizes.push(sizes.last().unwrap() / 4);
    }
    sizes.reverse();

    let mut header: Vec<String> = ["objects", "kind", "queries"].map(String::from).to_vec();
    header.extend(ARMS.iter().map(|(arm, _)| format!("{arm}/q")));
    header.extend(["spread", "results"].map(String::from));
    let mut t = Table::new(header);
    let mut json_rows = Vec::new();
    for &n in &sizes {
        for r in measure(n, queries, opts.seed) {
            let mut cells = vec![
                r.objects.to_string(),
                r.kind.to_string(),
                r.queries.to_string(),
            ];
            cells.extend(r.us.iter().map(|us| format!("{us:.1}us")));
            let spread = r.spread.iter().copied().fold(0.0, f64::max);
            cells.push(format!("{:.0}%", 100.0 * spread));
            cells.push(r.results.to_string());
            t.row(cells);
            let mut obj = json::Obj::new()
                .num("objects", r.objects)
                .str("kind", r.kind)
                .num("queries", r.queries);
            for (((arm, _), us), spread) in ARMS.iter().zip(r.us).zip(r.spread) {
                obj = obj
                    .num(&format!("{arm}_us"), us)
                    .num(&format!("{arm}_spread"), spread);
            }
            json_rows.push(obj.num("results", r.results).render());
        }
    }
    t.print();
    println!(
        "\nevery query cross-checked: direct = traverse = trace = resume = run_local = reference"
    );

    if let Some(path) = &opts.json {
        let doc = json::Obj::new()
            .str("bench", "ext_hotpath")
            .num("seed", opts.seed)
            .num("k", K)
            .raw(
                "join_dists",
                &json::array(&JOIN_DISTS.map(|d| d.to_string())),
            )
            .num("queries_per_size", queries)
            .num("max_objects", max_objects)
            .raw("rows", &json::array(&json_rows))
            .render();
        std::fs::write(path, doc + "\n").expect("write --json output");
        println!("wrote {path}");
    }
}
