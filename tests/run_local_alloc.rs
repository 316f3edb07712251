//! A cache-complete `Client::run_local` allocates its answer and nothing
//! else: once one run has sized the client's engine buffers and access
//! log, a range or kNN query makes exactly 2 allocations (the engine's
//! result vector and the saved-id list) and a self-join exactly 3 (plus
//! its pair list), however many cells the query expands.
//!
//! And the client keeps no per-cell state: a self-join expands every cell
//! of every cached node (each cell's pair with itself is within any
//! distance), yet running one on a fresh client over a warm cache leaves
//! the client larger by a few bytes per cached node, not per cell — the
//! client traces nodes; the cell-level trace is the server's.
//!
//! A binary of its own: the counting allocator is process-wide, so the one
//! test here runs alone in its process.

use pc_bench::alloc::Counting;
use procache::cache::{Catalog, ItemKey, ReplacementPolicy};
use procache::client::Client;
use procache::geom::{Point, Rect};
use procache::rtree::proto::{QuerySpec, Request};
use procache::rtree::{ObjectId, ObjectStore, RTreeConfig, SpatialObject};
use procache::server::{Cluster, ServerConfig, ServerHandle, Transport};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

#[global_allocator]
static ALLOC: Counting = Counting::new();

/// Allocations per cache-complete `run_local`, by query kind.
const RANGE_OR_KNN: usize = 2;
const JOIN: usize = 3;

/// What a fresh client may keep after its first self-join over a warm
/// cache: its engine buffers and node trace, per cached node and fixed.
/// A client tracing every cell, as the server does, kept ~350 bytes per
/// node here (8-entry nodes) and ~4.9 KB per node at 4 KB pages.
const KEPT_BYTES_PER_NODE: usize = 64;
const KEPT_BYTES_FIXED: usize = 16 << 10;

#[test]
fn cache_complete_run_local_allocates_a_constant() {
    let mut rng = SmallRng::seed_from_u64(41);
    let objects: Vec<SpatialObject> = (0..3_000)
        .map(|i| SpatialObject {
            id: ObjectId(i),
            mbr: Rect::from_point(Point::new(
                rng.random_range(0.0..1.0),
                rng.random_range(0.0..1.0),
            )),
            size_bytes: 500,
        })
        .collect();
    let server = Cluster::single(
        ObjectStore::new(objects),
        RTreeConfig::small(),
        ServerConfig::default(),
    );
    let root = server.bootstrap_root().0;
    let mut client = Client::new(1 << 40, ReplacementPolicy::Grd3, Catalog { root });

    // A small and a large query of each kind: the expansion counts differ
    // several-fold, the allocation counts must not.
    let center = Point::new(0.45, 0.55);
    let cases = [
        (
            QuerySpec::Range {
                window: Rect::centered_square(center, 0.05),
            },
            RANGE_OR_KNN,
        ),
        (
            QuerySpec::Range {
                window: Rect::centered_square(center, 0.4),
            },
            RANGE_OR_KNN,
        ),
        (QuerySpec::Knn { center, k: 3 }, RANGE_OR_KNN),
        (QuerySpec::Knn { center, k: 60 }, RANGE_OR_KNN),
        (QuerySpec::Join { dist: 0.001 }, JOIN),
        (QuerySpec::Join { dist: 0.01 }, JOIN),
    ];
    // Warm the cache until each query completes locally; that last run
    // also sizes the engine buffers and the access log for it.
    for (spec, _) in &cases {
        let complete = (0..8).any(|_| {
            client.begin_query();
            let Some(rq) = client.run_local(spec).remainder else {
                return true;
            };
            let reply = server.call(0, Request::Remainder(rq)).into_remainder();
            client.absorb(&reply, Point::ORIGIN);
            false
        });
        assert!(complete, "cache still incomplete for {spec:?}");
    }

    let mut expansions = Vec::new();
    for (spec, want) in &cases {
        let before = ALLOC.allocations();
        let local = client.run_local(spec);
        let allocations = ALLOC.allocations() - before;
        assert!(local.complete());
        assert!(!local.saved.is_empty(), "{spec:?} found nothing");
        eprintln!(
            "{spec:?}: {} expansions, {allocations} allocations",
            local.expansions
        );
        assert_eq!(allocations, *want, "{spec:?}");
        expansions.push(local.expansions);
    }
    for pair in expansions.chunks(2) {
        assert!(pair[1] >= 2 * pair[0], "sizes too close: {expansions:?}");
    }

    // A fresh client over the warm cache: its first self-join sizes its
    // buffers and trace from nothing.
    let nodes = client
        .cache()
        .keys()
        .filter(|k| matches!(k, ItemKey::Node(_)))
        .count();
    let mut fresh = Client::new(1 << 40, ReplacementPolicy::Grd3, Catalog { root });
    *fresh.cache_mut() = client.cache().clone();
    let join = QuerySpec::Join { dist: 0.001 };
    let before = ALLOC.live();
    let local = fresh.run_local(&join);
    assert!(local.complete());
    let expansions = local.expansions;
    drop(local);
    let kept = ALLOC.live().saturating_sub(before);
    eprintln!(
        "first join on a fresh client: {expansions} expansions over {nodes} cached nodes, \
         {kept} bytes kept ({:.1} per node)",
        kept as f64 / nodes as f64
    );
    assert!(
        expansions as usize >= 4 * nodes,
        "the join expanded too little to tell"
    );
    assert!(
        kept <= KEPT_BYTES_PER_NODE * nodes + KEPT_BYTES_FIXED,
        "run_local keeps {kept} bytes for {nodes} cached nodes"
    );
}
