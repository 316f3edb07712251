//! Integration tests for the spatially-sharded cluster: an N-shard
//! [`Cluster`] behind the scatter-gather router — N = 1 is the paper's
//! single server, `Cluster::single` — must be observationally equivalent
//! to one unsharded index over the same dataset, for direct queries, cold
//! remainder resumes and the §7 versioned protocol, before and after
//! arbitrary update batches — and fleets must drive it through
//! `&dyn ServerHandle` unchanged.
//!
//! The reference shares nothing with the router: a bare `RTree`
//! bulk-loaded from the cluster's *current* store, read through the
//! engine over the tree itself and `resume_traced` + `assemble`, plus the
//! `pc_rtree::naive` oracles. A bug in the scatter, the merge or the
//! per-shard update derivation cannot hide by sitting on both sides.
//!
//! "Equivalent" is answer-level, not byte-level: the router gathers
//! per-shard partial replies, so serialization *order* differs from one
//! tree's pop order, but the answer sets (ids, kNN distance multisets,
//! canonical join pairs) are identical and every object is shipped — and
//! wire-charged — exactly once.

use procache::geom::{Point, Rect};
use procache::rtree::engine::{execute, NoopTracer};
use procache::rtree::proto::{
    CellRef, HeapEntry, QuerySpec, RemainderQuery, Request, ServerReply, Side,
};
use procache::rtree::{naive, ObjectId, ObjectStore, RTree, RTreeConfig, SpatialObject};
use procache::server::{
    assemble, resume_traced, Cluster, ClusterConfig, FormMode, ServerHandle, Transport, Update,
    VersionedReply,
};
use procache::sim::{self, generate_update, ChurnConfig, Fleet, SimConfig};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn sample_store(n: usize, seed: u64) -> ObjectStore {
    let mut rng = SmallRng::seed_from_u64(seed);
    ObjectStore::new(
        (0..n)
            .map(|i| SpatialObject {
                id: ObjectId(i as u32),
                // Small squares (not points) so some MBRs straddle tile
                // boundaries and exercise the dedup path.
                mbr: Rect::centered_square(
                    Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)),
                    rng.random_range(0.0..0.02),
                ),
                size_bytes: rng.random_range(100..2_000),
            })
            .collect(),
    )
}

/// A cold (empty-cache) remainder query rooted at `root` — whatever a
/// cluster advertises as its bootstrap root, or a bare tree's own root.
fn cold_remainder(
    root: Option<(procache::rtree::NodeId, Rect)>,
    spec: QuerySpec,
) -> Option<RemainderQuery> {
    let (node, mbr) = root?;
    let side = Side::Cell {
        cell: CellRef::node_root(node),
        mbr,
    };
    let entry = if spec.is_join() {
        HeapEntry::Pair(side, side)
    } else {
        HeapEntry::Single(side)
    };
    Some(RemainderQuery {
        spec,
        already_found: 0,
        heap: vec![(spec.key_for(&mbr), entry)],
    })
}

/// All result ids a reply carries (confirmations + shipped payloads),
/// sorted; `dedup` collapses multiplicity for the join case, where the two
/// sides may legitimately list pair members differently.
fn reply_ids(reply: &ServerReply, dedup: bool) -> Vec<ObjectId> {
    let mut ids: Vec<ObjectId> = reply
        .confirmed
        .iter()
        .copied()
        .chain(reply.objects.iter().map(|o| o.id))
        .collect();
    ids.sort_unstable();
    if dedup {
        ids.dedup();
    }
    ids
}

fn canonical_pairs(pairs: &[(ObjectId, ObjectId)]) -> Vec<(ObjectId, ObjectId)> {
    let mut out: Vec<(ObjectId, ObjectId)> = pairs
        .iter()
        .map(|&(a, b)| if a.0 <= b.0 { (a, b) } else { (b, a) })
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// Sorted bit-patterns of the min-distances from `center` to each id's
/// MBR: kNN answers may pick different ids at ties, but the distance
/// multiset is uniquely determined.
fn distance_bits<I>(store: &ObjectStore, ids: I, center: &Point) -> Vec<u64>
where
    I: IntoIterator<Item = ObjectId>,
{
    let mut out: Vec<u64> = ids
        .into_iter()
        .map(|id| store.get(id).mbr.min_dist(center).to_bits())
        .collect();
    out.sort_unstable();
    out
}

fn any_spec() -> impl Strategy<Value = QuerySpec> {
    // (kind selector, two coordinates, one free parameter) → a query of
    // any of the three shapes.
    (0u8..3, 0.05f64..0.95, 0.05f64..0.95, 0.0f64..1.0).prop_map(|(kind, x, y, t)| match kind {
        0 => QuerySpec::Range {
            window: Rect::centered_square(Point::new(x, y), 0.02 + 0.18 * t),
        },
        1 => QuerySpec::Knn {
            center: Point::new(x, y),
            k: 1 + (t * 15.0) as u32,
        },
        _ => QuerySpec::Join {
            dist: 0.005 + 0.035 * t,
        },
    })
}

/// One unsharded index over the live objects of `cluster`'s current store,
/// built from scratch: the reference world of [`assert_equivalent`].
fn reference_world(cluster: &Cluster, tree_cfg: RTreeConfig) -> (ObjectStore, RTree) {
    let store = cluster.core().pin().store().clone();
    let live: Vec<ObjectId> = store.iter_live().map(|o| o.id).collect();
    let single = RTree::bulk_load(tree_cfg, (&store, live));
    (store, single)
}

/// The router-equivalence property: for any dataset, shard count, query
/// and update history, the cluster agrees with one unsharded tree and the
/// brute-force oracle on every query path, and the merged reply never
/// ships an object twice.
fn assert_equivalent((store, single): &(ObjectStore, RTree), cluster: &Cluster, spec: QuerySpec) {
    // Direct (uncached) path.
    let sd = execute(single, &spec, &mut NoopTracer);
    let cd = cluster.core().pin().direct(&spec);
    match spec {
        QuerySpec::Range { ref window } => {
            let mut want: Vec<ObjectId> = sd.results.iter().map(|&(id, _)| id).collect();
            want.sort_unstable();
            assert_eq!(want, naive::range_naive(store, window), "reference range");
            let mut got = cd.results.clone();
            got.sort_unstable();
            assert_eq!(got, want, "direct range diverged");
        }
        QuerySpec::Knn { ref center, k } => {
            assert_eq!(cd.results.len(), sd.results.len(), "direct knn count");
            let want = distance_bits(store, sd.results.iter().map(|&(id, _)| id), center);
            let oracle = naive::knn_naive(store, center, k as usize);
            assert_eq!(
                want,
                distance_bits(store, oracle.iter().map(|&(id, _)| id), center),
                "reference knn"
            );
            let got = distance_bits(store, cd.results.iter().copied(), center);
            assert_eq!(got, want, "direct knn distances diverged");
        }
        QuerySpec::Join { dist } => {
            let want = canonical_pairs(&sd.result_pairs);
            assert_eq!(want, naive::join_naive(store, dist), "reference join");
            assert_eq!(canonical_pairs(&cd.pairs), want, "direct join diverged");
        }
    }

    // Cold remainder resume, each side from its own root.
    let single_root = single.root_mbr().map(|mbr| (single.root(), mbr));
    let (Some(srq), Some(crq)) = (
        cold_remainder(single_root, spec),
        cold_remainder(cluster.bootstrap_root().0, spec),
    ) else {
        return;
    };
    let (outcome, log) = resume_traced(single, &srq);
    let sreply = assemble(single, store, outcome, log, FormMode::COMPACT);
    let creply = cluster
        .call(9, Request::Remainder(crq.clone()))
        .into_remainder();
    // Wire honesty: the merged reply must never ship (and charge) an
    // object twice, boundary straddlers included.
    let mut shipped: Vec<ObjectId> = creply.objects.iter().map(|o| o.id).collect();
    shipped.sort_unstable();
    let before = shipped.len();
    shipped.dedup();
    assert_eq!(
        shipped.len(),
        before,
        "merged reply shipped an object twice"
    );
    compare_replies(store, &spec, &sreply, &creply, "cold remainder");

    // Versioned protocol at the current epoch: Fresh, nothing to
    // invalidate, the same payload.
    let epoch = cluster.core().pin().epoch();
    let req = Request::RemainderVersioned { query: crq, epoch };
    match cluster.call(9, req).into_versioned() {
        VersionedReply::Fresh {
            reply,
            invalidate,
            epoch,
        } => {
            assert!(invalidate.is_empty(), "nothing changed since current epoch");
            assert_eq!(epoch, cluster.core().pin().epoch());
            compare_replies(store, &spec, &sreply, &reply, "versioned remainder");
        }
        other => panic!("expected Fresh at the current epoch, got {other:?}"),
    }
}

fn compare_replies(
    store: &ObjectStore,
    spec: &QuerySpec,
    single: &ServerReply,
    cluster: &ServerReply,
    what: &str,
) {
    match spec {
        QuerySpec::Range { .. } => {
            assert_eq!(
                reply_ids(cluster, false),
                reply_ids(single, false),
                "{what}: range ids diverged"
            );
        }
        QuerySpec::Knn { ref center, .. } => {
            let want = distance_bits(store, reply_ids(single, false), center);
            let got = distance_bits(store, reply_ids(cluster, false), center);
            assert_eq!(got, want, "{what}: knn distances diverged");
        }
        QuerySpec::Join { .. } => {
            assert_eq!(
                canonical_pairs(&cluster.pairs),
                canonical_pairs(&single.pairs),
                "{what}: join pairs diverged"
            );
            assert_eq!(
                reply_ids(cluster, true),
                reply_ids(single, true),
                "{what}: join result ids diverged"
            );
        }
    }
}

/// Each shard's tree holds exactly the objects the router's partition of
/// the (not yet updated) store assigns it.
fn assert_shards_index_their_partition(store: &ObjectStore, cluster: &Cluster) {
    let pin = cluster.core().pin();
    for s in 0..cluster.config().shards {
        let owned = cluster.shard_map().owned_by(store, s);
        assert_eq!(pin.shard(s).object_count(), owned.len(), "shard {s}");
    }
}

/// A world large enough that `Cluster::new` builds its shards (and each
/// shard its BPTs) on worker threads wherever the host has more than one
/// core: same partition, same answers as one unsharded tree.
#[test]
fn cluster_built_on_worker_threads_matches_single_server() {
    let store = sample_store(40_000, 77);
    let cluster = Cluster::new(store.clone(), RTreeConfig::paper(), ClusterConfig::new(4));
    assert_shards_index_their_partition(&store, &cluster);
    let single = reference_world(&cluster, RTreeConfig::paper());
    for spec in [
        QuerySpec::Range {
            window: Rect::from_coords(0.2, 0.3, 0.6, 0.55),
        },
        QuerySpec::Knn {
            center: Point::new(0.5, 0.5),
            k: 40,
        },
    ] {
        assert_equivalent(&single, &cluster, spec);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cluster_matches_single_server(
        seed in 0u64..1 << 32,
        n in 60usize..160,
        shards in 1u32..=8,
        spec in any_spec(),
        batches in prop::collection::vec(1usize..12, 0..=3),
    ) {
        let store = sample_store(n, seed);
        let cluster = Cluster::new(store.clone(), RTreeConfig::small(), ClusterConfig::new(shards));
        assert_shards_index_their_partition(&store, &cluster);

        // After every batch the reference is rebuilt from the store the
        // cluster now serves, so a mis-derived shard operation shows as a
        // wrong answer at the batch that made it.
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xA5A5_5A5A);
        for batch_len in batches {
            let n_live = cluster.core().pin().store().len() as u32;
            let batch: Vec<Update> =
                (0..batch_len).map(|_| generate_update(&mut rng, n_live)).collect();
            cluster.apply_updates(&batch);
            assert_equivalent(&reference_world(&cluster, RTreeConfig::small()), &cluster, spec);
        }

        assert_equivalent(&reference_world(&cluster, RTreeConfig::small()), &cluster, spec);
    }
}

fn cluster_fleet_cfg() -> SimConfig {
    let mut cfg = SimConfig::small();
    cfg.n_objects = 2_000;
    cfg.n_queries = 100;
    cfg.window = 50;
    cfg.fmr_report_period = 25;
    cfg
}

/// A verifying fleet (every answer cross-checked against the cluster's
/// direct path) runs to completion over a 4-shard cluster through the
/// same `&dyn ServerHandle` surface as a single server.
#[test]
fn verified_fleet_runs_against_a_cluster() {
    let cfg = cluster_fleet_cfg(); // SimConfig::small keeps verify = true
    let cluster = sim::build_cluster(&cfg, 4);
    let res = Fleet::new(cfg).clients(3).run(&cluster);
    assert_eq!(res.total_queries(), 3 * cfg.n_queries);
    // Sessions disconnect on completion; the router forgets them on every
    // shard.
    assert_eq!(cluster.adaptive().tracked_clients(), 0);
}

/// Churn against the cluster: the router splits each batch by owning shard
/// and rebuilds only the shards it touches — their changes logged at the
/// one deployment epoch — while versioned sessions ride out stale
/// refusals: staleness is decided per shard, not globally. At 2, 4 and 8
/// shards (the benchmark churns 1 and 4).
#[test]
fn churned_fleet_publishes_per_shard_epochs() {
    let mut cfg = cluster_fleet_cfg();
    cfg.verify = false; // answers are epoch-exact, not end-state-exact
    for shards in [2, 4, 8] {
        let cluster = sim::build_cluster(&cfg, shards);
        let res = Fleet::new(cfg)
            .clients(4)
            .churn(ChurnConfig {
                rate_per_100: 30,
                batch: 4,
                ..Default::default()
            })
            .run(&cluster);
        assert_eq!(res.total_queries(), 4 * cfg.n_queries, "{shards} shards");
        assert!(res.updates_applied > 0, "churn driver never ran");
        assert_eq!(res.final_epoch, cluster.core().pin().epoch());
        assert!(res.final_epoch > 0);
        // The log stamps changes with the deployment epoch, so it holds
        // none from beyond it.
        let pin = cluster.core().pin();
        assert_eq!(pin.epoch(), res.final_epoch);
        assert!(pin.update_log().changed_since(res.final_epoch).is_empty());
        assert!(res.log_records > 0, "churn left no invalidation log");
        assert_eq!(cluster.adaptive().tracked_clients(), 0, "{shards} shards");
    }
}
