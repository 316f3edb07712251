//! Server updates and cache invalidation — the paper's §7 future work
//! ("we plan to investigate the impact of server updates on proactive
//! caching and devise efficient cache invalidation schemes"), built as an
//! epoch-stamped invalidation protocol:
//!
//! * every update batch bumps the deployment **epoch** and records which
//!   index nodes changed — in whichever shards it touched — in the
//!   deployment's one [`UpdateLog`] (each shard's R-tree reports its dirty
//!   set; their BPTs are rebuilt);
//! * a client attaches its last-synced epoch to each remainder query;
//! * a behind-epoch contact is refused ([`VersionedReply::Stale`]) with the
//!   changed-node list: the client drops those items (with descendants,
//!   per the §5 constraint), re-runs stage ① against the cleaned cache and
//!   resubmits — one extra round trip per epoch gap, charged honestly by
//!   the experiments.
//!
//! Updates are **concurrent with queries**: [`crate::Cluster::apply_updates`]
//! takes `&self`, building the next epoch's snapshot off to the side and
//! publishing it by pointer swap ([`crate::ServerCore`]), so a fleet keeps reading
//! the old epoch while the object set churns. The version check and the
//! resume of one contact execute against a single pinned epoch, so an
//! accepted resume can never straddle an epoch boundary.
//!
//! Consistency model: answers computed *at* a contact reflect the epoch
//! they were answered in exactly; purely local answers between contacts
//! may be stale (bounded by contact frequency). This is the standard
//! trade-off for invalidation-on-contact schemes without a downlink
//! broadcast channel.

use pc_geom::Rect;
/// Re-exported from the wire protocol (`pc_rtree::proto`), where the
/// [`Request::RemainderVersioned`](pc_rtree::proto::Request) envelope
/// carries it.
pub use pc_rtree::proto::VersionedReply;
use pc_rtree::{NodeId, ObjectId};
use std::collections::HashMap;

/// One server-side data change.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Update {
    /// A new object appears (id assigned by the store).
    Insert { mbr: Rect, size_bytes: u32 },
    /// An object disappears.
    Delete(ObjectId),
    /// An object relocates.
    Move { id: ObjectId, to: Rect },
}

/// The deployment's invalidation log: which index nodes changed, as
/// cluster-global ids (the super-root included, as [`crate::SUPER_ROOT`],
/// when a batch re-laid it on a multi-shard deployment), each stamped with
/// the deployment epoch of the batch that last changed it. One per
/// published [`crate::Snapshot`], whatever its shard count.
///
/// History is **bounded**: each epoch publish prunes change records at or
/// below a horizon (the fleet's low-water mark and/or a hard history
/// cap), raising [`low_water`](UpdateLog::low_water). `changed_since` is
/// complete only for `since >= low_water`; a contact stamped below it must
/// be refused with [`VersionedReply::FullRefresh`] instead of a silently
/// truncated invalidation list.
#[derive(Clone, Debug, Default)]
pub struct UpdateLog {
    /// Oldest client epoch `changed_since` can still answer completely.
    /// Everything recorded at or below it has been pruned.
    low_water: u64,
    /// Node → deployment epoch of its most recent change.
    node_changes: HashMap<NodeId, u64>,
}

impl UpdateLog {
    /// Oldest client epoch this log can produce a complete invalidation
    /// list for. Contacts stamped below it get a full-refresh refusal.
    pub fn low_water(&self) -> u64 {
        self.low_water
    }

    /// Nodes changed after `since`, sorted. Complete only for
    /// `since >= low_water`.
    pub fn changed_since(&self, since: u64) -> Vec<NodeId> {
        debug_assert!(
            since >= self.low_water,
            "changed_since({since}) below the low-water mark {} under-reports",
            self.low_water
        );
        let mut out: Vec<NodeId> = self
            .node_changes
            .iter()
            .filter(|(_, &e)| e > since)
            .map(|(&n, _)| n)
            .collect();
        out.sort_unstable();
        out
    }

    /// Number of retained change records — the resident-footprint
    /// diagnostic the epoch-cost experiment reports.
    pub fn retained_records(&self) -> usize {
        self.node_changes.len()
    }

    /// The epoch `node` last changed at, if that record is still retained.
    pub(crate) fn last_change(&self, node: NodeId) -> Option<u64> {
        self.node_changes.get(&node).copied()
    }

    /// Drops every record at or below `horizon` and raises the low-water
    /// mark to it. Idempotent; a horizon below the current mark is a no-op.
    pub(crate) fn prune(&mut self, horizon: u64) {
        if horizon <= self.low_water {
            return;
        }
        self.node_changes.retain(|_, &mut e| e > horizon);
        self.low_water = horizon;
    }

    pub(crate) fn record_change(&mut self, node: NodeId, epoch: u64) {
        self.node_changes.insert(node, epoch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{churn_once, cold_remainder, random_update, sample_store};
    use crate::{Cluster, ServerConfig};
    use pc_geom::Point;
    use pc_rtree::naive;
    use pc_rtree::proto::{CellRef, HeapEntry, QuerySpec, RemainderQuery, Side};
    use pc_rtree::{RTreeConfig, SpatialObject};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicBool, Ordering};

    fn sample_server(n: usize, seed: u64) -> Cluster {
        sample_server_with(n, seed, ServerConfig::default())
    }

    fn sample_server_with(n: usize, seed: u64, cfg: ServerConfig) -> Cluster {
        Cluster::single(sample_store(n, seed), RTreeConfig::small(), cfg)
    }

    #[test]
    fn updates_bump_epoch_and_record_changes() {
        let server = sample_server(200, 1);
        let snap = server.snapshot();
        assert_eq!(snap.epoch(), 0);
        let e1 = server.apply_updates(&[Update::Insert {
            mbr: Rect::from_point(Point::new(0.5, 0.5)),
            size_bytes: 777,
        }]);
        assert_eq!(e1, 1);
        let now = server.snapshot();
        assert!(!now.update_log().changed_since(0).is_empty());
        assert!(now.update_log().changed_since(1).is_empty());
        // The pre-update pin still sees the unchanged world.
        assert_eq!(snap.epoch(), 0);
        assert!(snap.update_log().changed_since(0).is_empty());
    }

    #[test]
    fn queries_reflect_updates() {
        let server = sample_server(200, 2);
        let w = Rect::centered_square(Point::new(0.5, 0.5), 0.1);
        let before = naive::range_naive(server.snapshot().store(), &w).len();
        // Drop everything currently in the window, then add one point.
        let victims: Vec<Update> = naive::range_naive(server.snapshot().store(), &w)
            .into_iter()
            .map(Update::Delete)
            .collect();
        server.apply_updates(&victims);
        server.apply_updates(&[Update::Insert {
            mbr: Rect::from_point(Point::new(0.5, 0.5)),
            size_bytes: 123,
        }]);
        let outcome = server.direct(&QuerySpec::Range { window: w });
        assert_eq!(
            outcome.results.len(),
            1,
            "was {before}, all deleted, one added"
        );
        let snap = server.snapshot();
        snap.shard(0)
            .tree()
            .validate(snap.shard(0).tree().object_count(), false)
            .unwrap();
    }

    #[test]
    fn moves_relocate_objects() {
        let server = sample_server(150, 3);
        let id = ObjectId(0);
        let to = Rect::from_point(Point::new(0.99, 0.99));
        server.apply_updates(&[Update::Move { id, to }]);
        let knn = server.direct(&QuerySpec::Knn {
            center: Point::new(0.99, 0.99),
            k: 1,
        });
        assert_eq!(knn.results[0], id, "moved object is now the nearest");
    }

    /// Root, then every reachable node with its level and entries.
    fn tree_shape(snap: &crate::Snapshot) -> (NodeId, Vec<(NodeId, u16, Vec<pc_rtree::Entry>)>) {
        let tree = snap.shard(0).tree();
        let mut nodes: Vec<_> = tree
            .node_ids()
            .into_iter()
            .map(|n| (n, tree.node(n).level, tree.node(n).entries().collect()))
            .collect();
        nodes.sort_by_key(|n| n.0);
        (tree.root(), nodes)
    }

    #[test]
    fn a_batch_naming_one_object_twice_nets_to_its_single_op_equivalent() {
        // One answer for every deployment: a batch is netted per object —
        // the tree sees one operation, deleting at the batch-start MBR —
        // so it dirties (and invalidates) exactly what the equivalent
        // single-op batch does.
        let a = ObjectId(11);
        let p = Rect::from_point(Point::new(0.9, 0.9));
        let q = Rect::from_point(Point::new(0.1, 0.8));
        let fresh = Update::Insert {
            mbr: q,
            size_bytes: 64,
        };
        let cases: [(&[Update], &[Update]); 3] = [
            (
                &[Update::Move { id: a, to: p }, Update::Move { id: a, to: q }],
                &[Update::Move { id: a, to: q }],
            ),
            (
                &[Update::Move { id: a, to: p }, Update::Delete(a)],
                &[Update::Delete(a)],
            ),
            // The index never saw the object: nothing to log, though the
            // store did assign (and tombstone) its id.
            (&[fresh, Update::Delete(ObjectId(200))], &[]),
        ];
        for (twice, once) in cases {
            let (x, y) = (sample_server(200, 8), sample_server(200, 8));
            assert_eq!(x.apply_updates(twice), 1);
            assert_eq!(y.apply_updates(once), 1);
            let (x, y) = (x.snapshot(), y.snapshot());
            // The pin's epoch is the deployment's — what `apply_updates`
            // just returned — even for the batch that netted to nothing,
            // which never touched the shard and logged nothing.
            assert_eq!((x.epoch(), y.epoch()), (1, 1), "{twice:?}");
            assert_eq!(tree_shape(&x), tree_shape(&y), "{twice:?}");
            let (lx, ly) = (x.update_log(), y.update_log());
            assert_eq!(lx.retained_records() > 0, !once.is_empty(), "{twice:?}");
            assert_eq!(x.store().live_count(), y.store().live_count(), "{twice:?}");
            assert_eq!(lx.changed_since(0), ly.changed_since(0), "{twice:?}");
            x.shard(0)
                .tree()
                .validate(x.store().live_count(), false)
                .unwrap();
        }

        // Ids are assigned in batch order, whatever the netting drops.
        let server = sample_server(200, 8);
        server.apply_updates(&[
            Update::Insert {
                mbr: p,
                size_bytes: 1,
            },
            fresh,
            Update::Delete(ObjectId(200)),
        ]);
        let snap = server.snapshot();
        assert_eq!(snap.store().len(), 202);
        assert!(!snap.store().is_live(ObjectId(200)));
        assert_eq!(snap.store().get(ObjectId(200)).mbr, p);
        assert_eq!(snap.store().get(ObjectId(201)).mbr, q);
        assert_eq!(naive::range_naive(snap.store(), &q), vec![ObjectId(201)]);
        let found = snap
            .shard(0)
            .direct(&QuerySpec::Range { window: q })
            .results;
        assert_eq!(found, vec![(ObjectId(201), false)]);
    }

    #[test]
    fn stale_remainder_is_refused() {
        let server = sample_server(200, 4);
        server.apply_updates(&[Update::Delete(ObjectId(5))]);
        // A remainder whose heap references one of the nodes the delete
        // changed must be refused when the client is behind (epoch 0).
        // (A remainder through *unchanged* nodes stays resumable — the
        // companion test below — so we target a changed leaf explicitly.)
        let snap = server.snapshot();
        let changed = snap.update_log().changed_since(0);
        assert!(!changed.is_empty());
        let leaf = *changed
            .iter()
            .find(|n| snap.shard(0).tree().node(**n).is_leaf())
            .expect("delete dirties its leaf");
        let mbr = snap.shard(0).tree().node(leaf).mbr().unwrap();
        let rq = RemainderQuery {
            spec: QuerySpec::Range { window: mbr },
            already_found: 0,
            heap: vec![(
                0.0,
                HeapEntry::Single(Side::Cell {
                    cell: CellRef::node_root(leaf),
                    mbr,
                }),
            )],
        };
        match server.process_remainder_versioned(0, &rq, 0) {
            VersionedReply::Stale { invalidate, epoch } => {
                assert_eq!(epoch, 1);
                assert!(invalidate.contains(&leaf));
            }
            other => panic!("must refuse a stale resume, got {other:?}"),
        }
        // With the current epoch it goes through.
        match server.process_remainder_versioned(0, &rq, 1) {
            VersionedReply::Fresh {
                reply, invalidate, ..
            } => {
                assert!(invalidate.is_empty());
                assert!(!reply.index.is_empty());
            }
            other => panic!("current epoch must be fresh, got {other:?}"),
        }
    }

    #[test]
    fn any_epoch_gap_is_refused_even_over_unchanged_nodes() {
        // Conservative protocol: the client's stage-① answer may have used
        // stale leaves the heap never mentions, so *any* gap refuses.
        let server = sample_server(400, 5);
        let far = server
            .direct(&QuerySpec::Knn {
                center: Point::new(0.95, 0.95),
                k: 1,
            })
            .results[0];
        server.apply_updates(&[Update::Delete(far)]);
        let snap = server.snapshot();
        let changed: HashSet<NodeId> = snap.update_log().changed_since(0).into_iter().collect();
        let unchanged_leaf = snap
            .shard(0)
            .tree()
            .node_ids()
            .into_iter()
            .find(|n| snap.shard(0).tree().node(*n).is_leaf() && !changed.contains(n))
            .expect("some leaf unchanged");
        let mbr = snap.shard(0).tree().node(unchanged_leaf).mbr().unwrap();
        let rq = RemainderQuery {
            spec: QuerySpec::Range { window: mbr },
            already_found: 0,
            heap: vec![(
                0.0,
                HeapEntry::Single(Side::Cell {
                    cell: CellRef::node_root(unchanged_leaf),
                    mbr,
                }),
            )],
        };
        match server.process_remainder_versioned(0, &rq, 0) {
            VersionedReply::Stale { invalidate, .. } => {
                assert!(!invalidate.is_empty());
            }
            other => panic!("behind-epoch contact must be refused, got {other:?}"),
        }
        match server.process_remainder_versioned(0, &rq, snap.epoch()) {
            VersionedReply::Fresh { invalidate, .. } => assert!(invalidate.is_empty()),
            other => panic!("current epoch must be fresh, got {other:?}"),
        }
    }

    #[test]
    fn history_cap_prunes_the_log_and_refuses_ancient_clients() {
        let cfg = ServerConfig {
            max_update_history: 3,
            ..ServerConfig::default()
        };
        let server = Cluster::single(
            pc_rtree::ObjectStore::new(
                (0..200)
                    .map(|i| SpatialObject {
                        id: ObjectId(i),
                        mbr: Rect::from_point(Point::new(
                            (i % 20) as f64 * 0.05,
                            (i / 20) as f64 * 0.1,
                        )),
                        size_bytes: 100,
                    })
                    .collect(),
            ),
            RTreeConfig::small(),
            cfg,
        );
        for i in 0..10u32 {
            server.apply_updates(&[Update::Delete(ObjectId(i))]);
        }
        let log_snap = server.snapshot();
        let log = log_snap.update_log();
        assert_eq!(log_snap.epoch(), 10);
        assert_eq!(log.low_water(), 7, "epoch 10 minus 3 epochs of history");
        assert_eq!(
            log.retained_records(),
            log.changed_since(7).len(),
            "records at or below the horizon are pruned"
        );
        assert!(log.retained_records() > 0);

        // A client synced within the window still gets a Stale with a
        // complete list; one below the horizon gets a FullRefresh.
        let root = log_snap.shard(0).tree().root();
        let mbr = log_snap.shard(0).tree().root_mbr().unwrap();
        let rq = RemainderQuery {
            spec: QuerySpec::Range { window: mbr },
            already_found: 0,
            heap: vec![(
                0.0,
                HeapEntry::Single(Side::Cell {
                    cell: CellRef::node_root(root),
                    mbr,
                }),
            )],
        };
        match server.process_remainder_versioned(1, &rq, 8) {
            VersionedReply::Stale { invalidate, epoch } => {
                assert_eq!(epoch, 10);
                assert!(!invalidate.is_empty());
            }
            other => panic!("in-window client must get Stale, got {other:?}"),
        }
        match server.process_remainder_versioned(2, &rq, 2) {
            VersionedReply::FullRefresh { epoch } => assert_eq!(epoch, 10),
            other => panic!("below-horizon client must get FullRefresh, got {other:?}"),
        }
        // Both contacts fed the fleet low-water mark.
        let adaptive = server.adaptive();
        assert_eq!(adaptive.state(1).last_epoch, Some(10));
        assert_eq!(adaptive.state(2).last_epoch, Some(10));
        assert_eq!(adaptive.epoch_low_water(), Some(10));
    }

    #[test]
    fn fleet_low_water_mark_prunes_ahead_of_the_history_cap() {
        // Two clients catch up to the current epoch; the next publish can
        // prune everything below it even though the history cap (default
        // 1024) is nowhere near.
        let server = sample_server(300, 7);
        server.apply_updates(&[Update::Delete(ObjectId(1))]);
        server.apply_updates(&[Update::Delete(ObjectId(2))]);
        let rq = {
            let snap = server.snapshot();
            let root = snap.shard(0).tree().root();
            let mbr = snap.shard(0).tree().root_mbr().unwrap();
            RemainderQuery {
                spec: QuerySpec::Range { window: mbr },
                already_found: 0,
                heap: vec![(
                    0.0,
                    HeapEntry::Single(Side::Cell {
                        cell: CellRef::node_root(root),
                        mbr,
                    }),
                )],
            }
        };
        // Both clients sync to epoch 2 (a Stale reply updates them).
        for client in [5u32, 6] {
            match server.process_remainder_versioned(client, &rq, 0) {
                VersionedReply::Stale { epoch, .. } => assert_eq!(epoch, 2),
                other => panic!("expected Stale, got {other:?}"),
            }
        }
        assert_eq!(server.adaptive().epoch_low_water(), Some(2));
        assert!(server.snapshot().update_log().retained_records() > 0);
        // The next publish prunes below the fleet mark.
        server.apply_updates(&[Update::Delete(ObjectId(3))]);
        let snap = server.snapshot();
        let log = snap.update_log();
        assert_eq!(log.low_water(), 2);
        assert_eq!(
            log.retained_records(),
            log.changed_since(2).len(),
            "records at or below the fleet mark are pruned"
        );
        // A brand-new client pinning the current snapshot is never below
        // the horizon (the mark is ≤ the epoch current at prune time).
        match server.process_remainder_versioned(9, &rq, snap.epoch()) {
            VersionedReply::Fresh { .. } => {}
            other => panic!("current-epoch client must be Fresh, got {other:?}"),
        }
        // A disconnect releases the client's pin on the mark.
        assert!(server.adaptive().forget_client(5));
        assert!(server.adaptive().forget_client(6));
    }

    #[test]
    fn updates_run_concurrently_with_queries() {
        // The point of the epoch swap: `apply_updates` takes `&self` and
        // runs while reader threads hammer the query path. No reader ever
        // observes a torn world (each pins one snapshot per query).
        let server = sample_server(300, 6);
        let stop = AtomicBool::new(false);
        let mut epoch = 0;
        std::thread::scope(|scope| {
            for t in 0..3u32 {
                let server = &server;
                let stop = &stop;
                scope.spawn(move || {
                    let w = Rect::centered_square(Point::new(0.2 + 0.2 * t as f64, 0.5), 0.25);
                    // ordering: Acquire pairs with the Release store after
                    // the last update, so readers that observe `stop` also
                    // observe all 40 published epochs.
                    while !stop.load(Ordering::Acquire) {
                        let snap = server.snapshot();
                        let got = snap.shard(0).direct(&QuerySpec::Range { window: w });
                        // The naive oracle skips tombstoned objects via the
                        // store's liveness bitset.
                        let want = naive::range_naive(snap.store(), &w);
                        let mut ids: Vec<ObjectId> =
                            got.results.iter().map(|&(id, _)| id).collect();
                        ids.sort_unstable();
                        assert_eq!(ids, want, "pinned snapshot answered inconsistently");
                    }
                });
            }
            let mut rng = SmallRng::seed_from_u64(99);
            for _ in 0..40 {
                let update = random_update(&mut rng, 250);
                epoch = server.apply_updates(&[update]);
            }
            // ordering: Release publishes "all updates applied" to the
            // Acquire loads in the reader loops above.
            stop.store(true, Ordering::Release);
        });
        // One deployment epoch per batch, however many netted to nothing
        // (a delete of a dead id does).
        assert_eq!(epoch, 40);
        assert_eq!(server.snapshot().epoch(), 40);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Pruning never turns into silent truncation, on one shard or
        /// four: a client stamped at or above the deployment's low-water
        /// mark is told to drop the old leaf — in every owner shard — of
        /// every object moved or deleted since that epoch; one stamped
        /// *below* the mark is refused with `FullRefresh` instead of being
        /// answered from pruned history.
        #[test]
        fn pruned_changed_since_never_under_reports(
            seed in 0u64..300,
            batches in 2usize..7,
            per_batch in 1usize..4,
            history in 1u64..4,
            quad in 0u32..2,
        ) {
            let cfg = crate::ClusterConfig {
                shards: 1 + 3 * quad,
                grid: 1 + quad,
                server: ServerConfig {
                    max_update_history: history,
                    ..ServerConfig::default()
                },
            };
            let cl = crate::Cluster::new(sample_store(200, seed), RTreeConfig::small(), cfg);
            let mut rng = SmallRng::seed_from_u64(seed ^ 0xFACADE);
            // (pin epoch, victim leaves at that pin) per batch.
            let mut watch: Vec<(u64, Vec<NodeId>)> = Vec::new();
            for _ in 0..batches {
                watch.push(churn_once(&cl, cl.shard_map(), &mut rng, per_batch));
            }
            let current = cl.epoch();
            let low_water = current.saturating_sub(history);
            let rq = cold_remainder(&cl, QuerySpec::Range { window: Rect::UNIT });
            for (since, victims) in watch {
                match cl.process_remainder_versioned(0, &rq, since) {
                    VersionedReply::Stale { invalidate, epoch }
                    | VersionedReply::Fresh { invalidate, epoch, .. } => {
                        prop_assert!(since >= low_water, "stamp {} answered below the mark", since);
                        prop_assert_eq!(epoch, current);
                        for leaf in victims {
                            prop_assert!(invalidate.contains(&leaf));
                        }
                    }
                    // Below the mark: the protocol refuses outright.
                    VersionedReply::FullRefresh { epoch } => {
                        prop_assert!(since < low_water, "stamp {} refused above the mark", since);
                        prop_assert_eq!(epoch, current);
                    }
                }
            }
        }

        /// Readers pinned during an `apply_updates` storm always observe a
        /// consistent (tree, BPT, epoch) triple, and `changed_since` never
        /// under-reports: the old-snapshot leaf of every moved or deleted
        /// object is in the changed-node set a behind-epoch client would
        /// be told to invalidate.
        #[test]
        fn snapshot_storm_keeps_readers_consistent_and_changed_since_complete(
            seed in 0u64..200,
            batches in 2usize..8,
            per_batch in 1usize..4,
        ) {
            let server = sample_server(220, seed);
            let map = *server.shard_map();
            let stop = AtomicBool::new(false);
            std::thread::scope(|scope| {
                // Two readers pinning snapshots mid-storm: the (tree, BPT,
                // epoch) triple must be coherent — a cold resume through
                // the pinned BPTs equals the pinned tree's direct answer,
                // and epochs never run backwards within one reader.
                for _ in 0..2 {
                    let server = &server;
                    let stop = &stop;
                    scope.spawn(move || {
                        let mut last_epoch = 0u64;
                        loop {
                            // ordering: Acquire pairs with the Release store
                            // after the last batch — a reader that sees
                            // `stop` runs one final full-consistency pass.
                            let done = stop.load(Ordering::Acquire);
                            let snap = server.snapshot();
                            assert!(snap.epoch() >= last_epoch, "epoch ran backwards");
                            last_epoch = snap.epoch();
                            let root = snap.shard(0).tree().root();
                            let mbr = snap.shard(0).tree().root_mbr().unwrap();
                            let w = Rect::centered_square(Point::new(0.5, 0.5), 0.3);
                            let rq = RemainderQuery {
                                spec: QuerySpec::Range { window: w },
                                already_found: 0,
                                heap: vec![(
                                    0.0,
                                    HeapEntry::Single(Side::Cell {
                                        cell: CellRef::node_root(root),
                                        mbr,
                                    }),
                                )],
                            };
                            let resumed =
                                snap.shard(0).resume_remainder(snap.store(), &rq, crate::FormMode::COMPACT);
                            let mut via_bpt: Vec<ObjectId> =
                                resumed.objects.iter().map(|o| o.id).collect();
                            via_bpt.extend(resumed.confirmed.iter().copied());
                            via_bpt.sort_unstable();
                            let mut via_tree: Vec<ObjectId> = snap
                                .shard(0)
                                .direct(&QuerySpec::Range { window: w })
                                .results
                                .iter()
                                .map(|&(id, _)| id)
                                .collect();
                            via_tree.sort_unstable();
                            assert_eq!(
                                via_bpt, via_tree,
                                "BPTs and tree of one pinned snapshot disagree"
                            );
                            if done {
                                break;
                            }
                        }
                    });
                }

                let mut rng = SmallRng::seed_from_u64(seed ^ 0xD15EA5E);
                for _ in 0..batches {
                    // Old-snapshot leaves of the victims, *before* the batch.
                    let (since, victims) = churn_once(&server, &map, &mut rng, per_batch);
                    let changed: HashSet<NodeId> = server
                        .snapshot()
                        .update_log()
                        .changed_since(since)
                        .into_iter()
                        .collect();
                    for leaf in victims {
                        assert!(
                            changed.contains(&leaf),
                            "changed_since under-reports: leaf {leaf:?} held a \
                             moved/deleted object but is not in the invalidation set"
                        );
                    }
                }
                // ordering: Release publishes "all batches applied" to the
                // Acquire loads in the reader loops above.
                stop.store(true, Ordering::Release);
            });
        }
    }
}
