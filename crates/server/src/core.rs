//! Where a deployment publishes and who may: a [`ServerCore`] is the
//! deployment's **one** [`SnapshotCell`] plus the writer lock that
//! serializes its epoch transitions and guards the writer's spares. The
//! value in the cell is the whole world at one epoch, a [`Snapshot`]: the
//! global store and the update log once, and every shard's `RTree` (each
//! node with its BPT; no object store or log of its own) by `Arc`. Query
//! paths [`pin`](ServerCore::pin) it (a refcount bump) and read it with
//! plain `&self` methods, so a `ServerCore` is `Send + Sync` and serves any
//! number of worker threads — the concurrency story of a server that, per
//! Fig. 3, serves many mobile clients at once. An update batch
//! ([`crate::ServerHandle::apply_updates`]) builds the *next* snapshot off
//! to the side — a shard the batch never touched is the same `Arc` in
//! both — and publishes it with one pointer swap, so readers never block
//! on churn and a pinned reader always sees one consistent (store, trees,
//! BPTs, epoch) world.
//!
//! Everything that spans shards or clients lives in [`crate::Cluster`]:
//! building and advancing the shards, routing, the version gate, batch
//! netting and the per-client *adaptive* state (§4.3,
//! [`crate::AdaptiveController`]), of one shard
//! ([`crate::Cluster::single`]) or many.

use crate::cluster::Snapshot;
use crate::epoch::SnapshotCell;
use crate::sync_util::lock_recover;
use pc_rtree::{Node, Spares, StoreSpares};
use std::sync::{Arc, Mutex};

/// What a deployment's publishes retired, by copy-on-write seam, kept for
/// the next publishes to copy into: the writer's, lent to the value it is
/// building for one batch at a time and never published. A node spare
/// brings its BPT column along.
#[derive(Debug, Default)]
pub(crate) struct WriterSpares {
    pub(crate) nodes: Spares<Node>,
    pub(crate) store: StoreSpares,
}

/// The deployment's one published value and the one lock that orders its
/// writers: the current [`Snapshot`] behind a [`SnapshotCell`].
#[derive(Debug)]
pub struct ServerCore {
    snap: SnapshotCell<Snapshot>,
    /// Serializes publishers: each builds its next snapshot from the one
    /// it read, so concurrent writers must not interleave
    /// (last-publish-wins would silently drop a batch). What it guards is
    /// the writer's spares: they die with the deployment.
    write: Mutex<WriterSpares>,
}

impl ServerCore {
    pub(crate) fn new(seed: Snapshot) -> Self {
        ServerCore {
            snap: SnapshotCell::new(seed),
            write: Mutex::new(WriterSpares::default()),
        }
    }

    /// Pins the current snapshot: an `Arc` that stays valid and internally
    /// consistent across concurrent publishes. Pin once per query and read
    /// everything off the pin.
    pub fn pin(&self) -> Arc<Snapshot> {
        self.snap.pin()
    }

    /// One epoch transition, under the writer lock: `build` derives the
    /// next snapshot from the current one, copying into the writer's
    /// spares, and it is published with one pointer swap. Pinned readers
    /// are untouched. Returns the new epoch.
    pub(crate) fn advance(
        &self,
        build: impl FnOnce(&Snapshot, &mut WriterSpares) -> Snapshot,
    ) -> u64 {
        let mut spares = lock_recover(&self.write);
        let next = build(&self.pin(), &mut spares);
        let epoch = next.epoch();
        self.snap.publish(next);
        epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forms::{assemble, resume_traced, FormMode};
    use crate::test_util::{cold_remainder, random_update, sample_server, sample_store};
    use crate::{FormPolicy, ServerHandle, Update};
    use pc_geom::{Point, Rect};
    use pc_rtree::bpt::{Bpt, EntryMbrs};
    use pc_rtree::naive;
    use pc_rtree::proto::QuerySpec;
    use pc_rtree::{Entry, NodeId, ObjectId, RTreeConfig, SpatialObject};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashSet;
    use std::sync::Arc;

    #[test]
    fn core_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ServerCore>();
        assert_send_sync::<Snapshot>();
        assert_send_sync::<Arc<ServerCore>>();
    }

    #[test]
    fn shared_core_answers_queries_from_many_threads() {
        let server = Arc::new(sample_server(400, 11, FormPolicy::Adaptive));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let server = Arc::clone(&server);
                std::thread::spawn(move || {
                    let w = Rect::centered_square(Point::new(0.2 + 0.15 * t as f64, 0.5), 0.2);
                    let mut got = server
                        .core()
                        .pin()
                        .direct(&QuerySpec::Range { window: w })
                        .results;
                    got.sort_unstable();
                    (w, got)
                })
            })
            .collect();
        let snap = server.core().pin();
        for h in handles {
            let (w, got) = h.join().unwrap();
            assert_eq!(got, naive::range_naive(snap.store(), &w));
        }
    }

    #[test]
    fn publish_shares_structure_with_the_previous_snapshot() {
        // The epoch-cost tentpole: a small batch against a large snapshot
        // copies only the spines/segments it touches. Everything else is
        // the *same allocation* as the previous epoch.
        let server = sample_server(2000, 17, FormPolicy::Adaptive);
        let core = server.core();
        let old = core.pin();
        server.apply_updates(&[
            Update::Insert {
                mbr: Rect::from_point(Point::new(0.41, 0.43)),
                size_bytes: 100,
            },
            Update::Delete(ObjectId(7)),
        ]);
        let new = core.pin();
        let (old_nodes, new_nodes) = (old.shard(0).slots(), new.shard(0).slots());

        let slab = old_nodes.len();
        let shared_nodes = old_nodes.shared_slots(new_nodes);
        assert!(
            slab - shared_nodes <= 6 * new.shard(0).height() as usize + 12,
            "2-update batch copied {} of {slab} nodes",
            slab - shared_nodes
        );
        let (old_store, new_store) = (old.store(), new.store());
        let chunks = old_store.mins().chunk_count() + old_store.sizes().chunk_count();
        let shared_chunks = old_store.mins().shared_chunks(new_store.mins())
            + old_store.sizes().shared_chunks(new_store.sizes());
        assert!(
            chunks - shared_chunks <= 2,
            "2-update batch copied {} of {chunks} store segments",
            chunks - shared_chunks
        );
        // And both worlds still answer correctly.
        old.shard(0).validate(2000, false).unwrap();
        new.shard(0).validate(2000, false).unwrap(); // +1 insert, -1 delete
    }

    #[test]
    fn publish_shares_node_chunks_at_scale() {
        // Chunked-slab extension of the sharing test: with a slab spanning
        // several 1024-slot segments, a small batch must leave most *whole
        // segments* shared by `Arc` between epochs — the publish cost is
        // O(batch · depth) slot copies plus one chunk clone per dirty chunk,
        // independent of the dataset size.
        let server = sample_server(9000, 23, FormPolicy::Adaptive);
        let core = server.core();
        let old = core.pin();
        let old_nodes = old.shard(0).slots();
        assert!(
            old_nodes.chunk_count() >= 2,
            "dataset too small to span multiple node chunks"
        );
        server.apply_updates(&[
            Update::Insert {
                mbr: Rect::from_point(Point::new(0.61, 0.39)),
                size_bytes: 100,
            },
            Update::Delete(ObjectId(42)),
        ]);
        let new = core.pin();
        let new_nodes = new.shard(0).slots();

        let copied_slots = old_nodes.len() - old_nodes.shared_slots(new_nodes);
        let copied_node_chunks = old_nodes.chunk_count() - old_nodes.shared_chunks(new_nodes);
        assert!(copied_node_chunks >= 1, "an update must dirty some chunk");
        assert!(
            copied_node_chunks <= copied_slots.max(1),
            "copied {copied_node_chunks} node chunks for only {copied_slots} dirty slots"
        );
    }

    /// Where one epoch's nodes and store segments (by their first entry;
    /// each segment's min corners, then its sizes) live, slot by slot: the
    /// addresses a copy-on-write copy either reuses or does not.
    #[derive(Clone)]
    struct Allocations {
        nodes: Vec<usize>,
        segments: Vec<usize>,
    }

    fn allocations(snap: &Snapshot) -> Allocations {
        let nodes = snap.shard(0).slots();
        let store = snap.store();
        assert!(store.maxes().is_empty(), "a world of points");
        Allocations {
            nodes: nodes.iter().map(|n| Arc::as_ptr(n) as usize).collect(),
            segments: (0..store.len())
                .step_by(pc_rtree::CHUNK_LEN)
                .flat_map(|first| {
                    let min = store.mins().get(first) as *const Point as usize;
                    [min, store.sizes().get(first) as *const u32 as usize]
                })
                .collect(),
        }
    }

    /// What `after` holds in the slots both epochs have where `before`
    /// held another allocation: the copies a batch made, or — with the
    /// epochs swapped — what it retired.
    fn replaced(before: &Allocations, after: &Allocations) -> Allocations {
        let moved = |b: &[usize], a: &[usize]| -> Vec<usize> {
            b.iter()
                .zip(a)
                .filter(|(b, a)| b != a)
                .map(|(_, &a)| a)
                .collect()
        };
        Allocations {
            nodes: moved(&before.nodes, &after.nodes),
            segments: moved(&before.segments, &after.segments),
        }
    }

    fn kinds(a: &Allocations) -> [(&str, &[usize]); 2] {
        [("node", &a.nodes), ("segment", &a.segments)]
    }

    fn moves(rng: &mut SmallRng, ids: u32, n: usize) -> Vec<Update> {
        (0..n)
            .map(|_| Update::Move {
                id: ObjectId(rng.random_range(0..ids)),
                to: Rect::from_point(Point::new(
                    rng.random_range(0.0..1.0),
                    rng.random_range(0.0..1.0),
                )),
            })
            .collect()
    }

    #[test]
    fn a_publish_copies_into_what_the_publish_before_retired() {
        let server = sample_server(4000, 29, FormPolicy::Adaptive);
        let mut rng = SmallRng::seed_from_u64(29);
        let first = allocations(&server.core().pin());
        // Moves all over the world retire many spines and every store
        // segment …
        server.apply_updates(&moves(&mut rng, 4000, 16));
        let second = allocations(&server.core().pin());
        let retired = replaced(&second, &first);
        // … and with nothing pinning the first epoch any more, every copy a
        // one-move batch makes is written into one of them.
        server.apply_updates(&moves(&mut rng, 4000, 1));
        let copied = replaced(&second, &allocations(&server.core().pin()));
        for ((kind, copied), (_, retired)) in kinds(&copied).into_iter().zip(kinds(&retired)) {
            assert!(!copied.is_empty(), "the batch copied no {kind}");
            let retired: HashSet<usize> = retired.iter().copied().collect();
            assert!(
                copied.iter().all(|a| retired.contains(a)),
                "a {kind} copy took a fresh allocation while a retired one was free"
            );
        }
    }

    #[test]
    fn a_pinned_epoch_is_never_recycled() {
        let server = sample_server(3000, 37, FormPolicy::Adaptive);
        let mut rng = SmallRng::seed_from_u64(37);
        // A batch first, so the writer has spares when the pin is taken.
        server.apply_updates(&moves(&mut rng, 3000, 8));
        let pinned = server.core().pin();
        let held = allocations(&pinned);
        let held_set: HashSet<usize> = kinds(&held)
            .iter()
            .flat_map(|(_, a)| a.iter().copied())
            .collect();
        let deep = |snap: &Snapshot| {
            let tree = snap.shard(0);
            let nodes: Vec<(Option<NodeId>, u16, Vec<Entry>, Bpt)> = (0..tree.slab_len() as u32)
                .map(|id| {
                    let node = tree.node(NodeId(id));
                    (
                        node.parent,
                        node.level,
                        node.entries().collect(),
                        node.bpt().clone(),
                    )
                })
                .collect();
            let objects: Vec<SpatialObject> = snap.store().iter().collect();
            let answers: Vec<Vec<ObjectId>> = [(0.3, 0.4, 0.2), (0.7, 0.6, 0.3), (0.5, 0.5, 0.6)]
                .map(|(x, y, half)| {
                    let window = Rect::centered_square(Point::new(x, y), half);
                    snap.direct(&QuerySpec::Range { window }).results
                })
                .to_vec();
            (nodes, objects, answers)
        };
        let at_pin = deep(&pinned);

        let mut before = held.clone();
        for batch in 0..20 {
            let ids = server.core().pin().store().len() as u32;
            let updates: Vec<Update> = (0..4).map(|_| random_update(&mut rng, ids)).collect();
            server.apply_updates(&updates);
            let now = allocations(&server.core().pin());
            for (kind, copied) in kinds(&replaced(&before, &now)) {
                assert!(
                    copied.iter().all(|a| !held_set.contains(a)),
                    "batch {batch} copied a {kind} into an allocation the pinned epoch holds"
                );
            }
            before = now;
        }
        assert!(
            deep(&pinned) == at_pin,
            "the pinned epoch changed under its pin"
        );
    }

    #[test]
    fn malformed_batches_never_panic_the_writer() {
        // Deletes/moves naming ids the store never assigned are skipped; a
        // delete of an already-dead object is a no-op too, and so is an
        // insert or a move whose rectangle is not one (inverted, or with a
        // NaN coordinate). The epoch still bumps (the batch was applied,
        // however vacuous).
        let server = sample_server(100, 9, FormPolicy::Adaptive);
        let core = server.core();
        let inverted = Rect {
            min: Point::new(0.6, 0.6),
            max: Point::new(0.4, 0.4),
        };
        let nan = Rect::from_point(Point::new(f64::NAN, 0.5));
        let epoch = server.apply_updates(&[
            Update::Delete(ObjectId(100_000)),
            Update::Move {
                id: ObjectId(99_999),
                to: Rect::from_point(Point::new(0.5, 0.5)),
            },
            Update::Delete(ObjectId(3)),
            Update::Delete(ObjectId(3)), // double delete: second is a no-op
            Update::Insert {
                mbr: inverted,
                size_bytes: 10,
            },
            Update::Insert {
                mbr: nan,
                size_bytes: 10,
            },
            Update::Move {
                id: ObjectId(4),
                to: inverted,
            },
            Update::Move {
                id: ObjectId(5),
                to: nan,
            },
        ]);
        assert_eq!(epoch, 1);
        let snap = core.pin();
        assert_eq!(snap.store().len(), 100, "nothing malformed was assigned");
        assert_eq!(snap.store().live_count(), 99, "exactly one real delete");
        assert!(!snap.store().is_live(ObjectId(3)));
        let seed = sample_store(100, 9);
        for id in [ObjectId(4), ObjectId(5)] {
            assert_eq!(snap.store().get(id).mbr, seed.get(id).mbr, "{id:?} moved");
        }
        let all = snap.direct(&QuerySpec::Range { window: Rect::UNIT });
        assert_eq!(all.results.len(), 99, "every live object is reachable");
        // The whole batch dirtied what its one real delete does.
        let once = sample_server(100, 9, FormPolicy::Adaptive);
        once.apply_updates(&[Update::Delete(ObjectId(3))]);
        assert_eq!(
            snap.update_log().changed_since(0),
            once.core().pin().update_log().changed_since(0),
        );
        snap.shard(0).validate(99, false).unwrap();
    }

    /// Live objects of a snapshot (dead ids excluded), in id order.
    fn live_objects(snap: &Snapshot) -> Vec<SpatialObject> {
        snap.store().iter_live().collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// CoW equivalence: after an arbitrary update sequence, the
        /// structurally-shared snapshot answers bit-identically to a world
        /// rebuilt from scratch over the same final live set — the tree
        /// validates, direct answers match a fresh bulk-loaded tree and
        /// the naive oracle, a cold remainder resume through the
        /// incrementally-maintained BPTs equals the direct answer, and
        /// every reachable node's BPT equals a from-scratch build over that
        /// node's entries.
        #[test]
        fn cow_snapshot_equals_from_scratch_build(
            seed in 0u64..500,
            batches in 1usize..6,
            per_batch in 1usize..8,
        ) {
            let server = sample_server(300, seed, FormPolicy::Adaptive);
            let core = server.core();
            let mut rng = SmallRng::seed_from_u64(seed ^ 0xC0C0A);
            for _ in 0..batches {
                let n = core.pin().store().len() as u32;
                // Ids up to five past the assigned ones: some updates name
                // objects that do not exist.
                let batch: Vec<Update> =
                    (0..per_batch).map(|_| random_update(&mut rng, n + 5)).collect();
                server.apply_updates(&batch);
            }
            let snap = core.pin();
            let live = live_objects(&snap);

            // (1) The shared tree is structurally valid for the live set.
            snap.shard(0).validate(live.len(), false).unwrap();

            // (2) Direct answers equal a from-scratch bulk load over the
            // same final live set, and the naive oracle.
            let fresh = pc_rtree::RTree::bulk_load(RTreeConfig::small(), &live);
            for (cx, cy, half) in [(0.3, 0.4, 0.25), (0.6, 0.55, 0.2), (0.5, 0.5, 0.6)] {
                let w = Rect::centered_square(Point::new(cx, cy), half);
                let mut got = snap.direct(&QuerySpec::Range { window: w }).results;
                got.sort_unstable();
                let mut scratch = pc_rtree::query::range_query(&fresh, &w);
                scratch.sort_unstable();
                prop_assert_eq!(&got, &scratch);
                prop_assert_eq!(&got, &naive::range_naive(snap.store(), &w));
            }

            // (3) A cold remainder resume through the incrementally
            // rebuilt BPTs equals the direct answer.
            let window = Rect::centered_square(Point::new(0.5, 0.5), 0.35);
            let spec = QuerySpec::Range { window };
            let (outcome, log) = resume_traced(snap.shard(0), &cold_remainder(&server, spec));
            let resumed = assemble(snap.shard(0), snap.store(), outcome, log, FormMode::COMPACT);
            let mut via_bpt: Vec<ObjectId> = resumed.objects.iter().map(|o| o.id).collect();
            via_bpt.extend(resumed.confirmed);
            via_bpt.sort_unstable();
            let mut via_tree = snap.direct(&spec).results;
            via_tree.sort_unstable();
            prop_assert_eq!(via_bpt, via_tree);

            // (4) The dirty-node-only BPT maintenance — rebuilding into
            // retired nodes' BPTs from the second batch on, and carrying a
            // copied node's BPT over when its entries did not change —
            // equals a from-scratch build over every reachable node, dirty
            // or not, field by field: a stale BPT, or a field left behind
            // in a reused one, shows here.
            let tree = snap.shard(0);
            let mut aux = 0;
            for id in tree.node_ids() {
                let node = tree.node(id);
                let mbrs: Vec<Rect> = (0..node.len() as u16).map(|j| node.entry_mbr(j)).collect();
                let fresh = Bpt::build(&mbrs);
                prop_assert_eq!(node.bpt(), &fresh);
                aux += fresh.aux_bytes();
            }
            prop_assert_eq!(aux, tree.bpt_aux_bytes());
        }
    }

    #[test]
    fn pinned_snapshot_outlives_a_publish() {
        let server = sample_server(200, 5, FormPolicy::Adaptive);
        let core = server.core();
        let old = core.pin();
        let before = old.store().len();
        let epoch = server.apply_updates(&[Update::Insert {
            mbr: Rect::from_point(Point::new(0.5, 0.5)),
            size_bytes: 42,
        }]);
        assert_eq!(epoch, 1);
        // The pinned world is frozen at epoch 0 …
        assert_eq!(old.epoch(), 0);
        assert_eq!(old.store().len(), before);
        // … while the current one moved on.
        let new = core.pin();
        assert_eq!(new.epoch(), 1);
        assert_eq!(new.store().len(), before + 1);
    }
}
