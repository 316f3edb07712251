//! What a deployment publishes and where: a [`Shard`] is one shard's index
//! at one epoch — R*-tree and BPT store, no object store or update log of
//! its own — built by pure functions ([`Shard::build`] at set-up,
//! `Shard::next` per update batch), and a [`ServerCore`] is the
//! deployment's **one** [`SnapshotCell`] plus the writer lock that
//! serializes its epoch transitions. The value in the cell is the whole
//! world at one epoch, a [`Snapshot`]: the global store and the update log
//! once, and every shard by `Arc`. Query
//! paths [`pin`](ServerCore::pin) it (a refcount bump) and read it with
//! plain `&self` methods, so a `ServerCore` is `Send + Sync` and serves any
//! number of worker threads — the concurrency story of a server that, per
//! Fig. 3, serves many mobile clients at once. An update batch
//! ([`crate::Cluster::apply_updates`]) builds the *next* snapshot off to
//! the side — a shard the batch never touched is the same `Arc` in both —
//! and publishes it with one pointer swap, so readers never block on churn
//! and a pinned reader always sees one consistent (store, trees, BPTs,
//! epoch) world.
//!
//! Everything that spans shards or clients lives in [`crate::Cluster`]:
//! routing, the version gate, batch netting and the per-client *adaptive*
//! state (§4.3, [`crate::AdaptiveController`]), of one shard
//! ([`crate::Cluster::single`]) or many.

use crate::cluster::Snapshot;
use crate::epoch::SnapshotCell;
use crate::forms::{build_shipments, FormMode};
use crate::sync_util::lock_recover;
use pc_rtree::bpt::{Bpt, BptStore};
use pc_rtree::engine::{execute, resume, AccessLog, NoopTracer, Outcome};
use pc_rtree::proto::{QuerySpec, RemainderQuery, ServerReply};
use pc_rtree::view::FullView;
use pc_rtree::{Node, NodeId, ObjectId, ObjectStore, RTree, RTreeConfig, Spares, SpatialObject};
use std::sync::{Arc, Mutex};

/// One shard's immutable index as of one deployment epoch: tree + BPTs, no
/// per-client state, no versioning and no objects — ids resolve through
/// the [`Snapshot`]'s store, which the methods that need it take, and what
/// changed when is the [`Snapshot`]'s log. All query methods take `&self`;
/// nothing here ever mutates after publication.
#[derive(Clone, Debug)]
pub struct Shard {
    tree: RTree,
    bpts: BptStore,
}

impl Shard {
    /// Bulk loads the index over `objects` — the objects whose MBRs touch
    /// the tiles this shard owns (all of them, for a lone shard) — and
    /// prepares the BPTs offline.
    pub fn build<'a>(
        tree_cfg: RTreeConfig,
        objects: impl IntoIterator<Item = &'a SpatialObject>,
    ) -> Shard {
        let tree = RTree::bulk_load(tree_cfg, objects);
        Shard {
            bpts: BptStore::build(&tree),
            tree,
        }
    }

    pub fn tree(&self) -> &RTree {
        &self.tree
    }

    pub fn bpts(&self) -> &BptStore {
        &self.bpts
    }

    /// Evaluates a query directly (no caching) over this shard's index.
    pub fn direct(&self, spec: &QuerySpec) -> Outcome {
        let view = FullView::new(&self.tree, &self.bpts);
        execute(&view, spec, &mut NoopTracer)
    }

    /// Stage ② of Fig. 3 with an explicit form: resumes `Qr` from its heap,
    /// assembles `Rr` (splitting confirmed-cached results from transmitted
    /// ones, read from the epoch's `store`) and the supporting index `Ir`
    /// in `mode`. This is the policy-free, single-shard primitive the
    /// router's scatter is built from.
    pub fn resume_remainder(
        &self,
        store: &ObjectStore,
        rq: &RemainderQuery,
        mode: FormMode,
    ) -> ServerReply {
        let (outcome, log) = self.resume_traced(rq);
        self.assemble(store, outcome, &log, mode)
    }

    /// The resume half of stage ②: runs `Qr` to completion over this
    /// epoch's index and records which cells the traversal read. A cluster
    /// folds cross-shard accesses into the log before [`assemble`]ing.
    ///
    /// [`assemble`]: Self::assemble
    pub(crate) fn resume_traced(&self, rq: &RemainderQuery) -> (Outcome, AccessLog) {
        let view = FullView::new(&self.tree, &self.bpts);
        let mut log = AccessLog::default();
        let outcome = resume(&view, rq, &mut log);
        debug_assert!(outcome.remainder.is_none(), "server must finish queries");
        (outcome, log)
    }

    /// The assembly half of stage ②: `Ir` in `mode` for every node `log`
    /// saw expanded, and `Rr` split into confirmations (the client holds
    /// the payload) and objects transmitted out of `store`.
    pub(crate) fn assemble(
        &self,
        store: &ObjectStore,
        outcome: Outcome,
        log: &AccessLog,
        mode: FormMode,
    ) -> ServerReply {
        let mut confirmed = Vec::new();
        let mut objects = Vec::new();
        for (id, cached) in outcome.results {
            if cached {
                confirmed.push(id);
            } else if let Some(object) = store.try_get(id) {
                // An id the store never assigned can only come from a
                // heap built outside this program: nothing to transmit.
                objects.push(*object);
            }
        }
        ServerReply {
            confirmed,
            objects,
            pairs: outcome.result_pairs,
            index: build_shipments(log, &self.tree, &self.bpts, mode),
            expansions: outcome.expansions,
        }
    }

    /// This shard after one routed slice of an update batch, built *while
    /// queries keep running* on the current one: clones it **structurally**
    /// (node slab and per-node BPTs are `Arc`-shared, so the clone copies
    /// pointer tables, not data), applies the shard-local tree operations
    /// the router derived from tile ownership against the already-updated
    /// global `store` — copy-on-write touches only the spines the batch
    /// lands in, each copy written into one of the writer's `spares` when
    /// nothing holds it any more — and rebuilds only the dirty nodes' BPTs
    /// the same way. Returns the new shard beside its dirty nodes (local
    /// ids, sorted), which the caller logs. A shard a batch never touched
    /// is not rebuilt at all: the next snapshot holds the same `Arc`.
    pub(crate) fn next(
        &self,
        store: &ObjectStore,
        ops: &[PartitionOp],
        spares: &mut WriterSpares,
    ) -> (Shard, Vec<NodeId>) {
        let mut next = self.clone();
        next.tree.with_spares(&mut spares.nodes, |tree| {
            for op in ops {
                match *op {
                    PartitionOp::Insert(id) => tree.insert(store.get(id)),
                    PartitionOp::Delete(id, ref from) => {
                        let removed = tree.delete(id, from);
                        debug_assert!(removed, "partition delete must match the indexed entry");
                    }
                    PartitionOp::Relocate(id, ref from) => {
                        if tree.delete(id, from) {
                            tree.insert(store.get(id));
                        }
                    }
                }
            }
        });
        let dirty = next.tree.take_dirty();
        next.bpts.with_spares(&mut spares.bpts, |bpts| {
            bpts.rebuild_nodes(&next.tree, &dirty)
        });
        (next, dirty)
    }

    /// Auxiliary BPT bytes (§6.4's "4.2 MB for NE" statistic).
    pub fn bpt_bytes(&self) -> u64 {
        self.bpts.total_aux_bytes()
    }

    /// Heap bytes this shard keeps resident, by capacity: tree + BPTs.
    /// Segments shared with other live epochs are counted in each.
    pub fn heap_bytes(&self) -> usize {
        self.tree.heap_bytes() + self.bpts.heap_bytes()
    }
}

/// What a deployment's publishes retired, by copy-on-write seam, kept for
/// the next publishes to copy into: the writer's, lent to the value it is
/// building for one batch at a time and never published.
#[derive(Debug, Default)]
pub(crate) struct WriterSpares {
    pub(crate) nodes: Spares<Node>,
    pub(crate) bpts: Spares<Bpt>,
    pub(crate) segments: Spares<Vec<SpatialObject>>,
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

    /// The deployment epoch: bumped once per applied update batch.
    pub fn epoch(&self) -> u64 {
        self.pin().epoch()
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

/// One shard-local index operation of a routed cluster update batch,
/// derived by the router from before/after tile ownership. Deletes and
/// relocations carry the object's **batch-start** MBR — the rectangle the
/// shard's tree actually indexed — so the entry is found even when a batch
/// moved the object several times before settling.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum PartitionOp {
    /// The object enters this shard's ownership: insert it at the MBR the
    /// (already updated) store records.
    Insert(ObjectId),
    /// The object leaves this shard (moved away or went dead): delete the
    /// entry indexed at its batch-start MBR.
    Delete(ObjectId, pc_geom::Rect),
    /// The object stays owned here but relocated: delete at the
    /// batch-start MBR, re-insert at the store's current one.
    Relocate(ObjectId, pc_geom::Rect),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{random_update, sample_store};
    use crate::{Cluster, ServerConfig, ServerHandle, Update};
    use pc_geom::{Point, Rect};
    use pc_rtree::naive;
    use pc_rtree::{Entry, NodeId, ObjectId, SpatialObject};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashSet;
    use std::sync::Arc;

    /// The one-shard deployment the publish tests drive their batches
    /// through; they read the shard off `core().pin()`.
    fn sample_server(n: usize, seed: u64) -> Cluster {
        Cluster::single(
            sample_store(n, seed),
            RTreeConfig::small(),
            ServerConfig::default(),
        )
    }

    #[test]
    fn core_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ServerCore>();
        assert_send_sync::<Snapshot>();
        assert_send_sync::<Shard>();
        assert_send_sync::<Arc<ServerCore>>();
    }

    #[test]
    fn shared_core_answers_queries_from_many_threads() {
        let server = Arc::new(sample_server(400, 11));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let server = Arc::clone(&server);
                std::thread::spawn(move || {
                    let w = Rect::centered_square(Point::new(0.2 + 0.15 * t as f64, 0.5), 0.2);
                    let got: Vec<ObjectId> = server
                        .core()
                        .pin()
                        .shard(0)
                        .direct(&QuerySpec::Range { window: w })
                        .results
                        .iter()
                        .map(|&(id, _)| id)
                        .collect();
                    let mut got = got;
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
        // copies only the spines/segments/BPTs it touches. Everything else
        // is the *same allocation* as the previous epoch.
        let server = sample_server(2000, 17);
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

        let slab = old.shard(0).tree().slab_len();
        let shared_nodes = old.shard(0).tree().shared_node_slots(new.shard(0).tree());
        assert!(
            slab - shared_nodes <= 6 * new.shard(0).tree().height() as usize + 12,
            "2-update batch copied {} of {slab} nodes",
            slab - shared_nodes
        );
        let bpts = old.shard(0).bpts().node_count();
        let shared_bpts = old.shard(0).bpts().shared_bpts(new.shard(0).bpts());
        assert!(
            bpts - shared_bpts <= 6 * new.shard(0).tree().height() as usize + 12,
            "2-update batch rebuilt {} of {bpts} BPTs",
            bpts - shared_bpts
        );
        let chunks = old.store().chunk_count();
        let shared_chunks = old.store().shared_chunks(new.store());
        assert!(
            chunks - shared_chunks <= 2,
            "2-update batch copied {} of {chunks} store segments",
            chunks - shared_chunks
        );
        // And both worlds still answer correctly.
        old.shard(0).tree().validate(2000, false).unwrap();
        new.shard(0).tree().validate(2000, false).unwrap(); // +1 insert, -1 delete
    }

    #[test]
    fn publish_shares_node_and_bpt_chunks_at_scale() {
        // Chunked-slab extension of the sharing test: with a slab spanning
        // several 1024-slot segments, a small batch must leave most *whole
        // segments* shared by `Arc` between epochs — the publish cost is
        // O(batch · depth) slot copies plus one chunk clone per dirty chunk,
        // independent of the dataset size.
        let server = sample_server(9000, 23);
        let core = server.core();
        let old = core.pin();
        assert!(
            old.shard(0).tree().node_chunk_count() >= 2,
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

        let node_chunks = old.shard(0).tree().node_chunk_count();
        let copied_slots = old.shard(0).tree().slab_len()
            - old.shard(0).tree().shared_node_slots(new.shard(0).tree());
        let copied_node_chunks =
            node_chunks - old.shard(0).tree().shared_node_chunks(new.shard(0).tree());
        assert!(copied_node_chunks >= 1, "an update must dirty some chunk");
        assert!(
            copied_node_chunks <= copied_slots.max(1),
            "copied {copied_node_chunks} node chunks for only {copied_slots} dirty slots"
        );

        let bpt_chunks = old.shard(0).bpts().chunk_count();
        let rebuilt =
            old.shard(0).bpts().node_count() - old.shard(0).bpts().shared_bpts(new.shard(0).bpts());
        let copied_bpt_chunks = bpt_chunks - old.shard(0).bpts().shared_chunks(new.shard(0).bpts());
        assert!(
            copied_bpt_chunks <= rebuilt.max(1),
            "copied {copied_bpt_chunks} BPT chunks for only {rebuilt} rebuilt BPTs"
        );
    }

    /// Where one epoch's nodes, BPTs and store segments (by their first
    /// object) live, slot by slot: the addresses a copy-on-write copy
    /// either reuses or does not.
    #[derive(Clone)]
    struct Allocations {
        nodes: Vec<usize>,
        bpts: Vec<usize>,
        segments: Vec<usize>,
    }

    fn allocations(snap: &Snapshot) -> Allocations {
        let shard = snap.shard(0);
        let slots = |n: usize| (0..n as u32).map(NodeId);
        Allocations {
            nodes: slots(shard.tree().slab_len())
                .map(|id| shard.tree().node(id) as *const Node as usize)
                .collect(),
            bpts: slots(shard.bpts().node_count())
                .map(|id| shard.bpts().get(id) as *const Bpt as usize)
                .collect(),
            segments: (0..snap.store().chunk_count())
                .map(|k| {
                    let first = ObjectId((k * pc_rtree::STORE_CHUNK_LEN) as u32);
                    snap.store().get(first) as *const SpatialObject as usize
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
            bpts: moved(&before.bpts, &after.bpts),
            segments: moved(&before.segments, &after.segments),
        }
    }

    fn kinds(a: &Allocations) -> [(&str, &[usize]); 3] {
        [
            ("node", &a.nodes),
            ("BPT", &a.bpts),
            ("segment", &a.segments),
        ]
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
        let server = sample_server(4000, 29);
        let mut rng = SmallRng::seed_from_u64(29);
        let first = allocations(&server.snapshot());
        // Moves all over the world retire many spines, their BPTs and every
        // store segment …
        server.apply_updates(&moves(&mut rng, 4000, 16));
        let second = allocations(&server.snapshot());
        let retired = replaced(&second, &first);
        // … and with nothing pinning the first epoch any more, every copy a
        // one-move batch makes is written into one of them.
        server.apply_updates(&moves(&mut rng, 4000, 1));
        let copied = replaced(&second, &allocations(&server.snapshot()));
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
        let server = sample_server(3000, 37);
        let mut rng = SmallRng::seed_from_u64(37);
        // A batch first, so the writer has spares when the pin is taken.
        server.apply_updates(&moves(&mut rng, 3000, 8));
        let pinned = server.snapshot();
        let held = allocations(&pinned);
        let held_set: HashSet<usize> = kinds(&held)
            .iter()
            .flat_map(|(_, a)| a.iter().copied())
            .collect();
        let deep = |snap: &Snapshot| {
            let tree = snap.shard(0).tree();
            let nodes: Vec<(Option<NodeId>, u16, Vec<Entry>)> = (0..tree.slab_len() as u32)
                .map(|id| {
                    let node = tree.node(NodeId(id));
                    (node.parent, node.level, node.entries().collect())
                })
                .collect();
            let bpts: Vec<Bpt> = (0..snap.shard(0).bpts().node_count() as u32)
                .map(|id| snap.shard(0).bpts().get(NodeId(id)).clone())
                .collect();
            let objects: Vec<SpatialObject> = snap.store().iter().copied().collect();
            let answers: Vec<Vec<ObjectId>> = [(0.3, 0.4, 0.2), (0.7, 0.6, 0.3), (0.5, 0.5, 0.6)]
                .map(|(x, y, half)| {
                    let window = Rect::centered_square(Point::new(x, y), half);
                    snap.direct(&QuerySpec::Range { window }).results
                })
                .to_vec();
            (nodes, bpts, objects, answers)
        };
        let at_pin = deep(&pinned);

        let mut before = held.clone();
        for batch in 0..20 {
            let ids = server.snapshot().store().len() as u32;
            let updates: Vec<Update> = (0..4).map(|_| random_update(&mut rng, ids)).collect();
            server.apply_updates(&updates);
            let now = allocations(&server.snapshot());
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
        let server = sample_server(100, 9);
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
        let once = sample_server(100, 9);
        once.apply_updates(&[Update::Delete(ObjectId(3))]);
        assert_eq!(
            snap.update_log().changed_since(0),
            once.snapshot().update_log().changed_since(0),
        );
        snap.shard(0).tree().validate(99, false).unwrap();
    }

    /// Live objects of a snapshot (dead ids excluded), in id order.
    fn live_objects(snap: &Snapshot) -> Vec<SpatialObject> {
        snap.store().iter_live().copied().collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// CoW equivalence: after an arbitrary update sequence, the
        /// structurally-shared snapshot answers bit-identically to a world
        /// rebuilt from scratch over the same final live set — the tree
        /// validates, direct answers match a fresh bulk-loaded tree and
        /// the naive oracle, a cold remainder resume through the
        /// incrementally-maintained BPTs equals the direct answer, and the
        /// BPT store byte-matches a full from-scratch BPT build over the
        /// same tree.
        #[test]
        fn cow_snapshot_equals_from_scratch_build(
            seed in 0u64..500,
            batches in 1usize..6,
            per_batch in 1usize..8,
        ) {
            let server = sample_server(300, seed);
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
            snap.shard(0).tree().validate(live.len(), false).unwrap();

            // (2) Direct answers equal a from-scratch bulk load over the
            // same final live set, and the naive oracle.
            let fresh = pc_rtree::RTree::bulk_load(RTreeConfig::small(), &live);
            for (cx, cy, half) in [(0.3, 0.4, 0.25), (0.6, 0.55, 0.2), (0.5, 0.5, 0.6)] {
                let w = Rect::centered_square(Point::new(cx, cy), half);
                let mut got: Vec<ObjectId> = snap.shard(0).direct(&QuerySpec::Range { window: w })
                    .results
                    .iter()
                    .map(|&(id, _)| id)
                    .collect();
                got.sort_unstable();
                let mut scratch = pc_rtree::query::range_query(&fresh, &w);
                scratch.sort_unstable();
                prop_assert_eq!(&got, &scratch);
                prop_assert_eq!(&got, &naive::range_naive(snap.store(), &w));
            }

            // (3) A cold remainder resume through the incrementally
            // rebuilt BPTs equals the direct answer.
            let root = snap.shard(0).tree().root();
            if let Some(mbr) = snap.shard(0).tree().root_mbr() {
                let w = Rect::centered_square(Point::new(0.5, 0.5), 0.35);
                let rq = pc_rtree::proto::RemainderQuery {
                    spec: QuerySpec::Range { window: w },
                    already_found: 0,
                    heap: vec![(
                        0.0,
                        pc_rtree::proto::HeapEntry::Single(pc_rtree::proto::Side::Cell {
                            cell: pc_rtree::proto::CellRef::node_root(root),
                            mbr,
                        }),
                    )],
                };
                let resumed = snap.shard(0).resume_remainder(snap.store(), &rq, crate::FormMode::COMPACT);
                let mut via_bpt: Vec<ObjectId> =
                    resumed.objects.iter().map(|o| o.id).collect();
                via_bpt.extend(resumed.confirmed.iter().copied());
                via_bpt.sort_unstable();
                let mut via_tree: Vec<ObjectId> = snap.shard(0).direct(&QuerySpec::Range { window: w })
                    .results
                    .iter()
                    .map(|&(id, _)| id)
                    .collect();
                via_tree.sort_unstable();
                prop_assert_eq!(via_bpt, via_tree);
            }

            // (4) The dirty-node-only BPT maintenance — rebuilding into
            // retired BPTs from the second batch on — equals a full
            // from-scratch BPT build over the *same* tree, slot by slot and
            // field by field: a stale field left in a reused BPT shows here.
            let rebuilt = pc_rtree::bpt::BptStore::build(snap.shard(0).tree());
            prop_assert_eq!(rebuilt.node_count(), snap.shard(0).bpts().node_count());
            for id in (0..rebuilt.node_count() as u32).map(NodeId) {
                prop_assert_eq!(rebuilt.get(id), snap.shard(0).bpts().get(id));
            }
            prop_assert_eq!(rebuilt.total_aux_bytes(), snap.shard(0).bpt_bytes());
        }
    }

    #[test]
    fn pinned_snapshot_outlives_a_publish() {
        let server = sample_server(200, 5);
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
