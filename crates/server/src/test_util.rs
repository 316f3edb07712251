//! Shared fixtures for this crate's unit tests: a seeded random server,
//! a cold-cache remainder (just the root cell, or the root pair for
//! joins) — the starting point of every stage-② scenario — random update
//! batches with the leaves they must invalidate, and the FNV digest the
//! recorded-reply pins are taken with.

use crate::cluster::{ShardMap, Snapshot};
use crate::server::{FormPolicy, Server, ServerConfig};
use crate::transport::ServerHandle;
use crate::updates::Update;
use pc_geom::{Point, Rect};
use pc_rtree::proto::{
    CellKind, CellRef, DirectReply, HeapEntry, QuerySpec, RemainderQuery, ServerReply, Side,
    VersionedReply,
};
use pc_rtree::{ChildRef, NodeId, ObjectId, ObjectStore, RTreeConfig, SpatialObject};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// `n` uniformly placed point objects with random payload sizes.
pub fn sample_store(n: usize, seed: u64) -> ObjectStore {
    let mut rng = SmallRng::seed_from_u64(seed);
    let objects: Vec<SpatialObject> = (0..n)
        .map(|i| SpatialObject {
            id: ObjectId(i as u32),
            mbr: Rect::from_point(Point::new(
                rng.random_range(0.0..1.0),
                rng.random_range(0.0..1.0),
            )),
            size_bytes: rng.random_range(100..2000),
        })
        .collect();
    ObjectStore::new(objects)
}

/// A server over [`sample_store`], indexed under the small tree
/// configuration.
pub fn sample_server(n: usize, seed: u64, form: FormPolicy) -> Server {
    let cfg = ServerConfig {
        form,
        ..Default::default()
    };
    Server::new(sample_store(n, seed), RTreeConfig::small(), cfg)
}

/// A cold-cache remainder against any deployment: the whole query state
/// is its bootstrap root cell (or the root pair for joins).
pub fn cold_remainder(server: &dyn ServerHandle, spec: QuerySpec) -> RemainderQuery {
    let (node, mbr) = server.bootstrap_root().0.expect("non-empty world");
    let side = Side::Cell {
        cell: CellRef::node_root(node),
        mbr,
    };
    let entry = if spec.is_join() {
        HeapEntry::Pair(side, side)
    } else {
        HeapEntry::Single(side)
    };
    RemainderQuery {
        spec,
        already_found: 0,
        heap: vec![(spec.key_for(&mbr), entry)],
    }
}

/// One random update naming an id in `0..ids`: an insert at, a delete, or
/// a move to a uniform point.
pub fn random_update(rng: &mut SmallRng, ids: u32) -> Update {
    let point = |rng: &mut SmallRng| {
        Rect::from_point(Point::new(
            rng.random_range(0.0..1.0),
            rng.random_range(0.0..1.0),
        ))
    };
    match rng.random_range(0..3u32) {
        0 => Update::Insert {
            mbr: point(rng),
            size_bytes: 700,
        },
        1 => Update::Delete(ObjectId(rng.random_range(0..ids))),
        _ => Update::Move {
            id: ObjectId(rng.random_range(0..ids)),
            to: point(rng),
        },
    }
}

/// The leaves indexing `id` in `snap` — one per owner shard, none once it
/// is dead — as cluster-global node ids.
pub fn leaves_of(snap: &Snapshot, map: &ShardMap, id: ObjectId) -> Vec<NodeId> {
    (0..map.shards())
        .flat_map(|s| {
            let tree = snap.shard(s).tree();
            let holds = |n: &NodeId| {
                tree.node(*n).is_leaf() && tree.node(*n).children().contains(&ChildRef::Object(id))
            };
            let leaf = tree.node_ids().into_iter().find(holds);
            leaf.map(|n| map.to_global(n, s))
        })
        .collect()
}

/// Applies one batch of `per_batch` random updates over the assigned ids;
/// returns the epoch it was applied on top of and the leaves that indexed,
/// at that epoch, every object it deletes or moves — what a client synced
/// there must be told to drop.
pub fn churn_once(
    h: &dyn ServerHandle,
    map: &ShardMap,
    rng: &mut SmallRng,
    per_batch: usize,
) -> (u64, Vec<NodeId>) {
    let old = h.core().pin();
    let ids = old.store().len() as u32;
    let batch: Vec<Update> = (0..per_batch).map(|_| random_update(rng, ids)).collect();
    let victims = batch
        .iter()
        .flat_map(|u| match *u {
            Update::Delete(id) | Update::Move { id, .. } => leaves_of(&old, map, id),
            Update::Insert { .. } => Vec::new(),
        })
        .collect();
    h.apply_updates(&batch);
    (old.epoch(), victims)
}

/// FNV-1a over everything a merged reply puts on the client channel,
/// in emission order.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn rect(&mut self, r: &Rect) {
        for c in [r.min.x, r.min.y, r.max.x, r.max.y] {
            self.u64(c.to_bits());
        }
    }

    pub fn reply(&mut self, reply: &ServerReply) {
        self.u64(reply.confirmed.len() as u64);
        for id in &reply.confirmed {
            self.u64(id.0 as u64);
        }
        self.u64(reply.objects.len() as u64);
        for o in &reply.objects {
            self.u64(o.id.0 as u64);
            self.rect(&o.mbr);
            self.u64(o.size_bytes as u64);
        }
        self.u64(reply.pairs.len() as u64);
        for &(a, b) in &reply.pairs {
            self.u64(a.0 as u64);
            self.u64(b.0 as u64);
        }
        self.u64(reply.index.len() as u64);
        for s in &reply.index {
            self.u64(s.node.0 as u64);
            self.u64(s.level as u64);
            self.u64(s.parent.map_or(u64::MAX, |p| p.0 as u64));
            self.u64(s.cells.len() as u64);
            for c in &s.cells {
                let (bits, len) = c.code.raw();
                self.u64(bits as u64);
                self.u64(len as u64);
                self.rect(&c.mbr);
                match c.kind {
                    CellKind::Super => self.u64(0),
                    CellKind::Node(n) => self.u64(1 << 32 | n.0 as u64),
                    CellKind::Object(o) => self.u64(2 << 32 | o.0 as u64),
                }
            }
        }
        self.u64(reply.expansions);
    }

    pub fn versioned(&mut self, reply: &VersionedReply) {
        let (tag, invalidate, epoch) = match reply {
            VersionedReply::Fresh {
                reply,
                invalidate,
                epoch,
            } => {
                self.reply(reply);
                (0, invalidate.as_slice(), *epoch)
            }
            VersionedReply::Stale { invalidate, epoch } => (1, invalidate.as_slice(), *epoch),
            VersionedReply::FullRefresh { epoch } => (2, &[][..], *epoch),
        };
        self.u64(tag);
        self.u64(invalidate.len() as u64);
        for n in invalidate {
            self.u64(n.0 as u64);
        }
        self.u64(epoch);
    }

    pub fn direct(&mut self, reply: &DirectReply) {
        self.u64(reply.results.len() as u64);
        for id in &reply.results {
            self.u64(id.0 as u64);
        }
        self.u64(reply.pairs.len() as u64);
        for &(a, b) in &reply.pairs {
            self.u64(a.0 as u64);
            self.u64(b.0 as u64);
        }
        self.u64(reply.expansions);
    }
}
