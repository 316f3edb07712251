//! The deployment — every deployment: the unit square is cut into a fixed
//! [`TileGrid`] of tiles, tiles map to shards round-robin, and each shard
//! is a [`Shard`] (its own tree and BPTs) indexing exactly the objects
//! whose MBRs touch its tiles, over the one global store and the one update
//! log the deployment's [`Snapshot`] holds; the per-client state
//! (§4.3 `d`, last-synced epoch) lives once, in the cluster's single
//! [`AdaptiveController`]. Objects straddling tile boundaries are
//! **replicated** into every owning shard's tree — which is what makes
//! per-shard staleness sound (any change to an object touches all shards
//! a query over it could route to) — and the router deduplicates them on
//! merge so each object is wire-charged to the client exactly once.
//!
//! [`Cluster`] implements [`ServerHandle`]: clients navigate a synthetic
//! **super-root** node (a BPT over the shard root MBRs, shipped like any
//! other node) whose leaves hand off into per-shard subtrees; remainder
//! heaps are decomposed by ownership into per-shard sub-queries, resumed
//! against each shard of the pinned snapshot, and gathered into one
//! client-facing reply (both legs are charged to [`ClusterStats`] at
//! their backplane sizes). Shard node ids are translated into disjoint
//! global ranges (`global = local·N + shard`) so one client cache can
//! hold index slices of every shard at once.
//!
//! One shard is the smallest case, not a special one: the paper's one
//! mobile application server is [`Cluster::single`], a one-shard cluster
//! over a one-tile grid, where id translation is the identity. What keeps
//! it cheap is a rule on the input, not on the configuration — **when
//! exactly one shard was consulted and nothing
//! resumed router-side, that shard's reply is the answer** (no merge map,
//! re-sort or dedup; `direct` likewise) — which serves an N-shard window
//! inside one shard's tiles just the same. The shard count is read in two
//! places only: a lone shard's clients bootstrap from its own root, and its
//! writer never logs the super-root, so they are never handed `SUPER_ROOT`
//! nor told to invalidate it.
//!
//! Updates route by location: one cluster batch is applied to the global
//! store once, split into per-shard tree operations by before/after tile
//! ownership (`PartitionOp`) and rebuilds **only the shards it touches** —
//! an untouched shard is carried over as it is, so a reply's staleness is
//! decided per shard, by where the changes since the client's stamp lie.
//!
//! # One epoch, one published value
//!
//! A deployment is one world at one epoch, and that is what it publishes:
//! everything a contact needs — the global store, the `N` shards, the
//! super-root layout built over exactly those shards, the epoch and the
//! update log — is one immutable [`Snapshot`] behind the one cell of the
//! deployment's [`ServerCore`]. The deployment epoch is the only clock:
//! `epoch` counts batches, and the one [`UpdateLog`] stamps every node a
//! batch changed — in any shard, by its cluster-global id, and the
//! super-root when the batch re-laid it — with that batch's epoch, so a
//! client's scalar stamp asks one log one question. The log's low-water
//! mark is the oldest stamp a complete invalidation list still exists for.
//! A reader takes one `pin()` and never touches a lock again; the epoch,
//! the log, the layout and the store agree with the shards because the one
//! writer derived them from the values it had just built and put all of
//! them into the value together.
//!
//! * **Who builds what.** `apply_updates` (under the core's writer lock)
//!   clones the store once and applies the batch to it, then builds the
//!   next value shard by shard: a touched shard is `Shard::next` — a pure
//!   function of the current shard, the new store and its slice of the
//!   batch — and an untouched one is the current epoch's `Arc`, a pointer
//!   copy. There is no per-shard cell or lock, so nothing to order.
//! * **Who tears down a retired epoch.** Nobody frees its private CoW
//!   copies: every node, BPT and store segment a batch replaced was
//!   retired into the writer's spares (`WriterSpares`, guarded by the
//!   core's writer lock), and a later batch writes its own copies into
//!   them once the last snapshot naming them — the previous epoch, or a
//!   reader still pinned to an older one — has dropped. What the last
//!   dropper frees is pointer tables: a shard's slot segments, the store's
//!   segment table and liveness bitset, the log. The spares die with the
//!   deployment. Reusing them is what keeps a churned world in the memory
//!   it was built in: a fresh copy is allocated by the writer's thread, the
//!   copy it replaces freed into wherever it was allocated — for the
//!   world set-up built, an allocator arena only the idle set-up thread
//!   would ever allocate from again.
//! * **One thread builds.** The touched shards of a batch are built one
//!   after another on the writer's thread: a scoped thread per touched
//!   shard was measured 1.3–5× dearer at the median at four-update
//!   batches on two busy cores — a shard's ~150 µs share is less than a
//!   spawn and a wake-up (CHANGES.md, PR 20, has every run).

use crate::adaptive::AdaptiveController;
use crate::config::{form_mode, ClientId, ServerConfig};
use crate::core::{PartitionOp, ServerCore, Shard, WriterSpares};
use crate::forms::FormMode;
use crate::sync_util::Counter;
use crate::transport::{ServerHandle, Transport};
use crate::updates::{Update, UpdateLog};
use pc_geom::{Rect, TileGrid};
use pc_rtree::bpt::{Bpt, Code};
use pc_rtree::engine::{execute, resume, AccessLog, Expansion, IndexView, NoopTracer, Outcome};
use pc_rtree::proto::{
    shard_sub_reply_bytes, shard_sub_request_bytes, CellKind, CellRecord, CellRef, DirectReply,
    HeapEntry, NodeShipment, QuerySpec, RemainderQuery, Request, Response, ServerReply, Side,
    VersionedReply,
};
use pc_rtree::view::FullView;
use pc_rtree::{par, NodeId, ObjectId, ObjectStore, RTreeConfig, SpatialObject};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// The synthetic node id of the cluster's super-root (the BPT over shard
/// root MBRs a client's catalog points at). Deliberately the topmost id so
/// it can never collide with a translated shard node id.
pub const SUPER_ROOT: NodeId = NodeId(u32::MAX);

// ---------------------------------------------------------------------
// Configuration + shard map
// ---------------------------------------------------------------------

/// Cluster-level configuration: shard count, tile resolution and the
/// per-shard server policy.
#[derive(Clone, Copy, Debug)]
pub struct ClusterConfig {
    /// Number of shards (1..=64; ownership sets travel as a `u64` bitmask).
    pub shards: u32,
    /// Tiles per grid axis; 0 picks `ceil(sqrt(4·shards))` so every shard
    /// owns a handful of tiles and boundary straddlers stay rare.
    pub grid: u32,
    /// The deployment's server policy: form, the one per-client adaptive
    /// table, and the update-history cap (in cluster epochs).
    pub server: ServerConfig,
}

impl ClusterConfig {
    /// A cluster of `shards` shards with the default grid and server
    /// policy.
    pub fn new(shards: u32) -> Self {
        ClusterConfig {
            shards,
            grid: 0,
            server: ServerConfig::default(),
        }
    }

    /// Tiles per axis after defaulting.
    pub fn grid_per_axis(&self) -> u32 {
        if self.grid > 0 {
            self.grid
        } else {
            (4.0 * self.shards as f64).sqrt().ceil() as u32
        }
    }

    /// Rejects configurations that would silently misbehave (zero-shard
    /// clusters foremost). Called by [`Cluster::new`], which panics with
    /// the returned message.
    pub fn validate(&self) -> Result<(), String> {
        if self.shards == 0 {
            return Err(
                "ClusterConfig::shards must be ≥ 1: a zero-shard cluster owns no tiles and \
                 could answer no query"
                    .to_string(),
            );
        }
        if self.shards > 64 {
            return Err(format!(
                "ClusterConfig::shards must be ≤ 64 (got {}): tile-ownership sets travel \
                 as a u64 bitmask",
                self.shards
            ));
        }
        if self.grid > 0 && (self.grid as u64 * self.grid as u64) < self.shards as u64 {
            return Err(format!(
                "ClusterConfig::grid {}×{} has fewer tiles than the {} shards — some shards \
                 would own nothing",
                self.grid, self.grid, self.shards
            ));
        }
        self.server.validate()
    }
}

/// Tile → shard ownership: tiles are dealt round-robin over the grid's
/// row-major order, an object belongs to every shard owning a tile its
/// MBR covers, and node ids translate between shard-local and
/// cluster-global spaces.
#[derive(Clone, Copy, Debug)]
pub struct ShardMap {
    grid: TileGrid,
    shards: u32,
}

impl ShardMap {
    pub fn new(grid: TileGrid, shards: u32) -> Self {
        assert!((1..=64).contains(&shards), "1..=64 shards");
        ShardMap { grid, shards }
    }

    pub fn grid(&self) -> &TileGrid {
        &self.grid
    }

    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// The shard owning tile `(tx, ty)`.
    pub fn shard_of_tile(&self, tx: u32, ty: u32) -> u32 {
        self.grid.index(tx, ty) % self.shards
    }

    /// Bitmask of the shards owning any tile `r` covers (never empty for
    /// `min ≤ max`: the grid clamps, so the rectangle covers a tile).
    pub fn owners(&self, r: &Rect) -> u64 {
        let mut mask = 0u64;
        for (tx, ty) in self.grid.cover(r) {
            mask |= 1 << self.shard_of_tile(tx, ty);
        }
        mask
    }

    /// The live objects each shard indexes, as ids in id order, from one
    /// pass over `store`: an object goes to every shard owning a tile its
    /// MBR covers (straddlers are replicated). Ids, not objects: the store
    /// already holds those, and a second resident copy of the dataset
    /// would sit under every build's peak.
    pub fn partition(&self, store: &ObjectStore) -> Vec<Vec<ObjectId>> {
        let mut owned = vec![Vec::new(); self.shards as usize];
        for o in store.iter_live() {
            let mut mask = self.owners(&o.mbr);
            while mask != 0 {
                owned[mask.trailing_zeros() as usize].push(o.id);
                mask &= mask - 1;
            }
        }
        owned
    }

    /// The lowest-numbered owning shard — the canonical home used to
    /// route single-object work so it is answered exactly once. An
    /// inverted rectangle (`min > max`; only a heap built outside this
    /// program carries one) covers no tile and routes to shard 0.
    pub fn first_owner(&self, r: &Rect) -> u32 {
        match self.owners(r) {
            0 => 0,
            mask => mask.trailing_zeros(),
        }
    }

    /// Translates a shard-local node id into the cluster-global space.
    pub fn to_global(&self, local: NodeId, shard: u32) -> NodeId {
        let g = local.0 as u64 * self.shards as u64 + shard as u64;
        debug_assert!(g < SUPER_ROOT.0 as u64, "node id space exhausted");
        NodeId(g as u32)
    }

    /// Inverse of [`to_global`](Self::to_global): `(shard, local id)`.
    pub fn to_local(&self, global: NodeId) -> (u32, NodeId) {
        debug_assert!(global != SUPER_ROOT);
        (global.0 % self.shards, NodeId(global.0 / self.shards))
    }
}

// ---------------------------------------------------------------------
// Cluster state
// ---------------------------------------------------------------------

/// One whole deployment epoch, published and pinned as a single value: a
/// reader holding it has a consistent cross-shard world by construction.
/// Nothing here ever mutates after publication.
#[derive(Debug)]
pub struct Snapshot {
    /// The cluster's shard map (global ↔ shard-local node ids).
    map: ShardMap,
    /// The global object store as of this epoch — the only handle to it.
    store: ObjectStore,
    /// Every shard's index as of this epoch; a shard the publishing batch
    /// never touched is the previous epoch's `Arc`.
    shards: Vec<Arc<Shard>>,
    /// Built over `shards`.
    layout: SuperLayout,
    /// The deployment epoch: one per update batch, the clock `log` stamps
    /// its changes with.
    epoch: u64,
    /// Every retained change, by cluster-global node id.
    log: UpdateLog,
}

impl Snapshot {
    /// The dataset as of this epoch: ids, sizes, liveness and MBRs are
    /// world-wide facts, held once for all shards.
    pub fn store(&self) -> &ObjectStore {
        &self.store
    }

    /// Shard `s`'s index as of this epoch.
    pub fn shard(&self, s: u32) -> &Shard {
        &self.shards[s as usize]
    }

    /// The deployment epoch this snapshot was published at (0 = the
    /// bulk-loaded seed): bumped once per update batch, whatever the batch
    /// netted to.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The §7 invalidation log as of this epoch: which nodes changed when,
    /// by cluster-global id, the super-root included on a multi-shard
    /// deployment.
    pub fn update_log(&self) -> &UpdateLog {
        &self.log
    }

    /// Heap bytes this epoch keeps resident, by capacity: the store once,
    /// plus every shard's tree and BPTs. Segments shared with other live
    /// epochs are counted in each.
    pub fn heap_bytes(&self) -> usize {
        let shards: usize = self.shards.iter().map(|shard| shard.heap_bytes()).sum();
        self.store.heap_bytes() + shards
    }

    /// Ground-truth query against this epoch's merged world.
    pub fn direct(&self, spec: &QuerySpec) -> DirectReply {
        // A window's owners hold all of its results (straddlers are
        // replicated); a kNN or a join can reach any shard.
        let reach = match *spec {
            QuerySpec::Range { window } => self.map.owners(&window),
            _ => u64::MAX >> (64 - self.shards.len()),
        };
        // One shard to consult: its answer, in its own pop order, is the
        // answer — nothing to merge, re-sort or deduplicate.
        if reach.count_ones() == 1 {
            let out = self.shards[reach.trailing_zeros() as usize].direct(spec);
            return DirectReply {
                results: out.results.iter().map(|&(id, _)| id).collect(),
                pairs: out.result_pairs,
                expansions: out.expansions,
            };
        }
        match *spec {
            QuerySpec::Range { .. } | QuerySpec::Knn { .. } => {
                let mut cands: Vec<(f64, ObjectId)> = Vec::new();
                let mut expansions = 0;
                for (s, shard) in self.shards.iter().enumerate() {
                    if reach & (1 << s) == 0 {
                        continue;
                    }
                    let out = shard.direct(spec);
                    expansions += out.expansions;
                    for &(id, _) in &out.results {
                        cands.push((spec.key_for(&self.store.get(id).mbr), id));
                    }
                }
                // total_cmp: distance keys are never NaN, and a total
                // order costs nothing over the panicking partial_cmp.
                cands.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                // Same id ⇒ same MBR ⇒ same key: duplicates are adjacent.
                cands.dedup_by_key(|c| c.1);
                if let QuerySpec::Knn { k, .. } = *spec {
                    cands.truncate(k as usize);
                }
                DirectReply {
                    results: cands.into_iter().map(|(_, id)| id).collect(),
                    pairs: Vec::new(),
                    expansions,
                }
            }
            QuerySpec::Join { .. } => {
                let out = execute(self, spec, &mut NoopTracer);
                let mut pairs = out.result_pairs;
                pairs.sort();
                pairs.dedup();
                let mut ids: Vec<ObjectId> = out.results.iter().map(|&(id, _)| id).collect();
                ids.sort();
                ids.dedup();
                DirectReply {
                    results: ids,
                    pairs,
                    expansions: out.expansions,
                }
            }
        }
    }
}

/// What changed between a client's synced epoch and the pinned one.
#[derive(Default)]
struct Delta {
    /// Nodes to drop, as cluster-global ids, sorted.
    invalidate: Vec<NodeId>,
    /// Mask of the shards that changed.
    changed: u64,
    /// Whether the super-root layout did.
    super_changed: bool,
}

/// One shard's leg of a scattered remainder.
#[derive(Default)]
struct Leg {
    /// The part of the client's frontier this shard owns, in its local ids.
    heap: Vec<(f64, HeapEntry)>,
    /// Its resume of `heap` — or, for a shard only a router-side resume
    /// reached, just the accesses folded back in.
    resumed: Option<(Outcome, AccessLog)>,
}

#[derive(Debug, Default)]
struct Counters {
    scatter_bytes: Counter,
    gather_bytes: Counter,
    sub_queries: Counter,
    duplicates_merged: Counter,
}

/// Backplane accounting of the scatter-gather router (router ↔ shard
/// traffic, *not* client-channel bytes — the client ledger only ever sees
/// the merged reply).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// Router → shard sub-query bytes ([`shard_sub_request_bytes`]).
    pub scatter_bytes: u64,
    /// Shard → router partial-reply bytes ([`shard_sub_reply_bytes`]).
    pub gather_bytes: u64,
    /// Sub-queries scattered (shards touched by remainder resumes).
    pub sub_queries: u64,
    /// Straddler duplicates dropped by the merge — objects returned by
    /// more than one shard but charged to the client once.
    pub duplicates_merged: u64,
}

/// The scatter-gather router over `N` spatial shards. Implements
/// [`ServerHandle`], so fleets, sessions and benches drive it exactly like
/// a single server.
#[derive(Debug)]
pub struct Cluster {
    /// The current epoch — the one thing a reader pins — and the lock
    /// that serializes update batches.
    core: ServerCore,
    map: ShardMap,
    /// The deployment's one per-client table: §4.3 `d` and the *cluster*
    /// epoch each versioned client last synced to.
    adaptive: AdaptiveController,
    cfg: ClusterConfig,
    stats: Counters,
}

impl Cluster {
    /// Partitions `store` across `cfg.shards` shards and bulk loads one
    /// tree per shard over the objects it owns. Panics on an invalid
    /// configuration ([`ClusterConfig::validate`]).
    pub fn new(store: ObjectStore, tree_cfg: RTreeConfig, cfg: ClusterConfig) -> Self {
        #[expect(
            clippy::expect_used,
            reason = "constructor precondition, documented 'Panics on an invalid configuration' above — a misconfigured cluster must never start serving"
        )]
        cfg.validate().expect("invalid ClusterConfig");
        let map = ShardMap::new(TileGrid::new(cfg.grid_per_axis()), cfg.shards);
        let owned = map.partition(&store);
        // Shards are independent indexes over one shared store: build
        // them side by side.
        let workers = par::worker_count(owned.iter().map(Vec::len).sum());
        let shards: Vec<Arc<Shard>> = par::map_ranges(owned.len(), workers, |range| {
            range
                .map(|s| Arc::new(Shard::build(tree_cfg, &(&store, owned[s].as_slice()))))
                .collect()
        });
        Cluster {
            core: ServerCore::new(Snapshot {
                layout: SuperLayout::build(&map, &shards),
                map,
                store,
                shards,
                epoch: 0,
                log: UpdateLog::default(),
            }),
            map,
            adaptive: AdaptiveController::new(cfg.server.sensitivity),
            cfg,
            stats: Counters::default(),
        }
    }

    /// The mobile application server of Fig. 3: one shard owning the whole
    /// unit square, over a one-tile grid. Panics on an invalid
    /// configuration ([`ServerConfig::validate`]).
    pub fn single(store: ObjectStore, tree_cfg: RTreeConfig, server: ServerConfig) -> Self {
        let cfg = ClusterConfig {
            shards: 1,
            grid: 1,
            server,
        };
        Cluster::new(store, tree_cfg, cfg)
    }

    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    pub fn shard_map(&self) -> &ShardMap {
        &self.map
    }

    pub fn shard_count(&self) -> u32 {
        self.cfg.shards
    }

    /// The current cluster epoch (bumped once per applied update batch).
    pub fn epoch(&self) -> u64 {
        self.core.epoch()
    }

    /// Pins the current [`Snapshot`]: the dataset, every shard's R*-tree
    /// and BPTs, and the update log at one epoch. The pin stays valid and
    /// self-consistent across concurrent
    /// [`apply_updates`](Self::apply_updates) calls, and its `epoch()` is
    /// the one the latest `apply_updates` returned.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.core.pin()
    }

    /// Router backplane counters since construction.
    pub fn stats(&self) -> ClusterStats {
        ClusterStats {
            scatter_bytes: self.stats.scatter_bytes.get(),
            gather_bytes: self.stats.gather_bytes.get(),
            sub_queries: self.stats.sub_queries.get(),
            duplicates_merged: self.stats.duplicates_merged.get(),
        }
    }

    /// The deployment's per-client table: §4.3 d⁺ trajectories (`d`,
    /// `report`, `forget_client`) and the last-synced epochs feeding the
    /// fleet low-water mark (`state(c).last_epoch`, `epoch_low_water`).
    pub fn adaptive(&self) -> &AdaptiveController {
        &self.adaptive
    }

    // -----------------------------------------------------------------
    // Updates
    // -----------------------------------------------------------------

    /// Applies one update batch atomically while queries keep running.
    /// The global store is updated once, in batch order (ids are assigned
    /// in that order; updates naming unassigned ids or dead objects, and
    /// inserts or moves whose rectangle is not one — `min > max`, a NaN
    /// coordinate — are **ignored**: a malformed batch must neither panic
    /// the writer mid-epoch nor put an object in the store that no shard
    /// indexes). The batch is then **netted per object**: each touched
    /// object becomes at most one tree operation per shard, derived from
    /// its batch-start and batch-end tile ownership — a `Move` across a
    /// tile boundary is delete-here/insert-there, an object moved twice is
    /// relocated once, one inserted and deleted in the same batch never
    /// reaches an index. Only the touched shards are rebuilt, the nodes
    /// they dirtied logged at the new epoch; an untouched shard is carried
    /// into the next snapshot as it is, so its clients stay fresh. Returns
    /// the new deployment epoch.
    ///
    /// History is pruned below the fleet's **low-water mark** (the minimum
    /// last-synced epoch over tracked versioned clients, fed by every
    /// versioned contact) and, regardless of clients, below
    /// [`max_update_history`](ServerConfig) epochs, so a long-running
    /// deployment under sustained churn keeps a bounded invalidation log.
    /// Clients that fall below the pruned horizon get a
    /// [`VersionedReply::FullRefresh`] refusal at their next contact.
    pub fn apply_updates(&self, updates: &[Update]) -> u64 {
        self.core
            .advance(|current, spares| self.next_epoch(current, updates, spares))
    }

    /// The snapshot `updates` turn `current` into, its copies written into
    /// the writer's `spares` wherever one is free.
    fn next_epoch(
        &self,
        current: &Snapshot,
        updates: &[Update],
        spares: &mut WriterSpares,
    ) -> Snapshot {
        let mut next_store = current.store.clone();

        // Apply the batch to the store, remembering which objects it
        // touched, in first-touch order.
        let mut touched: Vec<ObjectId> = Vec::new();
        let mut seen: HashSet<ObjectId> = HashSet::new();
        // `min <= max` on both axes, which no NaN coordinate satisfies: an
        // inverted rectangle covers no tile (no shard would index it) and
        // a NaN one cannot be bulk loaded.
        let well_formed = |r: &Rect| r.min.x <= r.max.x && r.min.y <= r.max.y;
        next_store.with_spares(&mut spares.segments, |store| {
            for u in updates {
                let id = match *u {
                    Update::Insert { mbr, size_bytes } if well_formed(&mbr) => {
                        store.push(mbr, size_bytes)
                    }
                    Update::Delete(id) if store.is_live(id) => {
                        store.mark_dead(id);
                        id
                    }
                    Update::Move { id, to } if store.is_live(id) && well_formed(&to) => {
                        store.set_mbr(id, to);
                        id
                    }
                    // An id the store never assigned, one already dead, or a
                    // rectangle that is not one.
                    _ => continue,
                };
                if seen.insert(id) {
                    touched.push(id);
                }
            }
        });

        // Net per-shard ops from (batch-start, batch-end) ownership. A
        // delete against a shard tree must use the MBR the tree actually
        // indexed — the batch-start one — not an intermediate one.
        let mut ops: Vec<Vec<PartitionOp>> = vec![Vec::new(); current.shards.len()];
        let base = &current.store;
        for id in touched {
            let from = base.is_live(id).then(|| base.get(id).mbr);
            let live_after = next_store.is_live(id);
            let to = next_store.get(id).mbr;
            let before = from.map_or(0, |m| self.map.owners(&m));
            let after = if live_after { self.map.owners(&to) } else { 0 };
            for (s, ops) in ops.iter_mut().enumerate() {
                // `Some(mbr)` iff shard `s` indexed the object at batch
                // start — carrying the MBR instead of a bool keeps the
                // delete/relocate arms total (no unwrap on a side channel).
                let op = match (from.filter(|_| before >> s & 1 != 0), after >> s & 1 != 0) {
                    (Some(from), false) => PartitionOp::Delete(id, from),
                    (None, true) => PartitionOp::Insert(id),
                    (Some(from), true) if from != to => PartitionOp::Relocate(id, from),
                    _ => continue,
                };
                ops.push(op);
            }
        }

        // Complete lists are kept back to the horizon — the most-behind
        // versioned client's sync point, hard-capped at
        // `max_update_history` epochs; `prune` never lowers the mark.
        let epoch = current.epoch + 1;
        let horizon = self
            .adaptive
            .epoch_low_water()
            .unwrap_or(0)
            .max(epoch.saturating_sub(self.cfg.server.max_update_history));

        // A touched shard is rebuilt and the nodes it dirtied are logged at
        // `epoch`, by global id; an untouched one is this epoch's `Arc`.
        // One after another on this thread: see the module docs for why
        // not a thread per shard.
        let mut log = current.log.clone();
        let shards: Vec<Arc<Shard>> = (current.shards.iter().zip(&ops).zip(0u32..))
            .map(|((shard, ops), s)| {
                if ops.is_empty() {
                    return Arc::clone(shard);
                }
                let (next, dirty) = shard.next(&next_store, ops, spares);
                for n in dirty {
                    log.record_change(self.map.to_global(n, s), epoch);
                }
                Arc::new(next)
            })
            .collect();

        // The layout changed with this batch if a shard root id moved or a
        // root node is in the batch's dirty set. A lone shard's super-root
        // is never handed out (`bootstrap_root`), so never logged.
        let layout = SuperLayout::build(&self.map, &shards);
        let relaid = layout.roots != current.layout.roots
            || (layout.roots.iter()).any(|&root| log.last_change(root) == Some(epoch));
        if relaid && self.cfg.shards > 1 {
            log.record_change(SUPER_ROOT, epoch);
        }
        log.prune(horizon);
        Snapshot {
            map: self.map,
            store: next_store,
            shards,
            layout,
            epoch,
            log,
        }
    }

    // -----------------------------------------------------------------
    // Queries: scatter / gather / merge
    // -----------------------------------------------------------------

    /// Answers a plain (unversioned) remainder query by scatter-gather.
    pub fn process_remainder(&self, client: ClientId, rq: &RemainderQuery) -> ServerReply {
        self.scatter_remainder(client, rq.clone(), &self.core.pin())
    }

    /// The versioned contact — the one version gate of the §7 protocol.
    /// The deployment's log is asked what changed after the client's
    /// epoch, and staleness is decided **per shard**: only changes in
    /// shards the query could touch
    /// force a `Stale` round-trip, while changes elsewhere ride along as
    /// invalidations on a `Fresh` reply. Check and resume run against one
    /// pinned epoch, and every contact records the epoch this client will
    /// sync to, which keeps the fleet low-water mark — and pruning — honest.
    ///
    /// Conservative rule: *any* epoch gap in a reachable shard refuses the
    /// resume ([`VersionedReply::Stale`] with the changed-node list). A
    /// weaker rule (refuse only when the heap references changed nodes)
    /// would keep the resume sound, but the client's stage-① portion `Rs`
    /// was computed against stale cached leaves the heap never mentions —
    /// the answer could serve deleted or moved objects at a server
    /// contact. Refusing forces the client to invalidate and re-run stage
    /// ① against cleaned state, making every contact answer current; the
    /// price is one extra round trip per (client × update-epoch) gap,
    /// which the experiments charge honestly.
    ///
    /// A stamp **below the low-water mark** cannot be given a complete
    /// invalidation list (that history was pruned), and one **above the
    /// pinned epoch** (a client that outlived a restart) names a history
    /// this deployment never had; both get a
    /// [`VersionedReply::FullRefresh`] — never a silently truncated list.
    pub fn process_remainder_versioned(
        &self,
        client: ClientId,
        rq: &RemainderQuery,
        client_epoch: u64,
    ) -> VersionedReply {
        self.answer_versioned(client, Cow::Borrowed(rq), client_epoch)
    }

    /// [`process_remainder_versioned`](Self::process_remainder_versioned)
    /// over a frontier the caller may already own (a transport does): the
    /// resume routes an owned frontier in place, and a refusal never
    /// copies a borrowed one.
    fn answer_versioned(
        &self,
        client: ClientId,
        rq: Cow<'_, RemainderQuery>,
        client_epoch: u64,
    ) -> VersionedReply {
        let snap = self.core.pin();
        let epoch = snap.epoch;
        self.adaptive.note_epoch(client, epoch);

        // Stamped with the pinned epoch itself: nothing to tell.
        let delta = if client_epoch == epoch {
            Some(Delta::default())
        } else {
            self.delta_since(&snap, client_epoch)
        };
        let Some(delta) = delta else {
            return VersionedReply::FullRefresh { epoch };
        };
        if self.reaches_change(&rq, &delta) {
            return VersionedReply::Stale {
                invalidate: delta.invalidate,
                epoch,
            };
        }
        VersionedReply::Fresh {
            reply: self.scatter_remainder(client, rq.into_owned(), &snap),
            invalidate: delta.invalidate,
            epoch,
        }
    }

    /// What a client synced at epoch `since` has to be told at `snap`'s:
    /// `None` when `since` is below the low-water mark or ahead of the
    /// pinned epoch, so no complete list exists. Out of line: an
    /// up-to-date client's contact never runs it.
    #[inline(never)]
    fn delta_since(&self, snap: &Snapshot, since: u64) -> Option<Delta> {
        if since < snap.log.low_water() || since > snap.epoch {
            return None;
        }
        let invalidate = snap.log.changed_since(since);
        // The topmost id: when logged, it sorts last.
        let super_changed = invalidate.last() == Some(&SUPER_ROOT);
        let in_shards = &invalidate[..invalidate.len() - usize::from(super_changed)];
        let changed = (in_shards.iter()).fold(0, |mask, &n| mask | 1 << self.map.to_local(n).0);
        Some(Delta {
            invalidate,
            changed,
            super_changed,
        })
    }

    /// Whether `rq` could touch a shard that changed (or the super-root,
    /// when that did). A range query reaches the owners of its window
    /// tiles (straddler replication makes them sufficient for the result
    /// set) plus whatever its heap references; kNN and join have unbounded
    /// reach.
    fn reaches_change(&self, rq: &RemainderQuery, delta: &Delta) -> bool {
        let (changed, super_changed) = (delta.changed, delta.super_changed);
        if changed == 0 && !super_changed {
            return false;
        }
        let reach = match rq.spec {
            QuerySpec::Range { window } => self.map.owners(&window),
            _ => u64::MAX,
        };
        if reach & changed != 0 {
            return true;
        }
        let hit = |side: &Side| match *side {
            Side::Cell { cell, .. } if cell.node == SUPER_ROOT => super_changed,
            Side::Cell { cell, .. } => changed & (1 << self.map.to_local(cell.node).0) != 0,
            // Every owner, not just the canonical one: a straddler's cell
            // may sit in the client's cache under *any* replica owner's
            // view, and that view must not be invalidated out from under
            // the heap by a Fresh reply.
            Side::Obj { ref mbr, .. } => changed & self.map.owners(mbr) != 0,
        };
        rq.heap.iter().any(|(_, entry)| match entry {
            HeapEntry::Single(side) => hit(side),
            HeapEntry::Pair(a, b) => hit(a) || hit(b),
        })
    }

    /// Ground-truth query against the merged current epoch.
    pub fn direct(&self, spec: &QuerySpec) -> DirectReply {
        self.core.pin().direct(spec)
    }

    /// Decomposes one client-held super-root cell into the shard roots
    /// under it, pushing each qualifying shard root into that shard's
    /// leg. Returns the router-side cell expansions performed.
    #[inline(never)]
    fn decompose_super(
        &self,
        view: &Snapshot,
        code: Code,
        spec: &QuerySpec,
        legs: &mut [Leg],
    ) -> u64 {
        let mut expansions = 0;
        let mut stack = vec![code];
        while let Some(code) = stack.pop() {
            let node = SUPER_ROOT;
            match view.expand(CellRef { node, code }) {
                Expansion::Split(children) => {
                    expansions += 1;
                    for child in children {
                        if let Side::Cell { cell, mbr } = child {
                            if spec.qualifies(&mbr) {
                                stack.push(cell.code);
                            }
                        }
                    }
                }
                // A layout leaf hands off into its shard's root.
                Expansion::Entry(mut root @ Side::Cell { cell, mbr }) => {
                    self.localize(&mut root);
                    let heap = &mut legs[self.map.to_local(cell.node).0 as usize].heap;
                    heap.push((spec.key_for(&mbr), HeapEntry::Single(root)));
                }
                // A code the layout does not have (only a heap built
                // outside this program names one): nothing to route.
                _ => {}
            }
        }
        expansions
    }

    /// The shard a frontier side lives in: a cell's node id names it, an
    /// object is a wildcard (`None` — an authoritative resume confirms it
    /// without a tree lookup, on whichever shard it is handed to).
    fn side_shard(&self, side: &Side) -> Option<u32> {
        match side {
            Side::Cell { cell, .. } => Some(self.map.to_local(cell.node).0),
            Side::Obj { .. } => None,
        }
    }

    /// The one shard that can resume a join frontier pair: the shard both
    /// cells live in, the cell's shard when the other side is an object,
    /// the canonical owner of the first for two objects. Cross-shard or
    /// super-rooted pairs have none and resume router-side over the merged
    /// view.
    #[inline(never)]
    fn pair_shard(&self, a: &Side, b: &Side) -> Option<u32> {
        let is_super =
            |side: &Side| matches!(side, Side::Cell { cell, .. } if cell.node == SUPER_ROOT);
        if is_super(a) || is_super(b) {
            return None;
        }
        match (self.side_shard(a), self.side_shard(b)) {
            (Some(x), Some(y)) => (x == y).then_some(x),
            (Some(s), None) | (None, Some(s)) => Some(s),
            (None, None) => Some(self.map.first_owner(&a.mbr())),
        }
    }

    /// Re-addresses a frontier side into its shard's local node-id space.
    fn localize(&self, side: &mut Side) {
        *side = side.map_node(|n| self.map.to_local(n).1);
    }

    /// Rewrites one shard's shipment into the cluster-global node-id
    /// space so a single client cache can hold slices of every shard.
    fn translate_shipment(&self, sh: &mut NodeShipment, s: u32) {
        sh.node = self.map.to_global(sh.node, s);
        sh.parent = sh.parent.map(|p| self.map.to_global(p, s));
        for c in &mut sh.cells {
            if let CellKind::Node(nid) = &mut c.kind {
                *nid = self.map.to_global(*nid, s);
            }
        }
    }

    /// The scatter-gather core: decompose the heap by ownership, resume
    /// each sub-query against its shard of the pinned snapshot, resume
    /// genuinely cross-shard work over the merged view, then merge the
    /// partial replies — deduplicating boundary straddlers so each object
    /// is wire-charged exactly once.
    fn scatter_remainder(
        &self,
        client: ClientId,
        rq: RemainderQuery,
        snap: &Snapshot,
    ) -> ServerReply {
        let n = self.cfg.shards as usize;
        let mut legs: Vec<Leg> = (0..n).map(|_| Leg::default()).collect();
        let mut leftover: Vec<(f64, HeapEntry)> = Vec::new();
        let mut super_ship = false;
        let mut expansions = 0u64;

        // Route in place: the first shard named keeps the frontier's own
        // buffer (its entries re-addressed where they lie), so a frontier
        // that lives in one shard is never copied; entries of any other
        // shard move out to that shard's leg.
        let mut frontier = rq.heap;
        let mut home: Option<u32> = None;
        frontier.retain_mut(|item| {
            let shard = match &item.1 {
                HeapEntry::Single(Side::Cell { cell, .. }) if cell.node == SUPER_ROOT => {
                    super_ship = true;
                    expansions += self.decompose_super(snap, cell.code, &rq.spec, &mut legs);
                    return false;
                }
                // An object on its own goes to its canonical owner, so it
                // is answered exactly once.
                HeapEntry::Single(Side::Obj { mbr, .. }) => Some(self.map.first_owner(mbr)),
                HeapEntry::Single(cell) => self.side_shard(cell),
                HeapEntry::Pair(a, b) => self.pair_shard(a, b),
            };
            let Some(s) = shard else {
                leftover.push(*item);
                return false;
            };
            match &mut item.1 {
                HeapEntry::Single(side) => self.localize(side),
                HeapEntry::Pair(a, b) => {
                    self.localize(a);
                    self.localize(b);
                }
            }
            let stays = *home.get_or_insert(s) == s;
            if !stays {
                legs[s as usize].heap.push(*item);
            }
            stays
        });
        if let Some(home) = home {
            // Shard roots a super-root cell decomposed into come after.
            let heap = &mut legs[home as usize].heap;
            frontier.append(heap);
            *heap = frontier;
        }

        // Scatter: per-shard authoritative resumes.
        for (leg, shard) in legs.iter_mut().zip(&snap.shards) {
            if leg.heap.is_empty() {
                continue;
            }
            let query = RemainderQuery {
                spec: rq.spec,
                already_found: rq.already_found,
                heap: std::mem::take(&mut leg.heap),
            };
            self.stats
                .scatter_bytes
                .add(shard_sub_request_bytes(&query));
            self.stats.sub_queries.add(1);
            leg.resumed = Some(shard.resume_traced(&query));
        }

        // Cross-shard leftovers (join pairs spanning shards) resume
        // router-side, over the merged view.
        let router_side = (!leftover.is_empty()).then(|| {
            let query = RemainderQuery {
                spec: rq.spec,
                already_found: rq.already_found,
                heap: leftover,
            };
            self.resume_across(snap, &query, &mut legs, &mut super_ship)
        });

        // Gather: per-shard partial replies, charged on the backplane.
        let mode = form_mode(self.cfg.server.form, &self.adaptive, client);
        let consulted = legs.iter().filter(|leg| leg.resumed.is_some()).count();
        let mut partials =
            legs.into_iter()
                .zip(&snap.shards)
                .zip(0u32..)
                .filter_map(|((leg, shard), s)| {
                    let (out, log) = leg.resumed?;
                    let mut reply = shard.assemble(&snap.store, out, &log, mode);
                    for sh in &mut reply.index {
                        self.translate_shipment(sh, s);
                    }
                    self.stats
                        .gather_bytes
                        .add(shard_sub_reply_bytes(n, &reply));
                    Some(reply)
                });

        // One shard consulted and nothing resumed router-side: that
        // shard's reply is the answer. It holds each object once, in query
        // order, within the kNN budget, with canonical pairs — there is
        // nothing to deduplicate, re-sort or truncate.
        let lone = if consulted == 1 && router_side.is_none() {
            partials.next()
        } else {
            None
        };
        let mut reply = match lone {
            Some(reply) => reply,
            None => {
                // Router-side results carry no index of their own (it went
                // into the shards' logs above), so any shard assembles them.
                let router_side = router_side.map(|out| {
                    snap.shards[0].assemble(
                        &snap.store,
                        out,
                        &AccessLog::default(),
                        FormMode::COMPACT,
                    )
                });
                let partials = partials.chain(router_side);
                self.merge_partials(&snap.store, &rq.spec, rq.already_found, partials)
            }
        };
        reply.expansions += expansions;
        if super_ship {
            reply.index.insert(0, snap.layout.shipment());
        }
        reply
    }

    /// Resumes `query` — frontier pairs no single shard can — over the
    /// merged view, folding its node accesses back into the owning shards'
    /// legs so shipments are built once per shard. Out of line, like
    /// [`merge_partials`](Self::merge_partials): a contact one shard
    /// answers runs neither, and its path stays compact in the
    /// instruction cache.
    #[inline(never)]
    fn resume_across(
        &self,
        snap: &Snapshot,
        query: &RemainderQuery,
        legs: &mut [Leg],
        super_ship: &mut bool,
    ) -> Outcome {
        let mut log = AccessLog::default();
        let out = resume(snap, query, &mut log);
        for gnode in log.nodes() {
            if gnode == SUPER_ROOT {
                *super_ship |= log.any_expansion(gnode);
                continue;
            }
            let (s, local) = self.map.to_local(gnode);
            let (_, shard_log) = legs[s as usize]
                .resumed
                .get_or_insert_with(Default::default);
            shard_log.record_node(&log, gnode, local);
        }
        out
    }

    /// Merges partial replies (ids resolve through the epoch's `store`):
    /// every object appears (and is charged) exactly once, even when
    /// several shards returned a boundary straddler.
    #[inline(never)]
    fn merge_partials(
        &self,
        store: &ObjectStore,
        spec: &QuerySpec,
        already_found: u32,
        partials: impl Iterator<Item = ServerReply>,
    ) -> ServerReply {
        let mut index: Vec<NodeShipment> = Vec::new();
        let mut expansions = 0u64;
        let mut pairs: Vec<(ObjectId, ObjectId)> = Vec::new();
        let mut seen: HashMap<ObjectId, usize> = HashMap::new();
        let mut cands: Vec<(SpatialObject, bool)> = Vec::new();
        let mut dups = 0u64;
        for reply in partials {
            expansions += reply.expansions;
            index.extend(reply.index);
            pairs.extend(reply.pairs);
            // A confirmed id the store never assigned (outside input) has
            // no object to merge.
            let confirmed = reply
                .confirmed
                .iter()
                .filter_map(|&id| store.try_get(id))
                .map(|o| (*o, true));
            for (object, cached) in confirmed.chain(reply.objects.into_iter().map(|o| (o, false))) {
                match seen.entry(object.id) {
                    std::collections::hash_map::Entry::Vacant(v) => {
                        v.insert(cands.len());
                        cands.push((object, cached));
                    }
                    std::collections::hash_map::Entry::Occupied(o) => {
                        dups += 1;
                        cands[*o.get()].1 |= cached;
                    }
                }
            }
        }
        if dups > 0 {
            self.stats.duplicates_merged.add(dups);
        }

        match *spec {
            QuerySpec::Knn { k, .. } => {
                let budget = k.saturating_sub(already_found) as usize;
                cands.sort_by(|a, b| {
                    let ka = spec.key_for(&a.0.mbr);
                    let kb = spec.key_for(&b.0.mbr);
                    // total_cmp: distance keys are never NaN (see above).
                    ka.total_cmp(&kb).then(a.0.id.cmp(&b.0.id))
                });
                cands.truncate(budget);
            }
            QuerySpec::Join { .. } => {
                // Engine pairs are canonical; shards repeat straddlers'.
                pairs.sort();
                pairs.dedup();
                cands.sort_by_key(|c| c.0.id);
            }
            QuerySpec::Range { .. } => {}
        }

        ServerReply {
            confirmed: cands.iter().filter(|c| c.1).map(|c| c.0.id).collect(),
            objects: cands.iter().filter(|c| !c.1).map(|c| c.0).collect(),
            pairs,
            index,
            expansions,
        }
    }
}

// ---------------------------------------------------------------------
// Super-root layout + merged view
// ---------------------------------------------------------------------

/// The synthetic top of one epoch's merged index: a BPT over the non-empty
/// shard roots' MBRs, shipped to clients as the [`SUPER_ROOT`] node in full
/// form. Built once per published epoch, never per contact.
#[derive(Debug)]
struct SuperLayout {
    /// The non-empty shards' root nodes as cluster-global ids, in shard
    /// order (= layout entry order).
    roots: Vec<NodeId>,
    /// Their root MBRs: the entry set `bpt` was built over, which its leaf
    /// cells are read from.
    mbrs: Vec<Rect>,
    bpt: Bpt,
    /// One above the tallest shard root.
    level: u16,
}

impl SuperLayout {
    fn build(map: &ShardMap, shards: &[Arc<Shard>]) -> SuperLayout {
        let mut roots = Vec::new();
        let mut mbrs = Vec::new();
        let mut level = 0u16;
        for (s, shard) in shards.iter().enumerate() {
            if let Some(mbr) = shard.tree().root_mbr() {
                let root = shard.tree().root();
                roots.push(map.to_global(root, s as u32));
                mbrs.push(mbr);
                level = level.max(shard.tree().node(root).level + 1);
            }
        }
        SuperLayout {
            roots,
            bpt: Bpt::build(&mbrs),
            mbrs,
            level,
        }
    }

    /// The full-form shipment of the super-root node.
    #[inline(never)]
    fn shipment(&self) -> NodeShipment {
        let mut cells = Vec::with_capacity(self.roots.len());
        self.bpt
            .leaf_cells(self.mbrs.as_slice(), |code, entry_idx, mbr| {
                cells.push(CellRecord {
                    code,
                    mbr,
                    kind: CellKind::Node(self.roots[entry_idx as usize]),
                })
            });
        NodeShipment {
            node: SUPER_ROOT,
            level: self.level,
            parent: None,
            cells,
        }
    }
}

/// The authoritative [`IndexView`] over one whole cluster epoch: the
/// super-root expands through the layout BPT into translated shard roots,
/// and every other node delegates to its shard's tree with ids
/// translated on the way out. Used for cross-shard join resumes and direct
/// ground truth.
impl IndexView for Snapshot {
    fn root(&self) -> Option<(Rect, CellRef)> {
        // The layout BPT's root cell covers every non-empty shard root.
        let SuperLayout { mbrs, bpt, .. } = &self.layout;
        let root = bpt.find(Code::ROOT, mbrs.as_slice())?;
        Some((root.mbr, CellRef::node_root(SUPER_ROOT)))
    }

    fn expand(&self, cell: CellRef) -> Expansion {
        if cell.node == SUPER_ROOT {
            let SuperLayout {
                roots, mbrs, bpt, ..
            } = &self.layout;
            return bpt.expand(cell, mbrs.as_slice(), |entry_idx, mbr| Side::Cell {
                cell: CellRef::node_root(roots[entry_idx as usize]),
                mbr,
            });
        }

        // A shard node: the shard's own view expands it, and only the
        // node ids it hands out are translated into the global space.
        let (s, local) = self.map.to_local(cell.node);
        let shard = &self.shards[s as usize];
        let cell = CellRef {
            node: local,
            code: cell.code,
        };
        FullView::new(shard.tree(), shard.bpts())
            .expand(cell)
            .map(|side| side.map_node(|n| self.map.to_global(n, s)))
    }

    fn authoritative(&self) -> bool {
        true
    }
}

// ---------------------------------------------------------------------
// Transport / handle plumbing
// ---------------------------------------------------------------------

impl Transport for Cluster {
    fn call(&self, client: ClientId, req: Request) -> Response {
        match req {
            Request::Remainder(rq) => {
                Response::Remainder(self.scatter_remainder(client, rq, &self.core.pin()))
            }
            Request::RemainderVersioned { query, epoch } => {
                Response::Versioned(self.answer_versioned(client, Cow::Owned(query), epoch))
            }
            Request::Direct(spec) => Response::Direct(self.direct(&spec)),
            Request::ReportFmr { fmr } => Response::NewD(self.adaptive.report(client, fmr)),
            Request::Forget => Response::Forgotten(self.adaptive.forget_client(client)),
        }
    }
}

impl ServerHandle for Cluster {
    fn core(&self) -> &ServerCore {
        &self.core
    }

    fn apply_updates(&self, updates: &[Update]) -> u64 {
        Cluster::apply_updates(self, updates)
    }

    fn bootstrap_root(&self) -> (Option<(NodeId, Rect)>, u64) {
        let snap = self.core.pin();
        let root = if self.cfg.shards == 1 {
            // A lone shard's tree is the whole index: clients navigate
            // its root directly, with no super-root hop above it.
            let tree = snap.shards[0].tree();
            tree.root_mbr().map(|mbr| (tree.root(), mbr))
        } else {
            snap.root().map(|(mbr, cell)| (cell.node, mbr))
        };
        (root, snap.epoch)
    }

    fn log_records(&self) -> usize {
        self.core.pin().log.retained_records()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::INITIAL_D;
    use crate::config::FormPolicy;
    use crate::test_util::{cold_remainder, leaves_of, sample_server, sample_store, Fnv};
    use pc_geom::Point;
    use pc_rtree::{naive, ChildRef};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn quad_cluster(store: ObjectStore) -> Cluster {
        Cluster::new(
            store,
            RTreeConfig::small(),
            ClusterConfig {
                shards: 4,
                grid: 2,
                server: ServerConfig::default(),
            },
        )
    }

    fn reply_ids(reply: &ServerReply) -> Vec<ObjectId> {
        let mut ids: Vec<ObjectId> = reply
            .confirmed
            .iter()
            .copied()
            .chain(reply.objects.iter().map(|o| o.id))
            .collect();
        ids.sort();
        ids
    }

    #[test]
    fn config_validation_rejects_degenerate_clusters() {
        assert!(ClusterConfig::new(4).validate().is_ok());
        let err = ClusterConfig::new(0).validate().unwrap_err();
        assert!(err.contains("zero-shard"), "unhelpful error: {err}");
        assert!(ClusterConfig::new(65)
            .validate()
            .unwrap_err()
            .contains("64"));
        let cramped = ClusterConfig {
            shards: 16,
            grid: 2,
            server: ServerConfig::default(),
        };
        assert!(cramped.validate().unwrap_err().contains("fewer tiles"));
        let bad_server = ClusterConfig {
            server: ServerConfig {
                max_update_history: 0,
                ..Default::default()
            },
            ..ClusterConfig::new(2)
        };
        assert!(bad_server
            .validate()
            .unwrap_err()
            .contains("max_update_history"));
    }

    #[test]
    fn tile_ownership_replicates_straddlers() {
        let map = ShardMap::new(TileGrid::new(2), 4);
        // Four tiles, four shards: a bijection.
        let mut owners: Vec<u32> = (0..2)
            .flat_map(|ty| (0..2).map(move |tx| map.shard_of_tile(tx, ty)))
            .collect();
        owners.sort();
        assert_eq!(owners, vec![0, 1, 2, 3]);
        // A rect over the centre corner belongs to all four shards.
        let straddler = Rect::centered_square(Point::new(0.5, 0.5), 0.1);
        assert_eq!(map.owners(&straddler), 0b1111);
        // A rect inside one quadrant belongs to exactly one.
        let inner = Rect::centered_square(Point::new(0.25, 0.25), 0.05);
        assert_eq!(map.owners(&inner).count_ones(), 1);
    }

    #[test]
    fn node_id_translation_round_trips() {
        let map = ShardMap::new(TileGrid::new(3), 5);
        for shard in 0..5 {
            for local in [0u32, 1, 17, 9000] {
                let g = map.to_global(NodeId(local), shard);
                assert_ne!(g, SUPER_ROOT);
                assert_eq!(map.to_local(g), (shard, NodeId(local)));
            }
        }
    }

    #[test]
    fn cluster_answers_match_a_single_server() {
        let store = sample_store(300, 7);
        let single = Cluster::single(store.clone(), RTreeConfig::small(), ServerConfig::default());
        let cl = quad_cluster(store);

        for spec in [
            QuerySpec::Range {
                window: Rect::centered_square(Point::new(0.5, 0.5), 0.3),
            },
            QuerySpec::Knn {
                center: Point::new(0.42, 0.61),
                k: 9,
            },
            QuerySpec::Join { dist: 0.015 },
        ] {
            // Direct ground truth.
            let a = cl.direct(&spec);
            let b = single.direct(&spec);
            let mut b_ids = b.results.clone();
            b_ids.sort();
            b_ids.dedup();
            let mut a_ids = a.results.clone();
            a_ids.sort();
            if let QuerySpec::Knn { center, .. } = spec {
                // kNN ties may resolve to different ids; compare distances.
                let key = |id: ObjectId| {
                    let mbr = cl.core().pin().store().get(id).mbr;
                    format!("{:.12}", mbr.min_dist(&center))
                };
                let mut ak: Vec<String> = a_ids.iter().map(|&i| key(i)).collect();
                let mut bk: Vec<String> = b_ids.iter().map(|&i| key(i)).collect();
                ak.sort();
                bk.sort();
                assert_eq!(ak, bk, "knn distance multiset diverged");
            } else {
                assert_eq!(a_ids, b_ids, "direct results diverged for {spec:?}");
            }
            let mut a_pairs = a.pairs.clone();
            let mut b_pairs: Vec<(ObjectId, ObjectId)> = b
                .pairs
                .iter()
                .map(|&(x, y)| if x <= y { (x, y) } else { (y, x) })
                .collect();
            a_pairs.sort();
            b_pairs.sort();
            b_pairs.dedup();
            assert_eq!(a_pairs, b_pairs, "join pairs diverged");

            // Cold-cache remainder through the scatter-gather path.
            if !spec.is_join() {
                let reply = cl.process_remainder(1, &cold_remainder(&cl, spec));
                let direct_ids = a.results.clone();
                let mut got = reply_ids(&reply);
                if let QuerySpec::Knn { center, .. } = spec {
                    let key = |id: ObjectId| {
                        let mbr = cl.core().pin().store().get(id).mbr;
                        format!("{:.12}", mbr.min_dist(&center))
                    };
                    let mut gk: Vec<String> = got.iter().map(|&i| key(i)).collect();
                    let mut dk: Vec<String> = direct_ids.iter().map(|&i| key(i)).collect();
                    gk.sort();
                    dk.sort();
                    assert_eq!(gk, dk, "remainder knn diverged from ground truth");
                } else {
                    let mut want = direct_ids;
                    want.sort();
                    got.dedup();
                    assert_eq!(got, want, "remainder range diverged from ground truth");
                }
            }
        }
    }

    /// The wire-accounting regression from the issue: an object whose MBR
    /// covers a 4-tile corner is found by all four shards but must appear
    /// — and be byte-charged — exactly once in the merged reply.
    #[test]
    fn corner_straddler_is_charged_once() {
        let mut objects = vec![SpatialObject {
            id: ObjectId(0),
            mbr: Rect::centered_square(Point::new(0.5, 0.5), 0.08),
            size_bytes: 1000,
        }];
        // A few plain objects per quadrant so every shard has a real tree.
        let mut rng = SmallRng::seed_from_u64(11);
        for i in 1..40u32 {
            objects.push(SpatialObject {
                id: ObjectId(i),
                mbr: Rect::from_point(Point::new(
                    rng.random_range(0.0..1.0),
                    rng.random_range(0.0..1.0),
                )),
                size_bytes: 500,
            });
        }
        let cl = quad_cluster(ObjectStore::new(objects));
        // The straddler is replicated into every shard's tree...
        assert_eq!(
            cl.shard_map()
                .owners(&Rect::centered_square(Point::new(0.5, 0.5), 0.08)),
            0b1111
        );

        let spec = QuerySpec::Range {
            window: Rect::centered_square(Point::new(0.5, 0.5), 0.2),
        };
        let reply = cl.process_remainder(1, &cold_remainder(&cl, spec));
        // ...but the merged reply carries it exactly once.
        let hits = reply.objects.iter().filter(|o| o.id == ObjectId(0)).count()
            + reply
                .confirmed
                .iter()
                .filter(|&&id| id == ObjectId(0))
                .count();
        assert_eq!(hits, 1, "straddler must be merged to a single copy");
        let ids = reply_ids(&reply);
        let mut deduped = ids.clone();
        deduped.dedup();
        assert_eq!(ids, deduped, "no object may be charged twice");
        // All four shards returned it: three copies were merged away.
        assert!(
            cl.stats().duplicates_merged >= 3,
            "expected straddler dedup, stats: {:?}",
            cl.stats()
        );
        // And the ledger charges its payload once.
        assert_eq!(
            reply.object_bytes(),
            reply
                .objects
                .iter()
                .map(|o| pc_rtree::proto::OBJECT_HEADER_BYTES + o.size_bytes as u64)
                .sum::<u64>()
        );
    }

    #[test]
    #[should_panic(expected = "max_update_history")]
    fn construction_rejects_invalid_configs() {
        let cfg = ServerConfig {
            max_update_history: 0,
            ..ServerConfig::default()
        };
        let _ = Cluster::single(sample_store(10, 1), RTreeConfig::small(), cfg);
    }

    #[test]
    fn cluster_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Cluster>();
        assert_send_sync::<Arc<Cluster>>();
    }

    #[test]
    fn shared_server_serves_concurrent_clients() {
        // The whole read path — remainder resumption + fmr reports — runs
        // from plain `&Cluster` on several threads at once, and each client
        // keeps its own adaptive trajectory.
        let server = Arc::new(sample_server(300, 10, FormPolicy::Adaptive));
        let handles: Vec<_> = (0..4u32)
            .map(|client| {
                let server = Arc::clone(&server);
                std::thread::spawn(move || {
                    let w = Rect::centered_square(Point::new(0.5, 0.5), 0.2);
                    let rq = cold_remainder(&*server, QuerySpec::Range { window: w });
                    let reply = server.process_remainder(client, &rq);
                    // Client `client` reports a rising fmr `client` times.
                    for step in 0..client {
                        server
                            .adaptive()
                            .report(client, 0.1 * (step + 1) as f64 + 0.01);
                    }
                    reply.objects.len()
                })
            })
            .collect();
        let counts: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(
            counts.windows(2).all(|w| w[0] == w[1]),
            "same query, same answer"
        );
        // 0 reports → initial d; k≥2 reports → d rose k−1 times.
        let d0 = INITIAL_D;
        assert_eq!(server.adaptive().d(0), d0);
        assert_eq!(server.adaptive().d(2), d0 + 1);
        assert_eq!(server.adaptive().d(3), d0 + 2);
    }

    #[test]
    fn cold_remainder_range_returns_ground_truth() {
        let server = sample_server(300, 1, FormPolicy::Adaptive);
        let w = Rect::centered_square(Point::new(0.4, 0.6), 0.3);
        let rq = cold_remainder(&server, QuerySpec::Range { window: w });
        let reply = server.process_remainder(7, &rq);
        let mut got: Vec<ObjectId> = reply.objects.iter().map(|o| o.id).collect();
        got.sort_unstable();
        assert_eq!(got, naive::range_naive(server.snapshot().store(), &w));
        assert!(reply.confirmed.is_empty(), "cold cache has nothing cached");
        assert!(!reply.index.is_empty(), "Ir must accompany Rr");
        assert!(reply.downlink_bytes() > 0);
    }

    #[test]
    fn knn_reply_objects_arrive_in_distance_order() {
        let server = sample_server(300, 2, FormPolicy::Compact);
        let p = Point::new(0.5, 0.5);
        let rq = cold_remainder(&server, QuerySpec::Knn { center: p, k: 8 });
        let reply = server.process_remainder(1, &rq);
        assert_eq!(reply.objects.len(), 8);
        let d: Vec<f64> = reply.objects.iter().map(|o| o.mbr.min_dist(&p)).collect();
        for w in d.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
    }

    #[test]
    fn join_reply_matches_naive() {
        let server = sample_server(120, 3, FormPolicy::Adaptive);
        let dist = 0.03;
        let rq = cold_remainder(&server, QuerySpec::Join { dist });
        let reply = server.process_remainder(1, &rq);
        let mut pairs = reply.pairs.clone();
        pairs.sort_unstable();
        assert_eq!(pairs, naive::join_naive(server.snapshot().store(), dist));
        // All pair members must be transmitted exactly once.
        let mut ids: Vec<ObjectId> = reply.objects.iter().map(|o| o.id).collect();
        ids.sort_unstable();
        let mut expect: Vec<ObjectId> = pairs.iter().flat_map(|&(a, b)| [a, b]).collect();
        expect.sort_unstable();
        expect.dedup();
        assert_eq!(ids, expect);
    }

    #[test]
    fn form_policy_sizes_are_ordered() {
        // Same remainder, three form policies: compact ≤ adaptive(d) ≤ full
        // in index bytes.
        let spec = QuerySpec::Knn {
            center: Point::new(0.25, 0.75),
            k: 3,
        };
        let full = sample_server(400, 4, FormPolicy::Full);
        let compact = sample_server(400, 4, FormPolicy::Compact);
        let adaptive = sample_server(400, 4, FormPolicy::Adaptive);
        let b_full = full
            .process_remainder(1, &cold_remainder(&full, spec))
            .index_bytes();
        let b_compact = compact
            .process_remainder(1, &cold_remainder(&compact, spec))
            .index_bytes();
        let b_adaptive = adaptive
            .process_remainder(1, &cold_remainder(&adaptive, spec))
            .index_bytes();
        assert!(b_compact <= b_adaptive, "{b_compact} > {b_adaptive}");
        assert!(b_adaptive <= b_full, "{b_adaptive} > {b_full}");
        assert!(b_compact < b_full, "compact must actually save bytes");
    }

    #[test]
    fn adaptive_d_feedback_changes_future_forms() {
        let server = sample_server(400, 5, FormPolicy::Adaptive);
        let spec = QuerySpec::Knn {
            center: Point::new(0.5, 0.5),
            k: 2,
        };
        let before = server
            .process_remainder(9, &cold_remainder(&server, spec))
            .index_bytes();
        // Report a strongly rising fmr twice: d goes up by 2.
        server.adaptive().report(9, 0.1);
        server.adaptive().report(9, 0.5);
        server.adaptive().report(9, 0.9);
        assert!(server.adaptive().d(9) > INITIAL_D);
        let after = server
            .process_remainder(9, &cold_remainder(&server, spec))
            .index_bytes();
        assert!(after >= before, "higher d must not shrink the form");
    }

    #[test]
    fn forgotten_client_restarts_from_initial_d() {
        let server = sample_server(200, 7, FormPolicy::Adaptive);
        server.adaptive().report(3, 0.1);
        server.adaptive().report(3, 0.5);
        assert!(server.adaptive().d(3) > INITIAL_D);
        assert_eq!(server.adaptive().tracked_clients(), 1);
        assert!(server.adaptive().forget_client(3));
        assert_eq!(server.adaptive().d(3), INITIAL_D);
        assert_eq!(server.adaptive().tracked_clients(), 0);
    }

    /// Every reply a one-shard deployment puts on the client channel, one
    /// FNV digest each: cold range / kNN / join remainders and
    /// `Request::Direct` for each kind, a three-update batch with the
    /// `Stale` / `Fresh` / `Fresh` contacts around it, a second batch that
    /// prunes epoch 0 below a `max_update_history: 1` horizon
    /// (`FullRefresh`, then `Stale` one epoch up) and a warm `Fresh` over
    /// an inner node — whose invalidation list is empty by construction:
    /// with one shard there is no quiet shard for a change to ride along
    /// from. Recorded at the last commit where the one-shard deployment
    /// (then `Server`) had a serve path of its own
    /// (`Snapshot::answer_remainder`, `transport::dispatch`,
    /// `ServerCore::apply_updates_bounded`), debug and release; replayed
    /// through `Cluster::single` since.
    #[test]
    fn one_shard_deployment_matches_recorded_pins() {
        let mut rng = SmallRng::seed_from_u64(29);
        let objects: Vec<SpatialObject> = (0..600)
            .map(|i| SpatialObject {
                id: ObjectId(i),
                mbr: Rect::centered_square(
                    Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)),
                    rng.random_range(0.0..0.03),
                ),
                size_bytes: rng.random_range(100..2000),
            })
            .collect();
        let server = Cluster::single(
            ObjectStore::new(objects),
            RTreeConfig::small(),
            ServerConfig {
                max_update_history: 1,
                ..ServerConfig::default()
            },
        );
        let specs = [
            QuerySpec::Range {
                window: Rect::centered_square(Point::new(0.5, 0.5), 0.3),
            },
            QuerySpec::Knn {
                center: Point::new(0.49, 0.52),
                k: 12,
            },
            QuerySpec::Join { dist: 0.004 },
        ];
        let digest = |feed: &dyn Fn(&mut Fnv)| {
            let mut h = Fnv::new();
            feed(&mut h);
            h.0
        };
        let mut pins: Vec<u64> = Vec::new();
        // The join replies again, in id order: what they answer.
        let mut join_sets: Vec<u64> = Vec::new();
        let mut cold_and_direct = |pins: &mut Vec<u64>| {
            for spec in specs {
                let reply = server.process_remainder(1, &cold_remainder(&server, spec));
                pins.push(digest(&|h| h.reply(&reply)));
                if spec.is_join() {
                    join_sets.push(digest(&|h| h.reply_as_set(&reply)));
                }
            }
            for spec in specs {
                let reply = server.call(1, Request::Direct(spec)).into_direct();
                pins.push(digest(&|h| h.direct(&reply)));
                if spec.is_join() {
                    join_sets.push(digest(&|h| h.direct_as_set(&reply)));
                }
            }
        };
        let contact = |pins: &mut Vec<u64>, rq: &RemainderQuery, stamp: u64| {
            let reply = server.process_remainder_versioned(2, rq, stamp);
            pins.push(digest(&|h| h.versioned(&reply)));
            reply
        };

        cold_and_direct(&mut pins);
        let epoch = server.apply_updates(&[
            Update::Insert {
                mbr: Rect::centered_square(Point::new(0.5, 0.5), 0.02),
                size_bytes: 700,
            },
            Update::Move {
                id: ObjectId(17),
                to: Rect::centered_square(Point::new(0.9, 0.1), 0.01),
            },
            Update::Delete(ObjectId(40)),
        ]);
        assert_eq!(epoch, 1);
        // A client synced at epoch 0 is refused, then answered.
        let stale = contact(&mut pins, &cold_remainder(&server, specs[0]), 0);
        assert!(matches!(stale, VersionedReply::Stale { epoch: 1, .. }));
        for spec in [specs[0], specs[1]] {
            let fresh = contact(&mut pins, &cold_remainder(&server, spec), 1);
            assert!(matches!(fresh, VersionedReply::Fresh { epoch: 1, .. }));
        }
        // The second publish prunes epoch 0: full refresh below the
        // horizon, plain staleness at it.
        let epoch = server.apply_updates(&[
            Update::Insert {
                mbr: Rect::centered_square(Point::new(0.2, 0.8), 0.005),
                size_bytes: 300,
            },
            Update::Insert {
                mbr: Rect::centered_square(Point::new(0.15, 0.85), 0.01),
                size_bytes: 900,
            },
        ]);
        assert_eq!(epoch, 2);
        let refresh = contact(&mut pins, &cold_remainder(&server, specs[1]), 0);
        assert_eq!(refresh, VersionedReply::FullRefresh { epoch: 2 });
        let stale = contact(&mut pins, &cold_remainder(&server, specs[1]), 1);
        assert!(matches!(stale, VersionedReply::Stale { epoch: 2, .. }));
        // A warm heap: one inner node under the root, at the current epoch.
        let snap = server.snapshot();
        let tree = snap.shard(0).tree();
        let inner = tree
            .node(tree.root())
            .children()
            .iter()
            .find_map(|c| match *c {
                ChildRef::Node(n) => Some(n),
                ChildRef::Object(_) => None,
            })
            .expect("600 objects make a tree taller than one node");
        let mbr = tree.node(inner).mbr().unwrap();
        let warm = RemainderQuery {
            spec: QuerySpec::Range { window: mbr },
            already_found: 0,
            heap: vec![(
                0.0,
                HeapEntry::Single(Side::Cell {
                    cell: CellRef::node_root(inner),
                    mbr,
                }),
            )],
        };
        let fresh = contact(&mut pins, &warm, 2);
        assert!(
            matches!(&fresh, VersionedReply::Fresh { invalidate, epoch: 2, .. } if invalidate.is_empty())
        );
        cold_and_direct(&mut pins);

        // The join replies as sets, recorded while the join walked best
        // first and emitted in pop order: the depth-first walk answers the
        // same sets, with the same cached flags, shipments and expansions.
        const RECORDED_JOIN_SETS: [u64; 4] = [
            0x7b90_fa01_186e_c30e,
            0x3812_b92c_e966_f14a,
            0x0fce_ceb8_56de_3a87,
            0xf15c_ba21_1c7f_e7c3,
        ];
        assert_eq!(
            join_sets, RECORDED_JOIN_SETS,
            "join reply set digests {:#018x?}",
            join_sets
        );
        // Entries 2, 5, 14 and 17 (the joins) were re-recorded when the
        // join began emitting by (pair distance, pair); nothing else moved.
        const RECORDED: [u64; 18] = [
            0x3a92_e418_f8ee_841d,
            0x5943_7bfa_c7d4_6d1b,
            0x51c7_4ccd_fa66_62d6,
            0x18df_6d69_2dc0_332e,
            0x2f6c_5cfc_163f_efc3,
            0xd9a3_90f5_8bc3_0a42,
            0xf7b1_10fc_00a0_3653,
            0xb4e6_c60f_e87f_05c9,
            0x055b_4687_d299_25c5,
            0x912c_043c_6531_6385,
            0x6967_8fd4_2141_dbd2,
            0x265c_49e9_f992_0123,
            0x72c2_1ab9_117d_5777,
            0xa5de_f17b_d555_49a1,
            0xda7f_f211_2790_0f1f,
            0x9992_7e19_beeb_9bb2,
            0x1a4f_6f03_4258_4aeb,
            0x73f6_1f38_dbb3_71cf,
        ];
        assert_eq!(pins, RECORDED, "reply digests {:#018x?}", pins);
    }

    #[test]
    fn bpt_bytes_within_twice_index_size() {
        // §4.2: "the additional space required to store the binary
        // partition trees … is no more than two times that of the R-tree
        // index itself."
        let server = sample_server(500, 6, FormPolicy::Adaptive);
        let aux = server.snapshot().shard(0).bpt_bytes();
        let index = server.snapshot().shard(0).tree().stats().index_bytes;
        assert!(aux > 0);
        assert!(aux <= 2 * index, "aux {aux} vs index {index}");
    }
    /// The router's backplane counters and every byte of its merged
    /// replies, for a fixed 4-shard world of small rectangles (so tile
    /// boundaries have straddlers), cold range / kNN / join remainders and
    /// two update batches. Recorded at the last commit that pinned shards
    /// one by one (`pin_all`) and sized each backplane leg through a
    /// message value built for the purpose; a change to how an epoch is
    /// pinned or how a leg is sized must reproduce them exactly.
    #[test]
    fn backplane_counters_and_merged_replies_match_recorded_pins() {
        let mut rng = SmallRng::seed_from_u64(29);
        let objects: Vec<SpatialObject> = (0..600)
            .map(|i| SpatialObject {
                id: ObjectId(i),
                mbr: Rect::centered_square(
                    Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)),
                    rng.random_range(0.0..0.03),
                ),
                size_bytes: rng.random_range(100..2000),
            })
            .collect();
        let cl = quad_cluster(ObjectStore::new(objects));
        let specs = [
            QuerySpec::Range {
                window: Rect::centered_square(Point::new(0.5, 0.5), 0.3),
            },
            QuerySpec::Knn {
                center: Point::new(0.49, 0.52),
                k: 12,
            },
            QuerySpec::Join { dist: 0.004 },
        ];
        let mut h = Fnv::new();

        for spec in specs {
            h.reply(&cl.process_remainder(1, &cold_remainder(&cl, spec)));
        }
        // Batch 1: an insert on the centre corner (all four shards), a move
        // across a tile boundary, a delete.
        let epoch = cl.apply_updates(&[
            Update::Insert {
                mbr: Rect::centered_square(Point::new(0.5, 0.5), 0.02),
                size_bytes: 700,
            },
            Update::Move {
                id: ObjectId(17),
                to: Rect::centered_square(Point::new(0.9, 0.1), 0.01),
            },
            Update::Delete(ObjectId(40)),
        ]);
        assert_eq!(epoch, 1);
        // A client synced at epoch 0 is refused, then answered.
        for (spec, stamp) in [(specs[0], 0), (specs[0], 1), (specs[1], 1)] {
            h.versioned(&cl.process_remainder_versioned(2, &cold_remainder(&cl, spec), stamp));
        }
        // Batch 2 touches one quadrant only.
        let epoch = cl.apply_updates(&[
            Update::Insert {
                mbr: Rect::centered_square(Point::new(0.2, 0.8), 0.005),
                size_bytes: 300,
            },
            Update::Insert {
                mbr: Rect::centered_square(Point::new(0.15, 0.85), 0.01),
                size_bytes: 900,
            },
        ]);
        assert_eq!(epoch, 2);
        // A kNN can reach the churned quadrant: refused.
        h.versioned(&cl.process_remainder_versioned(2, &cold_remainder(&cl, specs[1]), 1));
        // A warm window over a quiet shard's root cannot: answered, with
        // the other quadrant's invalidations riding along.
        let window = Rect::centered_square(Point::new(0.8, 0.2), 0.1);
        let quiet = cl.shard_map().first_owner(&window);
        let pin = cl.core.pin();
        let pin = pin.shard(quiet);
        let warm = RemainderQuery {
            spec: QuerySpec::Range { window },
            already_found: 0,
            heap: vec![(
                0.0,
                HeapEntry::Single(Side::Cell {
                    cell: CellRef::node_root(cl.shard_map().to_global(pin.tree().root(), quiet)),
                    mbr: pin.tree().root_mbr().unwrap(),
                }),
            )],
        };
        let fresh = cl.process_remainder_versioned(2, &warm, 1);
        assert!(
            matches!(&fresh, VersionedReply::Fresh { invalidate, epoch: 2, .. } if !invalidate.is_empty())
        );
        h.versioned(&fresh);
        for spec in specs {
            h.reply(&cl.process_remainder(1, &cold_remainder(&cl, spec)));
        }

        assert_eq!(
            cl.stats(),
            ClusterStats {
                scatter_bytes: 3000,
                gather_bytes: 441_512,
                sub_queries: 25,
                duplicates_merged: 22,
            }
        );
        assert_eq!(
            h.0, 0xe851_813b_02e3_867a,
            "merged reply digest {:#018x}",
            h.0
        );
    }

    /// FNV digest of every reply of the version gate over a scripted
    /// history: after each batch, one versioned contact per stamp in
    /// `0..=epoch + 1` (so below the low-water mark, inside the retained
    /// window, current and from the future) for a cold one-tile window, the
    /// whole square, a kNN, and the same window warm over its owner shard's
    /// root. The client is forgotten after most batches so the history cap
    /// prunes, and left tracked after every seventh so the fleet mark does.
    fn gate_matrix_digest(h: &dyn ServerHandle) -> u64 {
        let at = |x: f64, y: f64| Rect::from_point(Point::new(x, y));
        let tile = Rect::centered_square(Point::new(0.25, 0.25), 0.1);
        let specs = [
            QuerySpec::Range { window: tile },
            QuerySpec::Range { window: Rect::UNIT },
            QuerySpec::Knn {
                center: Point::new(0.6, 0.4),
                k: 5,
            },
        ];
        let mut fnv = Fnv::new();
        let mut batches = 0;
        let mut publish = |batch: &[Update]| {
            let epoch = h.apply_updates(batch);
            batches += 1;
            assert_eq!(epoch, batches);
            let snap = h.core().pin();
            let owner = snap.map.first_owner(&tile);
            let tree = snap.shard(owner).tree();
            let warm = RemainderQuery {
                spec: specs[0],
                already_found: 0,
                heap: vec![(
                    0.0,
                    HeapEntry::Single(Side::Cell {
                        cell: CellRef::node_root(snap.map.to_global(tree.root(), owner)),
                        mbr: tree.root_mbr().expect("the tile is never emptied"),
                    }),
                )],
            };
            let cold = specs.map(|spec| cold_remainder(h, spec));
            for stamp in 0..=epoch + 1 {
                for query in cold.iter().chain([&warm]).cloned() {
                    let req = Request::RemainderVersioned {
                        query,
                        epoch: stamp,
                    };
                    fnv.versioned(&h.call(1, req).into_versioned());
                }
            }
            if !epoch.is_multiple_of(7) {
                assert!(h.call(1, Request::Forget).into_forgotten());
            }
        };
        let insert = |mbr: Rect| Update::Insert {
            mbr,
            size_bytes: 256,
        };
        let n = h.core().pin().store().len() as u32;

        // One tile; two tiles by a cross-tile move; a batch that nets to
        // nothing; deletes; a batch no index sees; all four tiles at once;
        // a move inside one tile.
        publish(&[insert(at(0.2, 0.2))]);
        publish(&[Update::Move {
            id: ObjectId(n),
            to: at(0.8, 0.8),
        }]);
        publish(&[insert(at(0.7, 0.3)), Update::Delete(ObjectId(n + 1))]);
        publish(&[0, 1, 2].map(|i| Update::Delete(ObjectId(i))));
        publish(&[
            Update::Delete(ObjectId(0)),
            Update::Move {
                id: ObjectId(1),
                to: at(0.1, 0.1),
            },
            Update::Delete(ObjectId(1_000_000)),
        ]);
        publish(&[insert(Rect::centered_square(Point::new(0.5, 0.5), 0.02))]);
        publish(&[Update::Move {
            id: ObjectId(5),
            to: at(0.3, 0.3),
        }]);

        // Per quadrant: bulk inserts until its shard's root splits, a batch
        // elsewhere, then deletes — the quadrant's objects first, newest
        // first — until that root shrinks again.
        for (x0, y0) in [(0.0, 0.0), (0.5, 0.5)] {
            let root = || {
                let snap = h.core().pin();
                let owner = snap.map.first_owner(&at(x0 + 0.25, y0 + 0.25));
                snap.shard(owner).tree().root()
            };
            let before = root();
            let mut i = 0u32;
            while root() == before {
                let batch: Vec<Update> = (i..i + 6)
                    .map(|j| {
                        insert(at(
                            x0 + 0.05 + 0.4 * (j % 23) as f64 / 23.0,
                            y0 + 0.05 + 0.4 * (j % 19) as f64 / 19.0,
                        ))
                    })
                    .collect();
                publish(&batch);
                i += 6;
                assert!(i < 4096, "the root never split");
            }
            publish(&[insert(at(0.75, 0.25))]);

            let grown = root();
            let outside =
                |p: Point| !(x0..x0 + 0.5).contains(&p.x) || !(y0..y0 + 0.5).contains(&p.y);
            let mut victims: Vec<(bool, ObjectId)> = (h.core().pin().store().iter_live())
                .map(|o| (outside(o.mbr.min), o.id))
                .collect();
            victims.sort_by_key(|&(outside, id)| (outside, std::cmp::Reverse(id)));
            let mut victims = victims.chunks(6);
            while root() == grown {
                let batch = victims.next().expect("the root never shrank");
                let batch: Vec<Update> = batch.iter().map(|&(_, id)| Update::Delete(id)).collect();
                publish(&batch);
            }
        }
        publish(&[insert(at(0.25, 0.75)), insert(at(0.26, 0.24))]);
        assert!(batches >= 12, "only {batches} batches");
        fnv.0
    }

    /// The version gate's whole reply matrix, one shard and four, recorded
    /// while the gate still re-expanded a client's scalar stamp into the
    /// per-shard epoch vector it was synced at: a `Stale` / `Fresh` /
    /// `FullRefresh` flip, a missing or extra `SUPER_ROOT` invalidation or
    /// a moved prune horizon changes a digest.
    #[test]
    fn versioned_gate_matrix_matches_recorded_pins() {
        let cfg = ServerConfig {
            max_update_history: 4,
            ..ServerConfig::default()
        };
        let single = Cluster::single(sample_store(160, 41), RTreeConfig::small(), cfg);
        let quad = Cluster::new(
            sample_store(160, 41),
            RTreeConfig::small(),
            ClusterConfig {
                shards: 4,
                grid: 2,
                server: cfg,
            },
        );
        let (one, four) = (gate_matrix_digest(&single), gate_matrix_digest(&quad));
        assert_eq!(
            (one, four),
            (0xff33_e817_17cc_7f67, 0xbc0f_adb2_20aa_fd89),
            "gate matrix digests {one:#018x} / {four:#018x}"
        );
    }

    /// What `pin_all` used to establish by re-pinning until the vector
    /// matched, and the publish order used to promise about the store: a
    /// pinned epoch's log, layout and store describe exactly its shards.
    fn assert_one_consistent_epoch(snap: &Snapshot) {
        // The log holds nothing from the future and nothing at or below
        // its mark, and every id it names is a node of its shard's slab —
        // or the layout, which only a multi-shard deployment logs.
        let log = &snap.log;
        assert!(log.low_water() <= snap.epoch);
        assert!(log.changed_since(snap.epoch).is_empty());
        let retained = log.changed_since(log.low_water());
        assert_eq!(retained.len(), log.retained_records());
        for n in retained {
            if n == SUPER_ROOT {
                assert!(snap.shards.len() > 1, "a lone shard logged the layout");
                continue;
            }
            let (s, local) = snap.map.to_local(n);
            assert!((local.0 as usize) < snap.shards[s as usize].tree().slab_len());
        }
        let mut nonempty = Vec::new();
        for (s, shard) in snap.shards.iter().enumerate() {
            if let Some(mbr) = shard.tree().root_mbr() {
                nonempty.push((snap.map.to_global(shard.tree().root(), s as u32), mbr));
            }
        }
        // Store and index are of one vintage: every shard's leaves index
        // exactly the live objects it owns, each at its store MBR — so a
        // dead id is reachable nowhere.
        let owned = snap.map.partition(&snap.store);
        for (s, (shard, owned)) in snap.shards.iter().zip(owned).enumerate() {
            let tree = shard.tree();
            let mut indexed: Vec<(ObjectId, Rect)> = tree
                .node_ids()
                .into_iter()
                .filter(|&n| tree.node(n).is_leaf())
                .flat_map(|n| tree.node(n).entries())
                .map(|e| match e.child {
                    pc_rtree::ChildRef::Object(id) => (id, e.mbr),
                    pc_rtree::ChildRef::Node(n) => panic!("leaf entry names node {n:?}"),
                })
                .collect();
            indexed.sort_by_key(|e| e.0);
            let want: Vec<(ObjectId, Rect)> = owned
                .into_iter()
                .map(|id| (id, snap.store.get(id).mbr))
                .collect();
            assert_eq!(indexed, want, "shard {s} indexes another store's world");
        }
        // The layout resolves every non-empty shard root, at its MBR.
        let mut shipped: Vec<(NodeId, Rect)> = snap
            .layout
            .shipment()
            .cells
            .iter()
            .map(|c| match c.kind {
                CellKind::Node(root) => (root, c.mbr),
                other => panic!("a layout leaf is a shard root, got {other:?}"),
            })
            .collect();
        shipped.sort_by_key(|c| c.0);
        nonempty.sort_by_key(|c| c.0);
        assert_eq!(shipped, nonempty);
    }

    #[test]
    fn every_pin_is_one_consistent_epoch_under_concurrent_publishes() {
        use std::sync::atomic::{AtomicBool, Ordering};
        const BATCHES: u64 = 300;
        let cl = quad_cluster(sample_store(400, 31));
        let quadrants = [(0.25, 0.25), (0.75, 0.25), (0.25, 0.75), (0.75, 0.75)];
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    let (mut pins, mut last) = (0u32, 0u64);
                    // ordering: Acquire pairs with the writer's Release
                    // store, so a reader that sees `done` also sees the
                    // last publish — pinning the final-epoch assert.
                    while pins < 2000 || !done.load(Ordering::Acquire) {
                        let snap = cl.core.pin();
                        assert_one_consistent_epoch(&snap);
                        assert!(snap.epoch >= last, "epochs went backwards");
                        last = snap.epoch;
                        pins += 1;
                    }
                    assert_eq!(cl.core.epoch(), BATCHES);
                });
            }
            // Batch `b` inserts into 1–4 quadrants and, every third batch,
            // deletes an original object wherever it lives.
            for b in 0..BATCHES {
                let mut batch: Vec<Update> = (0..=b % 4)
                    .map(|q| {
                        let (x, y) = quadrants[((b + q) % 4) as usize];
                        Update::Insert {
                            mbr: Rect::centered_square(Point::new(x, y), 0.001 * (q + 1) as f64),
                            size_bytes: 200,
                        }
                    })
                    .collect();
                if b % 3 == 0 {
                    batch.push(Update::Delete(ObjectId(b as u32)));
                }
                assert_eq!(cl.apply_updates(&batch), b + 1);
            }
            // ordering: Release publishes "all batches applied" to the
            // Acquire loads in the reader loops above.
            done.store(true, Ordering::Release);
        });
        assert_one_consistent_epoch(&cl.core.pin());
    }

    /// Cluster twin of `malformed_batches_never_panic_the_writer`: a
    /// rectangle that is not one must not leave an object live in the
    /// store and indexed by no shard (an inverted one covers no tile) or
    /// indexed where the next build would trip over it (a NaN one).
    #[test]
    fn malformed_rectangles_reach_neither_the_store_nor_a_shard() {
        let cl = quad_cluster(sample_store(500, 9));
        let inverted = Rect {
            min: Point::new(0.6, 0.6),
            max: Point::new(0.4, 0.4),
        };
        let nan = Rect::from_point(Point::new(0.5, f64::NAN));
        let insert = |mbr| Update::Insert {
            mbr,
            size_bytes: 10,
        };
        let relocate = |id, to| Update::Move {
            id: ObjectId(id),
            to,
        };
        let batch = [
            insert(inverted),
            insert(nan),
            relocate(4, inverted),
            relocate(5, nan),
        ];
        assert_eq!(cl.apply_updates(&batch), 1, "the epoch still bumps");
        let snap = cl.core.pin();
        assert_eq!((snap.store.len(), snap.store.live_count()), (500, 500));
        let reachable = snap.direct(&QuerySpec::Range { window: Rect::UNIT });
        assert_eq!(reachable.results.len(), snap.store.live_count());
        assert_one_consistent_epoch(&snap);
    }

    /// Cluster twin of `pinned_snapshot_outlives_a_publish`.
    #[test]
    fn pinned_cluster_epoch_outlives_a_publish() {
        let cl = quad_cluster(sample_store(200, 5));
        let spec = QuerySpec::Range {
            window: Rect::centered_square(Point::new(0.5, 0.5), 0.1),
        };
        let old = cl.core.pin();
        let before = old.direct(&spec).results;
        // One insert on the centre corner: all four shards publish.
        assert_eq!(
            cl.apply_updates(&[Update::Insert {
                mbr: Rect::centered_square(Point::new(0.5, 0.5), 0.01),
                size_bytes: 42,
            }]),
            1
        );
        // The pinned world is frozen at epoch 0 …
        assert_eq!(old.epoch, 0);
        assert_one_consistent_epoch(&old);
        assert_eq!(old.direct(&spec).results, before);
        // … while the current one moved on.
        let mut after = cl.direct(&spec).results;
        after.retain(|id| !before.contains(id));
        assert_eq!(after, vec![ObjectId(200)]);
        assert_eq!(cl.epoch(), 1);
        assert_eq!(last_batch_shards(&cl.core.pin()), vec![0, 1, 2, 3]);
    }

    /// The shards the batch that published `snap` changed: those with a
    /// record stamped at its epoch, in shard order.
    fn last_batch_shards(snap: &Snapshot) -> Vec<u32> {
        let mut shards: Vec<u32> = (snap.log.changed_since(snap.epoch - 1).into_iter())
            .filter(|&n| n != SUPER_ROOT)
            .map(|n| snap.map.to_local(n).0)
            .collect();
        shards.sort();
        shards.dedup();
        shards
    }

    #[test]
    fn updates_rebuild_only_the_shards_they_touch() {
        let cl = quad_cluster(sample_store(80, 3));
        let seed = cl.core.pin();
        assert_eq!(seed.log.retained_records(), 0);

        // Insert into the lower-left quadrant: exactly one shard publishes.
        let e = ServerHandle::apply_updates(
            &cl,
            &[Update::Insert {
                mbr: Rect::centered_square(Point::new(0.2, 0.2), 0.01),
                size_bytes: 400,
            }],
        );
        assert_eq!(e, 1, "cluster epoch advances once per batch");
        let first = cl.core.pin();
        let owner = cl
            .shard_map()
            .first_owner(&Rect::centered_square(Point::new(0.2, 0.2), 0.01));
        // A shard the batch never touched costs it nothing: the next epoch
        // holds the same allocation. The touched one was rebuilt, and its
        // changes stamped with the batch's epoch.
        for s in 0..4 {
            let same = Arc::ptr_eq(&seed.shards[s], &first.shards[s]);
            assert_eq!(same, s as u32 != owner, "shard {s}");
        }
        assert_eq!(last_batch_shards(&first), vec![owner]);
        // One store per epoch, counted once.
        let shards: usize = first.shards.iter().map(|shard| shard.heap_bytes()).sum();
        assert_eq!(first.heap_bytes(), first.store().heap_bytes() + shards);

        // Move it across the tile boundary: delete-here/insert-there in
        // one batch — both shards publish, the others stay quiet.
        let id = ObjectId(80);
        let e = ServerHandle::apply_updates(
            &cl,
            &[Update::Move {
                id,
                to: Rect::centered_square(Point::new(0.8, 0.8), 0.01),
            }],
        );
        assert_eq!(e, 2);
        let new_owner = cl
            .shard_map()
            .first_owner(&Rect::centered_square(Point::new(0.8, 0.8), 0.01));
        // The old owner published the delete, the new one the insert.
        let second = cl.core.pin();
        let mut want = vec![owner, new_owner];
        want.sort();
        assert_eq!(last_batch_shards(&second), want);
        for s in (0..4).filter(|s| !want.contains(s)) {
            let s = s as usize;
            assert!(Arc::ptr_eq(&seed.shards[s], &second.shards[s]), "shard {s}");
        }

        // The handoff is visible in ground truth.
        let found = cl.direct(&QuerySpec::Range {
            window: Rect::centered_square(Point::new(0.8, 0.8), 0.05),
        });
        assert!(found.results.contains(&id));
    }

    #[test]
    fn versioned_staleness_is_decided_per_shard() {
        let cl = quad_cluster(sample_store(120, 5));
        // Sync a client at epoch 0 via a versioned cold query.
        let cold = cold_remainder(
            &cl,
            QuerySpec::Range {
                window: Rect::centered_square(Point::new(0.25, 0.25), 0.1),
            },
        );
        let VersionedReply::Fresh { epoch, .. } = cl.process_remainder_versioned(9, &cold, 0)
        else {
            panic!("cold client at the current epoch must be fresh");
        };
        assert_eq!(epoch, 0);

        // Churn the upper-right quadrant only.
        ServerHandle::apply_updates(
            &cl,
            &[Update::Insert {
                mbr: Rect::centered_square(Point::new(0.8, 0.8), 0.01),
                size_bytes: 300,
            }],
        );

        let changed_shard = cl
            .shard_map()
            .first_owner(&Rect::centered_square(Point::new(0.8, 0.8), 0.01));
        let quiet_shard = cl
            .shard_map()
            .first_owner(&Rect::centered_square(Point::new(0.2, 0.2), 0.05));
        assert_ne!(changed_shard, quiet_shard);

        // A warm heap referencing only the quiet shard's root: the churn
        // elsewhere must NOT force a stale round-trip...
        let pin = cl.core.pin();
        let quiet_root = pin.shard(quiet_shard).tree().root();
        let quiet_mbr = pin.shard(quiet_shard).tree().root_mbr().unwrap();
        let warm = RemainderQuery {
            spec: QuerySpec::Range {
                window: Rect::centered_square(Point::new(0.2, 0.2), 0.05),
            },
            already_found: 0,
            heap: vec![(
                0.0,
                HeapEntry::Single(Side::Cell {
                    cell: CellRef::node_root(cl.shard_map().to_global(quiet_root, quiet_shard)),
                    mbr: quiet_mbr,
                }),
            )],
        };
        match cl.process_remainder_versioned(9, &warm, 0) {
            VersionedReply::Fresh {
                invalidate, epoch, ..
            } => {
                assert_eq!(epoch, 1);
                // ...though the other shard's invalidations ride along.
                assert!(
                    !invalidate.is_empty(),
                    "changed shard's nodes must be invalidated"
                );
            }
            other => panic!("expected per-shard freshness, got {other:?}"),
        }

        // The same client asking INTO the churned quadrant is stale.
        let into_churn = RemainderQuery {
            spec: QuerySpec::Range {
                window: Rect::centered_square(Point::new(0.8, 0.8), 0.05),
            },
            already_found: 0,
            heap: warm.heap.clone(),
        };
        match cl.process_remainder_versioned(9, &into_churn, 0) {
            VersionedReply::Stale { invalidate, epoch } => {
                assert_eq!(epoch, 1);
                assert!(!invalidate.is_empty());
            }
            other => panic!("expected staleness toward the churned shard, got {other:?}"),
        }
    }

    #[test]
    fn bootstrap_root_is_the_super_root() {
        let cl = quad_cluster(sample_store(60, 2));
        let (root, epoch) = cl.bootstrap_root();
        let (node, mbr) = root.unwrap();
        assert_eq!(node, SUPER_ROOT);
        assert_eq!(epoch, 0);
        // The super MBR covers every shard root.
        for s in 0..4 {
            if let Some(r) = cl.core.pin().shard(s).tree().root_mbr() {
                assert!(mbr.contains_rect(&r));
            }
        }
    }

    /// Cluster twin of `fleet_low_water_mark_prunes_ahead_of_the_history_cap`:
    /// the one adaptive table's low-water mark is the deployment's, and the
    /// one log prunes up to it and no further, whichever shards a batch
    /// touches.
    #[test]
    fn lagging_client_holds_the_log_until_it_forgets() {
        let store = sample_store(240, 13);
        let cl = Cluster::new(
            store.clone(),
            RTreeConfig::small(),
            ClusterConfig {
                shards: 4,
                grid: 2,
                server: ServerConfig {
                    // Never reached below: the fleet mark prunes first.
                    max_update_history: 8,
                    ..ServerConfig::default()
                },
            },
        );
        // Batch `e` deletes one object in each of two shards, so the
        // shards' changes are last stamped at different epochs.
        let mut by_shard: Vec<Vec<ObjectId>> = vec![Vec::new(); 4];
        for o in store.iter() {
            by_shard[cl.shard_map().first_owner(&o.mbr) as usize].push(o.id);
        }
        let touched = |e: u64| [(e % 4) as usize, ((e + 1) % 4) as usize];
        // Publishes batch `e`; returns its victims' leaves as global ids.
        let publish = |e: u64| -> Vec<NodeId> {
            let pin = cl.core.pin();
            let victims = touched(e).map(|s| by_shard[s][e as usize]);
            assert_eq!(cl.apply_updates(&victims.map(Update::Delete)), e);
            (victims.iter())
                .flat_map(|&id| leaves_of(&pin, &pin.map, id))
                .collect()
        };
        let contact = |client: ClientId, stamp: u64| {
            let rq = cold_remainder(&cl, QuerySpec::Range { window: Rect::UNIT });
            cl.process_remainder_versioned(client, &rq, stamp)
        };

        publish(1);
        publish(2);
        // The laggard syncs at epoch 2 and then goes quiet.
        assert!(matches!(
            contact(1, 0),
            VersionedReply::Stale { epoch: 2, .. }
        ));
        let mut unseen: Vec<NodeId> = Vec::new();
        for e in 3..=6 {
            unseen.extend(publish(e));
            let mark = cl.core.pin().log.low_water();
            assert_eq!(mark, 2, "the laggard holds the mark at {e}");
        }
        // Its stamp is still answered, with every leaf it has not seen.
        match contact(2, 2) {
            VersionedReply::Stale { invalidate, epoch } => {
                assert_eq!(epoch, 6);
                assert!(unseen.iter().all(|leaf| invalidate.contains(leaf)));
            }
            other => panic!("a retained stamp must be answered, got {other:?}"),
        }

        // Client 2 is caught up (epoch 6); once the laggard disconnects the
        // next publish prunes the log up to that mark.
        let before = cl.log_records();
        assert!(cl.call(1, Request::Forget).into_forgotten());
        assert_eq!(cl.adaptive().tracked_clients(), 1);
        publish(7);
        assert!(cl.log_records() < before, "the laggard's records are gone");
        assert_eq!(cl.core.pin().log.low_water(), 6);
        assert_eq!(contact(3, 2), VersionedReply::FullRefresh { epoch: 7 });
        assert!(matches!(
            contact(2, 6),
            VersionedReply::Stale { epoch: 7, .. }
        ));

        // A stamp from the future — a client that outlived a restart —
        // names a history this deployment never had: refused outright, on
        // four shards and on one.
        assert_eq!(contact(3, 8), VersionedReply::FullRefresh { epoch: 7 });
        let single = Cluster::single(store, RTreeConfig::small(), ServerConfig::default());
        let rq = cold_remainder(&single, QuerySpec::Range { window: Rect::UNIT });
        assert_eq!(
            single.process_remainder_versioned(3, &rq, 1),
            VersionedReply::FullRefresh { epoch: 0 }
        );
    }

    /// The history cap holds for every shard, not only for those a batch
    /// touches: once the churn moves away from a quadrant, its shard's old
    /// changes age out like any other, and the log keeps no record the
    /// gate could never hand out.
    #[test]
    fn history_cap_prunes_a_shard_batches_stop_touching() {
        let mut cfg = ClusterConfig::new(4);
        cfg.grid = 2;
        cfg.server.max_update_history = 4;
        let cl = Cluster::new(sample_store(240, 17), RTreeConfig::small(), cfg);
        let at = |p: f64| Rect::centered_square(Point::new(p, p), 0.01);
        let insert = |p: f64| Update::Insert {
            mbr: at(p),
            size_bytes: 100,
        };
        cl.apply_updates(&[insert(0.2)]);
        for _ in 0..40 {
            cl.apply_updates(&[insert(0.8)]);
        }
        let snap = cl.snapshot();
        let log = snap.update_log();
        assert_eq!((snap.epoch(), log.low_water()), (41, 37));
        // Every retained record is above the mark, and none is the quiet
        // shard's.
        let retained = log.changed_since(log.low_water());
        assert_eq!(log.retained_records(), retained.len());
        assert_eq!(cl.log_records(), retained.len());
        let quiet = cl.map.first_owner(&at(0.2));
        assert!(retained
            .iter()
            .all(|&n| n == SUPER_ROOT || cl.map.to_local(n).0 != quiet));
    }

    #[test]
    fn fmr_reports_move_one_table_like_a_single_server() {
        let store = sample_store(60, 4);
        let single = Cluster::single(store.clone(), RTreeConfig::small(), ServerConfig::default());
        let cl = quad_cluster(store);
        for fmr in [0.1, 0.5, 0.9, 0.95, 0.2, 0.05] {
            let req = Request::ReportFmr { fmr };
            assert_eq!(
                cl.call(7, req.clone()).into_new_d(),
                single.call(7, req).into_new_d(),
                "fmr {fmr}"
            );
        }
        assert_eq!(cl.adaptive().tracked_clients(), 1);
        assert!(cl.call(7, Request::Forget).into_forgotten());
        assert_eq!(cl.adaptive().tracked_clients(), 0);
        assert!(!cl.call(7, Request::Forget).into_forgotten());
    }
}
