//! The proactive cache proper: item store, byte accounting, reply
//! absorption (stage ③ of Fig. 3) and the §5 replacement machinery.

use crate::item::{Item, ItemData, ItemKey, ItemMeta};
use crate::node_view::CachedNodeView;
use crate::policy::ReplacementPolicy;
use crate::view::Catalog;
use pc_geom::Point;
use pc_rtree::proto::{
    CellKind, NodeShipment, ServerReply, ENTRY_BYTES, OBJECT_HEADER_BYTES, SHIPMENT_HEADER_BYTES,
};
use pc_rtree::{IdMap, NodeId, ObjectId, SpatialObject};
use std::borrow::Borrow;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// What one reply absorption did to the cache.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct InsertOutcome {
    pub inserted_bytes: u64,
    pub evicted_items: usize,
    pub evicted_bytes: u64,
    /// Objects whose supporting leaf was unknown and that therefore could
    /// not be cached (pathological; counted for observability).
    pub skipped_objects: usize,
}

/// Aggregate cache statistics (drives the Fig. 11(b) `i/c` series).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CacheStats {
    pub capacity: u64,
    pub used_bytes: u64,
    pub node_items: usize,
    pub object_items: usize,
    pub index_bytes: u64,
    pub object_bytes: u64,
}

impl CacheStats {
    /// Ratio of index size to total cache size (Fig. 11(b)).
    pub fn index_to_cache_ratio(&self) -> f64 {
        if self.capacity == 0 {
            return 0.0;
        }
        self.index_bytes as f64 / self.capacity as f64
    }
}

/// Each object a reply brings that the cache lacks, and its leaf once found.
type Leaves = IdMap<ObjectId, Option<NodeId>>;

/// The proactive cache of §3.2/§5, with the catalog its traversals start
/// from.
#[derive(Clone, Debug)]
pub struct ProactiveCache {
    capacity: u64,
    policy: ReplacementPolicy,
    catalog: Catalog,
    items: IdMap<ItemKey, Item>,
    /// Per-kind totals, kept wherever an item comes, grows or goes, so
    /// `stats()` and `used_bytes()` walk nothing.
    node_items: usize,
    index_bytes: u64,
    object_bytes: u64,
    /// Whether the most recent GRD3 eviction took the Definition 5.1
    /// step-(6) B-swap (diagnostics; lets the Theorem 5.5 equivalence test
    /// exclude the one step GRD2 does not have).
    last_bswap: bool,
}

impl ProactiveCache {
    pub fn new(capacity: u64, policy: ReplacementPolicy, catalog: Catalog) -> Self {
        ProactiveCache {
            capacity,
            policy,
            catalog,
            items: IdMap::default(),
            node_items: 0,
            index_bytes: 0,
            object_bytes: 0,
            last_bswap: false,
        }
    }

    /// Reconfigures the byte capacity (the next `enforce_capacity` applies
    /// it); used by experiments that sweep |C|.
    pub fn set_capacity(&mut self, capacity: u64) {
        self.capacity = capacity;
    }

    /// Whether the most recent GRD3 eviction ended in the B-swap step.
    pub fn took_bswap(&self) -> bool {
        self.last_bswap
    }

    // ------------------------------------------------------------------
    // Lookups
    // ------------------------------------------------------------------

    #[inline]
    pub fn contains_object(&self, id: ObjectId) -> bool {
        self.items.contains_key(&ItemKey::Object(id))
    }

    pub fn node_view(&self, id: NodeId) -> Option<&CachedNodeView> {
        match self.items.get(&ItemKey::Node(id)) {
            Some(Item {
                data: ItemData::Node(v),
                ..
            }) => Some(v),
            _ => None,
        }
    }

    pub fn get(&self, key: ItemKey) -> Option<&Item> {
        self.items.get(&key)
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    pub fn used_bytes(&self) -> u64 {
        self.index_bytes + self.object_bytes
    }

    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    pub fn policy(&self) -> ReplacementPolicy {
        self.policy
    }

    pub fn catalog(&self) -> Catalog {
        self.catalog
    }

    pub fn keys(&self) -> impl Iterator<Item = ItemKey> + '_ {
        self.items.keys().copied()
    }

    pub fn stats(&self) -> CacheStats {
        CacheStats {
            capacity: self.capacity,
            used_bytes: self.used_bytes(),
            node_items: self.node_items,
            object_items: self.items.len() - self.node_items,
            index_bytes: self.index_bytes,
            object_bytes: self.object_bytes,
        }
    }

    // ------------------------------------------------------------------
    // Access bookkeeping
    // ------------------------------------------------------------------

    /// Records that query `now` used this item (§5.2 metadata (4)).
    pub fn touch(&mut self, key: ItemKey, now: u64) {
        if let Some(item) = self.items.get_mut(&key) {
            item.meta.hits += 1;
            item.meta.last_access = now;
        }
    }

    // ------------------------------------------------------------------
    // Reply absorption (stage ③: "the cache manager inserts Rr and Ir")
    // ------------------------------------------------------------------

    /// Inserts a server reply — index shipments first (parents before
    /// children), then objects — and evicts per the configured policy until
    /// the capacity holds again. A new object goes under the last merged
    /// shipment that lists it, else the first node of `read` (what the
    /// query's local run read) that does; an object neither lists is
    /// skipped. The reply stays whole: the client holds its index twice
    /// for the call. The benchmark package's traced driver and tests read
    /// the index afterwards; the entry can go once that driver no longer
    /// replays the runner by hand (ROADMAP item 6).
    /// [`absorb_drain`](Self::absorb_drain) is the one a client runs.
    pub fn absorb(
        &mut self,
        reply: &ServerReply,
        read: impl IntoIterator<Item = NodeId>,
        now: u64,
        pos: Point,
    ) -> InsertOutcome {
        self.absorb_parts(reply.index.iter().collect(), &reply.objects, read, now, pos)
    }

    /// [`absorb`](Self::absorb), taking `reply.index` (left empty) and
    /// dropping each shipment as soon as it is merged: the client then
    /// holds one copy of the index and one shipment, not a second index.
    /// The rest of the reply is untouched.
    pub fn absorb_drain(
        &mut self,
        reply: &mut ServerReply,
        read: impl IntoIterator<Item = NodeId>,
        now: u64,
        pos: Point,
    ) -> InsertOutcome {
        let index = std::mem::take(&mut reply.index);
        self.absorb_parts(index, &reply.objects, read, now, pos)
    }

    /// The one body of both entries, over borrowed or owned shipments.
    fn absorb_parts<S: Borrow<NodeShipment>>(
        &mut self,
        mut shipments: Vec<S>,
        objects: &[SpatialObject],
        read: impl IntoIterator<Item = NodeId>,
        now: u64,
        pos: Point,
    ) -> InsertOutcome {
        let mut out = InsertOutcome::default();

        let mut leaves = Leaves::with_capacity_and_hasher(objects.len(), Default::default());
        let uncached = objects.iter().filter(|o| !self.contains_object(o.id));
        leaves.extend(uncached.map(|o| (o.id, None)));

        // Stable: one level's shipments merge in reply order. An owned
        // shipment is dropped at the end of its iteration, once merged.
        shipments.sort_by_key(|s| Reverse(s.borrow().level));
        for s in shipments {
            out.inserted_bytes += self.merge_shipment(s.borrow(), now, &mut leaves);
        }
        // An object no shipment listed goes under a leaf the query read. A
        // leaf lists only objects its root cell covers, as they were when
        // it was shipped.
        let mut read = read.into_iter();
        while let Some(node) = read.next().filter(|_| leaves.values().any(Option::is_none)) {
            let Some(view) = self.node_view(node).filter(|v| v.level() == 0) else {
                continue;
            };
            let covers =
                |o: &&SpatialObject| view.root_mbr().is_some_and(|r| r.contains_rect(&o.mbr));
            for obj in objects.iter().filter(covers) {
                if let Some(leaf @ None) = leaves.get_mut(&obj.id) {
                    if view.object_entries().any(|o| o == obj.id) {
                        *leaf = Some(node);
                    }
                }
            }
        }

        for obj in objects {
            let key = ItemKey::Object(obj.id);
            if self.items.contains_key(&key) {
                continue;
            }
            let Some(&Some(leaf)) = leaves.get(&obj.id) else {
                out.skipped_objects += 1;
                continue;
            };
            let size = OBJECT_HEADER_BYTES + obj.size_bytes as u64;
            let parent_key = ItemKey::Node(leaf);
            debug_assert!(self.items.contains_key(&parent_key));
            if let Some(p) = self.items.get_mut(&parent_key) {
                p.children.push(key);
            }
            self.insert_item(
                key,
                Item {
                    meta: ItemMeta {
                        size,
                        t_insert: now,
                        hits: 1,
                        last_access: now,
                        parent: Some(parent_key),
                    },
                    data: ItemData::Object(*obj),
                    children: Vec::new(),
                },
            );
            out.inserted_bytes += size;
        }

        let (evicted_items, evicted_bytes) = self.enforce_capacity(now, pos);
        out.evicted_items = evicted_items;
        out.evicted_bytes = evicted_bytes;
        out
    }

    /// Merges one node shipment; returns the byte growth. Files the node
    /// as the leaf of each object of `leaves` it lists. A shipment the
    /// node's view declines (`CachedNodeView::merge`) caches nothing: a
    /// new node stays uncached, a cached one stays as it was.
    fn merge_shipment(&mut self, s: &NodeShipment, now: u64, leaves: &mut Leaves) -> u64 {
        let key = ItemKey::Node(s.node);
        let grown = match self.items.get_mut(&key) {
            Some(Item {
                meta,
                data: ItemData::Node(view),
                ..
            }) => {
                if !view.merge(&s.cells) {
                    return 0;
                }
                let old = meta.size;
                let new = node_item_bytes(view);
                meta.size = new;
                meta.hits += 1;
                meta.last_access = now;
                // Refinement only adds cells, so the frontier (and size)
                // never shrinks; stay correct even if that ever changes.
                self.index_bytes = self.index_bytes + new - old;
                new.saturating_sub(old)
            }
            // A node key always holds node data.
            Some(_) => 0,
            // A decoded shipment may carry no cells: nothing to cache.
            None if s.cells.is_empty() => return 0,
            None => {
                let Some(view) = CachedNodeView::new(s.level, &s.cells) else {
                    return 0;
                };
                let size = node_item_bytes(&view);
                if view.root_mbr().is_none() {
                    return 0;
                }
                // A parent neither cached nor shipped leaves this node an
                // orphan (evictable on its own; re-linked by `adopt_orphan`
                // if the parent arrives later). This only arises after
                // update-driven invalidations.
                let parent = s.parent.map(ItemKey::Node);
                let parent_key = match parent.and_then(|pk| self.items.get_mut(&pk)) {
                    Some(p) => {
                        p.children.push(key);
                        parent
                    }
                    None => None,
                };
                self.insert_item(
                    key,
                    Item {
                        meta: ItemMeta {
                            size,
                            t_insert: now,
                            hits: 1,
                            last_access: now,
                            parent: parent_key,
                        },
                        data: ItemData::Node(view),
                        children: Vec::new(),
                    },
                );
                size
            }
        };
        // Adopt cached orphans this node's entries point at (orphans
        // appear when the update-extension invalidates an ancestor while a
        // descendant survives a later re-shipment).
        for c in &s.cells {
            match c.kind {
                CellKind::Object(o) => {
                    if let Some(leaf) = leaves.get_mut(&o) {
                        *leaf = Some(s.node);
                    }
                    self.adopt_orphan(key, ItemKey::Object(o));
                }
                CellKind::Node(child) => self.adopt_orphan(key, ItemKey::Node(child)),
                CellKind::Super => {}
            }
        }
        grown
    }

    // ------------------------------------------------------------------
    // Eviction
    // ------------------------------------------------------------------

    /// Evicts until `used ≤ capacity`; returns `(items, bytes)` evicted.
    pub fn enforce_capacity(&mut self, now: u64, pos: Point) -> (usize, u64) {
        if self.used_bytes() <= self.capacity {
            return (0, 0);
        }
        // LRU, MRU and FAR are the greedy loop under another key; the
        // negations make the min-heap pop the most recent / the farthest.
        let (count, bytes, _) = match self.policy {
            ReplacementPolicy::Grd3 => return self.evict_grd3(now),
            ReplacementPolicy::Grd2 => return self.evict_grd2(now),
            ReplacementPolicy::Lru => self.evict_leaves(|it| it.meta.last_access as f64),
            ReplacementPolicy::Mru => self.evict_leaves(|it| -(it.meta.last_access as f64)),
            ReplacementPolicy::Far => self.evict_leaves(|it| -it.mbr().center().dist(&pos)),
        };
        (count, bytes)
    }

    /// Steps (2)–(5) of Definition 5.1 under any ranking: a min-heap `G`
    /// over hierarchy leaves keyed by `(rank, ItemKey)`; evict the least
    /// until the capacity holds, and push a parent once its last cached
    /// child goes. Nothing touches an item mid-round, so ranks are fixed
    /// and the pops are exactly a per-victim rescan's picks. Returns
    /// `(items, bytes)` evicted and the last victim.
    fn evict_leaves(
        &mut self,
        rank: impl Fn(&Item) -> f64,
    ) -> (usize, u64, Option<(ItemKey, Item)>) {
        let mut heap: BinaryHeap<Reverse<(i64, ItemKey)>> = self
            .items
            .iter()
            .filter(|(_, it)| it.is_hierarchy_leaf())
            .map(|(k, it)| Reverse((total_order(rank(it)), *k)))
            .collect();
        let (mut count, mut bytes, mut last) = (0, 0, None);
        while self.used_bytes() > self.capacity {
            let Some(Reverse((_, key))) = heap.pop() else {
                break;
            };
            let Some(item) = self.remove_item(key) else {
                continue;
            };
            count += 1;
            bytes += item.meta.size;
            if let Some(pk) = item.meta.parent {
                if let Some(p) = self.items.get(&pk).filter(|p| p.is_hierarchy_leaf()) {
                    heap.push(Reverse((total_order(rank(p)), pk)));
                }
            }
            last = Some((key, item));
        }
        (count, bytes, last)
    }

    /// GRD3 (Definition 5.1): step (1) discards what can never fit, the
    /// leaf loop evicts in increasing `prob`, and step (6) — the B-swap
    /// approximation guarantee — keeps the last victim alone when it alone
    /// is worth more than everything left.
    fn evict_grd3(&mut self, now: u64) -> (usize, u64) {
        self.last_bswap = false;
        let mut count = 0;
        let oversize = self.discard_oversize(&mut count);
        let (evicted, bytes, last) = self.evict_leaves(|it| it.prob(now));
        let (count, bytes) = (count + evicted, oversize + bytes);
        let Some((b_key, mut b)) = last else {
            return (count, bytes);
        };
        // Each benefit `prob · size` on a 2⁻⁶⁴ grid, summed as integers:
        // integer addition is order-free, and the map's order differs per
        // instance. `prob ≤ hits`, so a term overflows only when
        // `hits · size ≥ 2⁶⁴`; the cast saturates there, and so does the
        // sum, which then keeps everything left (no B-swap).
        const GRID: f64 = (1u128 << 64) as f64;
        let benefit = |it: &Item| (it.prob(now) * it.meta.size as f64 * GRID) as u128;
        let remaining = self
            .items
            .values()
            .map(benefit)
            .fold(0, u128::saturating_add);
        if benefit(&b) <= remaining || b.meta.size > self.capacity {
            return (count, bytes);
        }
        // Evict everything left and re-insert B as an orphan.
        let (cleared, cleared_bytes) = self.clear();
        self.last_bswap = true;
        b.meta.parent = None;
        let kept = b.meta.size;
        self.insert_item(b_key, b);
        (count + cleared - 1, bytes + cleared_bytes - kept)
    }

    /// GRD2 (§5.1): recompute EBRS for every item, evict the minimum with
    /// its whole subtree, repeat. Kept as the reference implementation for
    /// the Theorem 5.5 equivalence tests; quadratic and proud of it.
    ///
    /// Tie handling: a hierarchy leaf's EBRS equals its `prob`
    /// (Corollary 5.1) and Lemma 5.4 guarantees the minimum is attained at
    /// a leaf; when an interior item *ties* with the minimum (degenerate
    /// weighted averages) we prefer the leaf, matching what any greedy that
    /// removes one knapsack item at a time would do.
    fn evict_grd2(&mut self, now: u64) -> (usize, u64) {
        let mut count = 0;
        let mut bytes = 0;
        bytes += self.discard_oversize(&mut count);
        while self.used_bytes() > self.capacity && !self.items.is_empty() {
            let mut memo: IdMap<ItemKey, (f64, u64)> = IdMap::default(); // (benefit, SIZE)
            let keys: Vec<ItemKey> = self.items.keys().copied().collect();
            for k in &keys {
                self.benefit_size(*k, now, &mut memo);
            }
            // Corollary 5.1 exactness: leaves use `prob` directly instead
            // of the round-tripped (prob·size)/size division.
            let ebrs = |k: &ItemKey| -> f64 {
                let item = &self.items[k];
                if item.is_hierarchy_leaf() {
                    item.prob(now)
                } else {
                    memo[k].0 / memo[k].1 as f64
                }
            };
            // Mathematical ties (equal probs across a subtree) surface as
            // ulp-level EBRS differences after the summation/division, so
            // the comparison treats near-equal values as equal before the
            // leaf-preference and key tie-breaks.
            let cmp_ebrs = |x: f64, y: f64| -> std::cmp::Ordering {
                if (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1e-300) {
                    std::cmp::Ordering::Equal
                } else {
                    x.total_cmp(&y)
                }
            };
            let victim = keys
                .iter()
                .min_by(|a, b| {
                    let leaf = |k: &ItemKey| !self.items[k].is_hierarchy_leaf();
                    cmp_ebrs(ebrs(a), ebrs(b))
                        .then(leaf(a).cmp(&leaf(b)))
                        .then(a.cmp(b))
                })
                .copied();
            let Some(victim) = victim else { break };
            bytes += self.remove_subtree(victim, &mut count);
        }
        (count, bytes)
    }

    /// Step (1) of Definition 5.1 (shared with the GRD2 reference): discard
    /// any item that could never be kept within the capacity.
    fn discard_oversize(&mut self, count: &mut usize) -> u64 {
        let oversize: Vec<ItemKey> = self
            .items
            .iter()
            .filter(|(_, it)| it.meta.size > self.capacity)
            .map(|(k, _)| *k)
            .collect();
        oversize
            .into_iter()
            .map(|k| self.remove_subtree(k, count))
            .sum()
    }

    /// Subtree benefit `Σ prob·size` and `SIZE` (§5.1) with memoization.
    fn benefit_size(
        &self,
        key: ItemKey,
        now: u64,
        memo: &mut IdMap<ItemKey, (f64, u64)>,
    ) -> (f64, u64) {
        if let Some(&v) = memo.get(&key) {
            return v;
        }
        let item = &self.items[&key];
        let mut benefit = item.prob(now) * item.meta.size as f64;
        let mut size = item.meta.size;
        for c in item.children.clone() {
            let (b, s) = self.benefit_size(c, now, memo);
            benefit += b;
            size += s;
        }
        memo.insert(key, (benefit, size));
        (benefit, size)
    }

    /// Re-links a cached orphan under its (about-to-exist or existing)
    /// parent item. No-op unless `child` exists, is parentless, and
    /// `parent` exists.
    fn adopt_orphan(&mut self, parent: ItemKey, child: ItemKey) {
        if parent == child || !self.items.contains_key(&parent) {
            return;
        }
        let Some(orphan) = self
            .items
            .get_mut(&child)
            .filter(|it| it.meta.parent.is_none())
        else {
            return;
        };
        orphan.meta.parent = Some(parent);
        if let Some(p) = self.items.get_mut(&parent) {
            p.children.push(child);
        }
    }

    /// Drops a node item and every cached descendant — the invalidation
    /// primitive of the server-update extension (stale index knowledge must
    /// go, and the §5 constraint says descendants go with it). Returns
    /// `(items, bytes)` dropped; `(0, 0)` when the node is not cached.
    pub fn invalidate_node(&mut self, node: NodeId) -> (usize, u64) {
        let key = ItemKey::Node(node);
        if !self.items.contains_key(&key) {
            return (0, 0);
        }
        let mut count = 0;
        let bytes = self.remove_subtree(key, &mut count);
        (count, bytes)
    }

    /// Drops only `node`'s own view, leaving cached descendants behind as
    /// orphans (parent links cleared; re-linked by `adopt_orphan` when a
    /// fresh shipment for `node` arrives). This is the right response when
    /// the invalidated view is pure *routing* metadata whose children are
    /// independently versioned — a sharded cluster's virtual super-root,
    /// whose shard subtrees carry their own per-shard invalidation
    /// entries. Returns `(items, bytes)` dropped (0 or 1 items).
    pub fn invalidate_node_shallow(&mut self, node: NodeId) -> (usize, u64) {
        let key = ItemKey::Node(node);
        let Some(item) = self.items.get_mut(&key) else {
            return (0, 0);
        };
        for c in std::mem::take(&mut item.children) {
            if let Some(child) = self.items.get_mut(&c) {
                child.meta.parent = None;
            }
        }
        (1, self.remove_item(key).map_or(0, |it| it.meta.size))
    }

    /// Drops *everything* and adopts a freshly synced `catalog` — the
    /// client's response to a full-refresh refusal (§7 extension): the
    /// server pruned invalidation history below the client's epoch, so no
    /// per-node list exists and the whole cache is suspect. Returns
    /// `(items, bytes)` dropped.
    pub fn full_refresh(&mut self, catalog: Catalog) -> (usize, u64) {
        self.catalog = catalog;
        self.clear()
    }

    /// Drops every item; returns `(items, bytes)` dropped.
    fn clear(&mut self) -> (usize, u64) {
        let dropped = (self.items.len(), self.used_bytes());
        self.items.clear();
        (self.node_items, self.index_bytes, self.object_bytes) = (0, 0, 0);
        self.last_bswap = false;
        dropped
    }

    /// Inserts an item and charges its bytes to its kind.
    fn insert_item(&mut self, key: ItemKey, item: Item) {
        match item.data {
            ItemData::Node(_) => {
                self.node_items += 1;
                self.index_bytes += item.meta.size;
            }
            ItemData::Object(_) => self.object_bytes += item.meta.size,
        }
        self.items.insert(key, item);
    }

    /// Removes a single (leaf) item; unlinks it from its parent and
    /// refunds its bytes. Returns the item.
    pub(crate) fn remove_item(&mut self, key: ItemKey) -> Option<Item> {
        let item = self.items.remove(&key)?;
        debug_assert!(
            item.children.is_empty(),
            "remove_item on non-leaf {key}; use remove_subtree"
        );
        if let Some(p) = item.meta.parent.and_then(|pk| self.items.get_mut(&pk)) {
            p.children.retain(|&c| c != key);
        }
        match item.data {
            ItemData::Node(_) => {
                self.node_items -= 1;
                self.index_bytes -= item.meta.size;
            }
            ItemData::Object(_) => self.object_bytes -= item.meta.size,
        }
        Some(item)
    }

    /// Removes an item and all cached descendants (the §5 constraint).
    fn remove_subtree(&mut self, key: ItemKey, count: &mut usize) -> u64 {
        let Some(item) = self.items.get(&key) else {
            return 0;
        };
        let children = item.children.clone();
        let mut bytes = 0;
        for c in children {
            bytes += self.remove_subtree(c, count);
        }
        *count += 1;
        bytes + self.remove_item(key).map_or(0, |it| it.meta.size)
    }

    // ------------------------------------------------------------------
    // Validation (test support)
    // ------------------------------------------------------------------

    /// Structural validation of every §5 invariant; used by tests and
    /// debug assertions.
    pub fn validate(&self) -> Result<(), String> {
        let (mut node_items, mut index_bytes, mut object_bytes) = (0, 0, 0);
        for (key, item) in &self.items {
            if let Some(pk) = item.meta.parent {
                let p = self
                    .items
                    .get(&pk)
                    .ok_or_else(|| format!("{key}: dangling parent {pk}"))?;
                if !p.children.contains(key) {
                    return Err(format!("{key}: parent {pk} does not list it"));
                }
                let listed = match &p.data {
                    ItemData::Node(v) => v.object_entries().any(|o| ItemKey::Object(o) == *key),
                    ItemData::Object(_) => false,
                };
                if matches!(key, ItemKey::Object(_)) && !listed {
                    return Err(format!("{key}: parent {pk}'s view does not list it"));
                }
            }
            for c in &item.children {
                let child = self
                    .items
                    .get(c)
                    .ok_or_else(|| format!("{key}: dangling child {c}"))?;
                if child.meta.parent != Some(*key) {
                    return Err(format!("{c}: wrong parent, expected {key}"));
                }
            }
            match (&item.data, key) {
                (ItemData::Node(v), ItemKey::Node(_)) => {
                    node_items += 1;
                    index_bytes += item.meta.size;
                    v.debug_validate().map_err(|e| format!("{key}: {e}"))?;
                    if item.meta.size != node_item_bytes(v) {
                        return Err(format!("{key}: stale size"));
                    }
                }
                (ItemData::Object(o), ItemKey::Object(id)) => {
                    object_bytes += item.meta.size;
                    if o.id != *id {
                        return Err(format!("{key}: object id mismatch"));
                    }
                }
                _ => return Err(format!("{key}: key/data kind mismatch")),
            }
        }
        let counted = (node_items, index_bytes, object_bytes);
        let kept = (self.node_items, self.index_bytes, self.object_bytes);
        if counted != kept {
            return Err(format!(
                "kept (nodes, index, object) {kept:?} != counted {counted:?}"
            ));
        }
        if self.used_bytes() > self.capacity {
            return Err(format!(
                "over capacity: {} > {}",
                self.used_bytes(),
                self.capacity
            ));
        }
        Ok(())
    }
}

/// `x` as an integer that orders exactly as `f64::total_cmp` orders `x`.
fn total_order(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// Byte footprint of a node item: its transmitted frontier plus a header —
/// what the paper charges the cache for index knowledge.
pub(crate) fn node_item_bytes(view: &CachedNodeView) -> u64 {
    SHIPMENT_HEADER_BYTES + view.frontier_len() as u64 * ENTRY_BYTES
}

#[cfg(test)]
mod tests;
