//! The R*-tree: page-oriented, with STR bulk loading for dataset
//! construction and full R* dynamic insertion (ChooseSubtree with the
//! overlap criterion, forced re-insert, R* split) for incremental use.

use crate::bpt::{BptBuilder, SplitPolicy};
use crate::engine::{Expansion, IndexView};
use crate::par;
use crate::proto::{CellRef, Side};
use crate::spares::Lent;
use crate::split::{key_bits, rstar_split, SplitScratch};
use crate::{ChildRef, Chunked, Entry, Node, NodeId, ObjectId, ObjectStore, Spares, SpatialObject};
use pc_geom::Rect;
use std::sync::Arc;

/// Fan-out configuration. The defaults mirror the paper's setup: R*-tree
/// with a 4 KB page capacity and 40-byte entries (32-byte MBR + 8-byte
/// pointer), i.e. a maximum fan-out of ~102 and the customary 40 % minimum
/// fill.
#[derive(Clone, Copy, Debug)]
pub struct RTreeConfig {
    pub max_entries: usize,
}

impl RTreeConfig {
    /// Paper-scale configuration (4 KB pages).
    pub fn paper() -> Self {
        RTreeConfig {
            max_entries: (crate::proto::PAGE_BYTES - crate::proto::NODE_HEADER_BYTES) as usize
                / crate::proto::ENTRY_BYTES as usize,
        }
    }

    /// Small fan-out for tests — forces deep trees on small datasets so the
    /// structural machinery (splits, re-inserts, BPTs) is exercised.
    pub fn small() -> Self {
        RTreeConfig { max_entries: 8 }
    }

    /// The minimum fill: R*'s 40 % of the maximum fan-out.
    pub fn min_entries(&self) -> usize {
        self.max_entries * 2 / 5
    }

    /// Entries removed by forced re-insert on the first overflow of a level
    /// (R* recommends 30 % of the maximum fan-out).
    pub fn reinsert_count(&self) -> usize {
        self.max_entries * 3 / 10
    }
}

impl Default for RTreeConfig {
    fn default() -> Self {
        RTreeConfig::paper()
    }
}

/// The objects a bulk load packs, by position. Random access: the packer
/// sorts positions and reads each object where it already lies, so a load
/// keeps nothing per object beside its 4-byte position.
pub trait Objects {
    fn count(&self) -> usize;
    fn object(&self, position: usize) -> SpatialObject;
}

impl Objects for &[SpatialObject] {
    fn count(&self) -> usize {
        self.len()
    }

    fn object(&self, position: usize) -> SpatialObject {
        self[position]
    }
}

impl Objects for &Vec<SpatialObject> {
    fn count(&self) -> usize {
        self.len()
    }

    fn object(&self, position: usize) -> SpatialObject {
        self[position]
    }
}

/// The objects of a store the ids name, in list order: a shard's
/// partition. The load owns the list and frees it with the leaf level
/// packed.
impl Objects for (&ObjectStore, Vec<ObjectId>) {
    fn count(&self) -> usize {
        self.1.len()
    }

    fn object(&self, position: usize) -> SpatialObject {
        self.0.get(self.1[position])
    }
}

/// Index statistics for the §6.4 size report.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TreeStats {
    pub node_count: usize,
    pub leaf_count: usize,
    pub height: u16,
    pub object_count: usize,
    /// Disk footprint at one page per node (the paper's 3.8 MB / 18.5 MB).
    pub index_bytes: u64,
}

/// A two-dimensional R*-tree over [`SpatialObject`]s, each node carrying
/// its binary partition tree ([`Node::bpt`]).
///
/// The node slab is a [`Chunked`] column of `Arc<Node>` slots, copied on
/// write twice over: a mutation after a clone copies the slot's segment
/// (at its length — nobody spares slot tables) and then the node it
/// touches, leaving everything else shared between the two trees. So an
/// epoch publish in `pc_server` costs O(batch · depth) node copies.
/// Every node copy has room for exactly `max_entries + 1` entries, the
/// most a node holds before it splits, so any retired node fits any copy:
/// a writer that [lends](RTree::with_spares) the tree its [`Spares`] has
/// each copy written into a node an earlier copy retired, once nothing
/// holds it any more — BPT column included.
///
/// Every node reachable between edits holds the BPT of its entries: a
/// copy whose entries do not change (a child re-parented by a split) keeps
/// the BPT it had, and an edit — [`insert`](RTree::insert),
/// [`delete`](RTree::delete), or a whole batch of them run through
/// [`with_spares`](RTree::with_spares) — rebuilds the BPT of every node
/// whose entries it changed before it returns.
#[derive(Clone, Debug)]
pub struct RTree {
    cfg: RTreeConfig,
    /// Node slots by [`NodeId`].
    slots: Chunked<Arc<Node>>,
    root: NodeId,
    /// Number of levels; the root sits at `height - 1`, leaves at 0.
    height: u16,
    object_count: usize,
    /// Nodes whose entry sets changed since the last [`RTree::take_dirty`]
    /// — the hook the update/invalidation subsystem builds on. Detached
    /// nodes are reported too (clients may still cache them).
    dirty: Vec<NodeId>,
    /// Nodes whose entry sets the running edit changed: their BPTs are
    /// stale until it ends.
    stale: Vec<NodeId>,
    /// Inside [`with_spares`](RTree::with_spares): the edit that ends
    /// there rebuilds the stale BPTs, not each insert or delete.
    batched: bool,
    spares: Lent<Node>,
}

impl RTree {
    /// An empty tree (a single empty leaf as root).
    pub fn new(cfg: RTreeConfig) -> Self {
        let mut tree = RTree::hollow(cfg);
        tree.push_node(Node::new(None, 0));
        tree.height = 1;
        tree
    }

    /// A tree with no nodes at all — internal staging for the builders.
    fn hollow(cfg: RTreeConfig) -> Self {
        RTree {
            cfg,
            slots: Chunked::default(),
            root: NodeId(0),
            height: 0,
            object_count: 0,
            dirty: Vec::new(),
            stale: Vec::new(),
            batched: false,
            spares: Lent::default(),
        }
    }

    /// Appends a node to the slab and returns its id.
    fn push_node(&mut self, node: Node) -> NodeId {
        let id = NodeId(self.slots.len() as u32);
        self.slots.push(Arc::new(node), None);
        id
    }

    /// Bulk loads with Sort-Tile-Recursive packing — the standard way to
    /// build a static R-tree over a full dataset — and builds every node's
    /// BPT ("a one-time operation", §4.2) with the R* split.
    ///
    /// Reads the objects in place ([`Objects`]: a slice, or a store's
    /// objects by id): entries are gathered from the objects themselves
    /// when their node is packed.
    ///
    /// # Panics
    /// Panics, naming the object, if an MBR coordinate is NaN.
    pub fn bulk_load(cfg: RTreeConfig, objects: impl Objects) -> Self {
        let n = objects.count();
        if n == 0 {
            return RTree::new(cfg);
        }
        let mut tree = RTree::hollow(cfg);
        tree.object_count = n;
        let mut level_nodes = tree.str_pack(n, 0, |_, i| {
            let object = objects.object(i);
            Entry {
                mbr: object.mbr,
                child: ChildRef::Object(object.id),
            }
        });
        // Nothing above the leaves reads the objects: a shard's id list
        // goes before the upper levels and the BPTs are built.
        drop(objects);
        let mut level = 0u16;

        while level_nodes.len() > 1 {
            level += 1;
            level_nodes = tree.str_pack(level_nodes.len(), level, |tree, i| Entry {
                mbr: tree
                    .node(level_nodes[i])
                    .mbr()
                    .expect("packed node non-empty"),
                child: ChildRef::Node(level_nodes[i]),
            });
        }

        tree.root = level_nodes[0];
        tree.height = level + 1;
        tree.rebuild_bpts(SplitPolicy::RStar);
        tree
    }

    /// Rebuilds every node's BPT with `policy` (bulk loading, and the
    /// split-policy ablation on a clone), on as many threads as the tree's
    /// size repays ([`par::worker_count`]).
    pub fn rebuild_bpts(&mut self, policy: SplitPolicy) {
        // Every object and every non-root node is one entry of some node.
        let workers = par::worker_count(self.object_count + self.slab_len());
        self.rebuild_bpts_on(policy, workers);
    }

    /// Nodes are independent, so the slab is cut into contiguous `NodeId`
    /// ranges built side by side and handed back in id order: every node
    /// gets the same BPT for every `workers`.
    pub(crate) fn rebuild_bpts_on(&mut self, policy: SplitPolicy, workers: usize) {
        let built = par::map_ranges(self.slab_len(), workers, |range| {
            let mut builder = BptBuilder::default();
            range
                .map(|i| builder.build(self.node(NodeId(i as u32)), policy))
                .collect()
        });
        for (i, bpt) in built.into_iter().enumerate() {
            self.copy_on_write(NodeId(i as u32), false).bpt = bpt;
        }
    }

    /// Packs the `n` entries `entry(self, 0..n)` into nodes of
    /// `cfg.max_entries` at `level`, returning the created node ids in tile
    /// order, and makes each new node the parent of the nodes it points at.
    ///
    /// STR: sort by centre x, cut into vertical slabs, sort each slab by
    /// centre y, cut into tiles. Both sorts are stable — ties (`clamp01`
    /// makes real ones at 0 and 1) keep their incoming order, and node
    /// ids, BPT shapes and shipped forms all follow from it. What is sorted
    /// is a `(`[`key_bits`]`, position)` pair per entry, never the 40-byte
    /// entries: the x pairs die once their order is read off, and the
    /// leaves are packed beside one 4-byte position per entry and one
    /// slab's y pairs.
    fn str_pack(
        &mut self,
        n: usize,
        level: u16,
        entry: impl Fn(&RTree, usize) -> Entry,
    ) -> Vec<NodeId> {
        assert!(n <= u32::MAX as usize, "entry positions are 32-bit");
        let cap = self.cfg.max_entries;
        let page_count = n.div_ceil(cap);
        let slab_count = (page_count as f64).sqrt().ceil() as usize;
        let slab_size = n.div_ceil(slab_count);

        let centre = |tree: &RTree, i: usize| {
            let e = entry(tree, i);
            let c = e.mbr.center();
            assert!(
                !c.x.is_nan() && !c.y.is_nan(),
                "bulk_load: entry {i} ({:?}) has a NaN MBR coordinate: {:?}",
                e.child,
                e.mbr
            );
            c
        };
        // A pair's second half is unique, so an unstable sort of the pairs
        // is the stable sort by key.
        let mut pairs: Vec<(u64, u32)> = (0..n)
            .map(|i| (key_bits(centre(self, i).x), i as u32))
            .collect();
        pairs.sort_unstable();
        // From `iter()`: an in-place collect would keep the pairs' buffer.
        let by_x: Vec<u32> = pairs.iter().map(|&(_, i)| i).collect();
        drop(pairs);

        let mut out = Vec::with_capacity(page_count);
        let mut by_y: Vec<(u64, u32)> = Vec::with_capacity(slab_size.min(n));
        for slab in by_x.chunks(slab_size.max(1)) {
            by_y.clear();
            by_y.extend(
                slab.iter()
                    .enumerate()
                    .map(|(rank, &i)| (key_bits(centre(self, i as usize).y), rank as u32)),
            );
            by_y.sort_unstable();
            for tile in by_y.chunks(cap) {
                let node = Node::with_entries(
                    None,
                    level,
                    tile.iter()
                        .map(|&(_, rank)| entry(self, slab[rank as usize] as usize)),
                );
                let id = self.push_node(node);
                for slot in 0..tile.len() {
                    if let ChildRef::Node(child) = self.node(id).child_at(slot) {
                        self.node_mut(child).parent = Some(id);
                    }
                }
                out.push(id);
            }
        }
        out
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        self.slots.get(id.0 as usize)
    }

    /// Checked [`node`](Self::node), for ids that arrive from outside the
    /// program: `None` past the slab.
    #[inline]
    pub fn try_node(&self, id: NodeId) -> Option<&Node> {
        self.slots.try_get(id.0 as usize).map(Arc::as_ref)
    }

    /// Mutable access to a node whose entries stay as they are (its parent
    /// pointer is what changes), copied with its BPT if shared.
    #[inline]
    fn node_mut(&mut self, id: NodeId) -> &mut Node {
        self.copy_on_write(id, true)
    }

    /// Mutable access to a node whose entries the caller changes: the node
    /// is dirty, and its BPT stale until the edit ends, so a copy leaves
    /// the BPT behind.
    #[inline]
    fn entries_mut(&mut self, id: NodeId) -> &mut Node {
        self.mark_dirty(id);
        self.copy_on_write(id, false)
    }

    /// One node slot made private, copying the segment and then the node
    /// when either is shared with a cloned tree (the copy-on-write seam:
    /// everything that edits a node funnels through here). Slot-level
    /// sharing inside a copied segment is preserved.
    #[inline]
    fn copy_on_write(&mut self, id: NodeId, keep_bpt: bool) -> &mut Node {
        let columns = self.cfg.max_entries + 1;
        let slot = self.slots.get_mut(id.0 as usize, None);
        self.spares
            .make_mut(slot, |node, copy| copy.copy_from(node, columns, keep_bpt))
    }

    /// Runs `edit` on this tree with `spares` lent to its copy-on-write
    /// seam: a node copy is written into a node an earlier copy retired
    /// once nothing holds it any more, and every node a copy replaces is
    /// retired into `spares`, which the tree hands back. `edit` is one
    /// edit: the inserts and deletes it makes leave their BPT rebuilds to
    /// its end, so a node they dirty again and again is rebuilt once.
    pub fn with_spares<R>(
        &mut self,
        spares: &mut Spares<Node>,
        edit: impl FnOnce(&mut RTree) -> R,
    ) -> R {
        self.batched = true;
        let out = Lent::lend(self, |tree| &mut tree.spares, spares, edit);
        self.batched = false;
        self.rebuild_stale_bpts();
        out
    }

    /// Number of slab slots (reachable nodes plus detached husks).
    pub fn slab_len(&self) -> usize {
        self.slots.len()
    }

    /// The node slab, read-only: its sharing diagnostics against another
    /// epoch's tree.
    pub fn slots(&self) -> &Chunked<Arc<Node>> {
        &self.slots
    }

    /// Heap bytes this tree keeps resident, by capacity: the slab and
    /// every node with its entry columns and BPT (shared ones included —
    /// each snapshot holding a node counts it).
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let nodes: usize = self
            .slots
            .iter()
            .map(|node| size_of::<Node>() + node.heap_bytes())
            .sum();
        let ids = self.dirty.capacity() + self.stale.capacity();
        self.slots.heap_bytes() + nodes + ids * size_of::<NodeId>()
    }

    /// Total auxiliary BPT bytes across all nodes — the §6.4 "4.2 MB for
    /// NE" figure; bounded by twice the R-tree size.
    pub fn bpt_aux_bytes(&self) -> u64 {
        self.slots.iter().map(|node| node.bpt().aux_bytes()).sum()
    }

    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// MBR of the whole tree (`None` when empty).
    pub fn root_mbr(&self) -> Option<Rect> {
        self.node(self.root).mbr()
    }

    #[inline]
    pub fn height(&self) -> u16 {
        self.height
    }

    #[inline]
    pub fn config(&self) -> &RTreeConfig {
        &self.cfg
    }

    pub fn object_count(&self) -> usize {
        self.object_count
    }

    /// All node ids currently in the slab (bulk-loaded trees have no holes;
    /// dynamically grown trees keep superseded slots but they are never
    /// referenced — this iterator only yields reachable nodes).
    pub fn node_ids(&self) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            out.push(id);
            let node = self.node(id);
            if !node.is_leaf() {
                stack.extend(node.child_ids().iter().map(|&c| NodeId(c)));
            }
        }
        out
    }

    pub fn stats(&self) -> TreeStats {
        let ids = self.node_ids();
        let leaf_count = ids.iter().filter(|&&id| self.node(id).is_leaf()).count();
        TreeStats {
            node_count: ids.len(),
            leaf_count,
            height: self.height,
            object_count: self.object_count,
            index_bytes: ids.len() as u64 * crate::proto::PAGE_BYTES,
        }
    }

    // ------------------------------------------------------------------
    // Change tracking (update/invalidation hook)
    // ------------------------------------------------------------------

    /// Records that `id`'s entry set changed: it is reported by
    /// [`take_dirty`](Self::take_dirty) and its BPT rebuilt when the
    /// running edit ends.
    #[inline]
    fn mark_dirty(&mut self, id: NodeId) {
        self.stale.push(id);
    }

    /// An edit's last step: rebuilds the BPT of every node it dirtied,
    /// each once, and hands them on to [`take_dirty`](Self::take_dirty).
    /// An insert or delete inside a batched edit leaves this to the edit.
    fn rebuild_stale_bpts(&mut self) {
        if self.batched {
            return;
        }
        let mut stale = std::mem::take(&mut self.stale);
        stale.sort_unstable();
        stale.dedup();
        self.rebuild_node_bpts(&stale);
        self.dirty.append(&mut stale);
        self.stale = stale;
    }

    /// Rebuilds the BPTs of the nodes `ids` names with the R* split, one
    /// after another on one builder, each into the column its node already
    /// has (copying a node a clone still shares first).
    pub fn rebuild_node_bpts(&mut self, ids: &[NodeId]) {
        let mut builder = BptBuilder::default();
        for &id in ids {
            builder.rebuild(self.copy_on_write(id, false), SplitPolicy::RStar);
        }
    }

    /// Drains the set of nodes whose entries changed since the last call
    /// (deduplicated, unordered). Bulk loading does not report dirt — the
    /// tree is brand new.
    pub fn take_dirty(&mut self) -> Vec<NodeId> {
        debug_assert!(self.stale.is_empty(), "taken between edits");
        let mut out = std::mem::take(&mut self.dirty);
        out.sort_unstable();
        out.dedup();
        out
    }

    // ------------------------------------------------------------------
    // R* dynamic insertion
    // ------------------------------------------------------------------

    /// Inserts one object (R* insertion with forced re-insert).
    pub fn insert(&mut self, obj: &SpatialObject) {
        let entry = Entry {
            mbr: obj.mbr,
            child: ChildRef::Object(obj.id),
        };
        // One forced re-insert per level per data insertion (R* rule).
        let mut reinserted = vec![false; self.height as usize + 1];
        self.insert_at_level(entry, 0, &mut reinserted);
        self.object_count += 1;
        self.rebuild_stale_bpts();
    }

    fn insert_at_level(&mut self, entry: Entry, level: u16, reinserted: &mut Vec<bool>) {
        let target = self.choose_subtree(&entry.mbr, level);
        if let ChildRef::Node(c) = entry.child {
            self.node_mut(c).parent = Some(target);
        }
        self.entries_mut(target).push(entry);
        self.adjust_upward(target);
        self.handle_overflow(target, reinserted);
    }

    /// Descends from the root to `target_level`, applying the R* criteria:
    /// minimal overlap enlargement when choosing among leaf children,
    /// minimal area enlargement otherwise.
    fn choose_subtree(&self, mbr: &Rect, target_level: u16) -> NodeId {
        let mut cur = self.root;
        while self.node(cur).level > target_level {
            let node = self.node(cur);
            let children_are_leaves = node.level == target_level + 1 && target_level == 0;
            let chosen = if children_are_leaves {
                self.choose_min_overlap(node, mbr)
            } else {
                self.choose_min_enlargement(node, mbr)
            };
            cur = chosen;
        }
        cur
    }

    fn choose_min_enlargement(&self, node: &Node, mbr: &Rect) -> NodeId {
        let mut best = (f64::INFINITY, f64::INFINITY, NodeId(u32::MAX));
        for e in node.entries() {
            let enl = e.mbr.enlargement(mbr);
            let area = e.mbr.area();
            if (enl, area) < (best.0, best.1) {
                if let ChildRef::Node(c) = e.child {
                    best = (enl, area, c);
                }
            }
        }
        best.2
    }

    /// R* "nearly minimum overlap": among the 32 entries with least area
    /// enlargement, pick the one whose overlap with its siblings grows
    /// least when absorbing `mbr`.
    fn choose_min_overlap(&self, node: &Node, mbr: &Rect) -> NodeId {
        const CANDIDATES: usize = 32;
        let mut idx: Vec<usize> = (0..node.len()).collect();
        if idx.len() > CANDIDATES {
            idx.sort_by(|&a, &b| {
                node.mbr_at(a)
                    .enlargement(mbr)
                    .partial_cmp(&node.mbr_at(b).enlargement(mbr))
                    .unwrap()
            });
            idx.truncate(CANDIDATES);
        }
        let mut best = (
            f64::INFINITY,
            f64::INFINITY,
            f64::INFINITY,
            NodeId(u32::MAX),
        );
        for &i in &idx {
            let cand = node.mbr_at(i);
            let grown = cand.union(mbr);
            let mut overlap_delta = 0.0;
            for j in 0..node.len() {
                if j == i {
                    continue;
                }
                let other = node.mbr_at(j);
                overlap_delta += grown.overlap_area(&other) - cand.overlap_area(&other);
            }
            let enl = cand.enlargement(mbr);
            let area = cand.area();
            if (overlap_delta, enl, area) < (best.0, best.1, best.2) {
                if let ChildRef::Node(c) = node.child_at(i) {
                    best = (overlap_delta, enl, area, c);
                }
            }
        }
        best.3
    }

    fn handle_overflow(&mut self, mut id: NodeId, reinserted: &mut Vec<bool>) {
        loop {
            if self.node(id).len() <= self.cfg.max_entries {
                return;
            }
            let level = self.node(id).level as usize;
            if level >= reinserted.len() {
                // The tree can grow mid-insertion (root splits during a
                // forced re-insert cascade); extend the per-level flags.
                reinserted.resize(level + 1, false);
            }
            let is_root = id == self.root;
            if !is_root && !reinserted[level] {
                reinserted[level] = true;
                self.forced_reinsert(id, reinserted);
                return; // re-insertion handled any cascading overflow
            }
            let parent = self.split_node(id);
            match parent {
                Some(p) => id = p,
                None => return, // split created a new root
            }
        }
    }

    /// Removes the `reinsert_count` entries farthest from the node's center
    /// and re-inserts them from the top (R* forced re-insert, far-first).
    fn forced_reinsert(&mut self, id: NodeId, reinserted: &mut Vec<bool>) {
        let center = self
            .node(id)
            .mbr()
            .expect("overflowing node non-empty")
            .center();
        let (reinsert_count, min_entries) = (self.cfg.reinsert_count(), self.cfg.min_entries());
        let node = self.entries_mut(id);
        let mut entries = node.take_entries();
        entries.sort_by(|a, b| {
            // Descending distance: farthest first at the front.
            b.mbr
                .center()
                .dist(&center)
                .partial_cmp(&a.mbr.center().dist(&center))
                .unwrap()
        });
        let count = reinsert_count.min(entries.len() - min_entries);
        let removed: Vec<Entry> = entries.drain(..count).collect();
        node.set_entries(entries);
        let level = node.level;
        self.adjust_upward(id);
        for e in removed {
            self.insert_at_level(e, level, reinserted);
        }
    }

    /// Splits an overflowing node; returns its parent (for cascade checks)
    /// or `None` when a new root was created.
    fn split_node(&mut self, id: NodeId) -> Option<NodeId> {
        let level = self.node(id).level;
        let entries = self.entries_mut(id).take_entries();
        let rects: Vec<Rect> = entries.iter().map(|e| e.mbr).collect();
        let mut scratch = SplitScratch::default();
        let (left_idx, right_idx) = rstar_split(&rects, self.cfg.min_entries(), &mut scratch);

        let left_entries: Vec<Entry> = left_idx.iter().map(|&i| entries[i]).collect();
        let right_entries: Vec<Entry> = right_idx.iter().map(|&i| entries[i]).collect();

        self.entries_mut(id).set_entries(left_entries);
        let sibling_node = Node::with_entries(self.node(id).parent, level, right_entries);
        let sibling = self.push_node(sibling_node);
        self.mark_dirty(sibling);
        // Children moved to the sibling need their parent pointer fixed;
        // their entries, and so their BPTs, stay as they are.
        if level > 0 {
            let moved = self.node(sibling).child_ids().to_vec();
            for c in moved {
                self.node_mut(NodeId(c)).parent = Some(sibling);
            }
        }

        let sibling_mbr = self.node(sibling).mbr().expect("split side non-empty");
        match self.node(id).parent {
            Some(p) => {
                self.refresh_parent_entry(id);
                self.entries_mut(p).push(Entry {
                    mbr: sibling_mbr,
                    child: ChildRef::Node(sibling),
                });
                self.adjust_upward(p);
                Some(p)
            }
            None => {
                // Root split: grow the tree by one level.
                let old_root_mbr = self.node(id).mbr().expect("split side non-empty");
                let new_root = self.push_node(Node::with_entries(
                    None,
                    level + 1,
                    [
                        Entry {
                            mbr: old_root_mbr,
                            child: ChildRef::Node(id),
                        },
                        Entry {
                            mbr: sibling_mbr,
                            child: ChildRef::Node(sibling),
                        },
                    ],
                ));
                self.node_mut(id).parent = Some(new_root);
                self.node_mut(sibling).parent = Some(new_root);
                self.root = new_root;
                self.height += 1;
                self.mark_dirty(new_root);
                None
            }
        }
    }

    // ------------------------------------------------------------------
    // Deletion (Guttman delete + condense)
    // ------------------------------------------------------------------

    /// Deletes one object entry; `mbr` guides the leaf search (it must be
    /// the MBR the object was inserted with). Returns `false` when the
    /// object is not in the tree.
    pub fn delete(&mut self, id: crate::ObjectId, mbr: &Rect) -> bool {
        let Some(leaf) = self.find_leaf(id, mbr) else {
            return false;
        };
        self.entries_mut(leaf)
            .retain_entries(|e| e.child != ChildRef::Object(id));
        self.object_count -= 1;
        self.condense(leaf);
        self.rebuild_stale_bpts();
        true
    }

    /// Locates the leaf holding `id`, descending only through entries whose
    /// MBR contains the object's. Iterative (explicit stack): like the
    /// query kernels, deletion must not recurse on pathological tree depth.
    fn find_leaf(&self, id: crate::ObjectId, mbr: &Rect) -> Option<NodeId> {
        let mut stack = vec![self.root];
        while let Some(cur) = stack.pop() {
            let n = self.node(cur);
            if n.is_leaf() {
                if n.child_ids().contains(&id.0) {
                    return Some(cur);
                }
                continue;
            }
            for e in n.entries() {
                if let ChildRef::Node(c) = e.child {
                    if e.mbr.contains_rect(mbr) {
                        stack.push(c);
                    }
                }
            }
        }
        None
    }

    /// Guttman's CondenseTree: walk up from a shrunken node, detach
    /// under-full nodes, re-insert their orphaned entries at their levels,
    /// and cut a single-child non-leaf root.
    fn condense(&mut self, mut id: NodeId) {
        let mut orphans: Vec<(Entry, u16)> = Vec::new();
        while let Some(parent) = self.node(id).parent {
            if self.node(id).len() < self.cfg.min_entries() {
                // Detach `id`: its parent loses the entry, its own entries
                // queue for re-insertion at their original level.
                let level = self.node(id).level;
                let entries = self.entries_mut(id).take_entries();
                orphans.extend(entries.into_iter().map(|e| (e, level)));
                self.entries_mut(parent)
                    .retain_entries(|e| e.child != ChildRef::Node(id));
                self.node_mut(id).parent = None;
            } else {
                self.refresh_parent_entry(id);
            }
            id = parent;
        }
        // Re-insert orphans (children first: higher level values last so
        // the tree height is stable while leaves go back in).
        orphans.sort_by_key(|&(_, level)| level);
        let mut reinserted = vec![false; self.height as usize + 1];
        for (entry, level) in orphans {
            self.insert_at_level(entry, level, &mut reinserted);
        }
        // Shrink the root while it is a single-child internal node.
        while self.node(self.root).level > 0 && self.node(self.root).len() == 1 {
            let old_root = self.root;
            let ChildRef::Node(child) = self.node(self.root).child_at(0) else {
                unreachable!("non-leaf root holds node entries")
            };
            self.node_mut(child).parent = None;
            self.root = child;
            self.height -= 1;
            self.entries_mut(old_root).clear_entries();
        }
    }

    /// Recomputes the MBR stored for `id` in its parent entry. Read-checks
    /// before taking the copy-on-write mutable path: an unchanged MBR must
    /// not copy a shared parent node (`adjust_upward` walks whole spines).
    fn refresh_parent_entry(&mut self, id: NodeId) {
        if let Some(p) = self.node(id).parent {
            let mbr = self.node(id).mbr().expect("child non-empty");
            let slot = self
                .node(p)
                .entries()
                .position(|e| e.child == ChildRef::Node(id) && e.mbr != mbr);
            let Some(slot) = slot else {
                return;
            };
            self.entries_mut(p).set_mbr_at(slot, mbr);
        }
    }

    /// Propagates MBR refreshes from `id` to the root.
    fn adjust_upward(&mut self, mut id: NodeId) {
        while let Some(p) = self.node(id).parent {
            self.refresh_parent_entry(id);
            id = p;
        }
    }

    // ------------------------------------------------------------------
    // Validation (test support)
    // ------------------------------------------------------------------

    /// Structural validation: entry MBRs cover children, levels are
    /// consistent, parent pointers are correct, fan-out bounds hold, and
    /// every object appears exactly once. `strict_fill` additionally checks
    /// the minimum fill (meaningful only for purely insert-built trees;
    /// STR packing may leave one under-full node per level).
    pub fn validate(&self, expected_objects: usize, strict_fill: bool) -> Result<(), String> {
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![(self.root, None::<Rect>)];
        let root_level = self.node(self.root).level;
        if root_level + 1 != self.height {
            return Err(format!(
                "height {} disagrees with root level {root_level}",
                self.height
            ));
        }
        if self.node(self.root).parent.is_some() {
            return Err("root has a parent".into());
        }
        while let Some((id, bound)) = stack.pop() {
            let node = self.node(id);
            if let Some(b) = bound {
                let mbr = node
                    .mbr()
                    .ok_or_else(|| format!("{id}: empty non-root node"))?;
                if b != mbr {
                    return Err(format!("{id}: parent entry MBR {b:?} != node MBR {mbr:?}"));
                }
            }
            if id != self.root {
                if node.len() > self.cfg.max_entries {
                    return Err(format!("{id}: overflowing node"));
                }
                if strict_fill && node.len() < self.cfg.min_entries() {
                    return Err(format!("{id}: under-filled node"));
                }
            }
            for e in node.entries() {
                match e.child {
                    ChildRef::Object(o) => {
                        if node.level != 0 {
                            return Err(format!("{id}: object entry in non-leaf"));
                        }
                        if !seen.insert(o) {
                            return Err(format!("object {o} appears twice"));
                        }
                    }
                    ChildRef::Node(c) => {
                        let child = self.node(c);
                        if child.level + 1 != node.level {
                            return Err(format!("{id} -> {c}: level mismatch"));
                        }
                        if child.parent != Some(id) {
                            return Err(format!("{c}: wrong parent pointer"));
                        }
                        stack.push((c, Some(e.mbr)));
                    }
                }
            }
        }
        if seen.len() != expected_objects {
            return Err(format!(
                "tree holds {} objects, expected {expected_objects}",
                seen.len()
            ));
        }
        Ok(())
    }

    /// A pathological single-entry chain of `depth` levels over one object
    /// — the adversarial input for the recursion-depth regression tests
    /// (the old recursive kernels overflowed the stack on it; the iterative
    /// ones must not). Structurally valid but wildly under-filled.
    #[cfg(test)]
    pub(crate) fn degenerate_chain(cfg: RTreeConfig, depth: u16) -> RTree {
        assert!(depth >= 1);
        let mbr = Rect::from_coords(0.25, 0.25, 0.25, 0.25);
        let mut tree = RTree::hollow(cfg);
        tree.object_count = 1;
        let mut prev = tree.push_node(Node::with_entries(
            None,
            0,
            [Entry {
                mbr,
                child: ChildRef::Object(crate::ObjectId(0)),
            }],
        ));
        for level in 1..depth {
            let id = tree.push_node(Node::with_entries(
                None,
                level,
                [Entry {
                    mbr,
                    child: ChildRef::Node(prev),
                }],
            ));
            tree.node_mut(prev).parent = Some(id);
            prev = id;
        }
        tree.root = prev;
        tree.height = depth;
        tree.rebuild_bpts_on(SplitPolicy::RStar, 1);
        tree
    }
}

/// The tree is the server's authoritative view: every cell of the index
/// expands; a reference to anything else is [`Expansion::Missing`].
impl IndexView for RTree {
    fn root_cell(&self) -> Option<(Rect, CellRef)> {
        self.root_mbr()
            .map(|mbr| (mbr, CellRef::node_root(self.root)))
    }

    fn expand(&self, cell: CellRef) -> Expansion {
        // Cells of a remainder heap come off the wire: a node id past the
        // slab is missing, never indexed. (A node's BPT has a leaf cell per
        // entry, so the lookups under a found node cannot miss.)
        let Some(node) = self.try_node(cell.node) else {
            return Expansion::Missing;
        };
        node.bpt().expand(cell, node, |entry_idx, mbr| {
            match node.child_at(entry_idx as usize) {
                ChildRef::Node(n) => Side::Cell {
                    cell: CellRef::node_root(n),
                    mbr,
                },
                // `cached: false`: the requester has not received it.
                ChildRef::Object(id) => Side::Obj {
                    id,
                    mbr,
                    cached: false,
                },
            }
        })
    }

    fn authoritative(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ObjectId;
    use pc_geom::Point;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_objects(n: usize, seed: u64) -> Vec<SpatialObject> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let x: f64 = rng.random_range(0.0..1.0);
                let y: f64 = rng.random_range(0.0..1.0);
                let w: f64 = rng.random_range(0.0..0.01);
                let h: f64 = rng.random_range(0.0..0.01);
                SpatialObject {
                    id: ObjectId(i as u32),
                    mbr: Rect::from_coords(x, y, (x + w).min(1.0), (y + h).min(1.0)),
                    size_bytes: 1000,
                }
            })
            .collect()
    }

    #[test]
    fn empty_tree_is_valid() {
        let tree = RTree::new(RTreeConfig::small());
        assert!(tree.validate(0, false).is_ok());
        assert_eq!(tree.height(), 1);
        assert_eq!(tree.root_mbr(), None);
    }

    #[test]
    fn bulk_load_structure_is_valid() {
        for n in [1usize, 7, 8, 9, 64, 65, 200, 777] {
            let objs = random_objects(n, 42 + n as u64);
            let tree = RTree::bulk_load(RTreeConfig::small(), &objs);
            tree.validate(n, false)
                .unwrap_or_else(|e| panic!("n={n}: {e}"));
        }
    }

    #[test]
    #[should_panic(expected = "entry 2 (Object(ObjectId(2))) has a NaN MBR coordinate")]
    fn bulk_load_names_the_entry_with_a_nan_mbr() {
        // An integer sort would order a NaN key silently; the comparator
        // this replaced died in `partial_cmp().unwrap()` without saying
        // where.
        let mut objs = random_objects(40, 9);
        objs[2].mbr = Rect::from_point(Point::new(0.5, f64::NAN));
        RTree::bulk_load(RTreeConfig::small(), &objs);
    }

    #[test]
    fn bulk_load_height_grows_logarithmically() {
        let objs = random_objects(512, 7);
        let tree = RTree::bulk_load(RTreeConfig::small(), &objs);
        // 512 objects, fan 8 => 64 leaves => 8 level-1 => 1 root: height 4... but
        // STR may produce slightly fewer tiles; assert a sane band instead.
        assert!(
            tree.height() >= 3 && tree.height() <= 5,
            "height {}",
            tree.height()
        );
    }

    #[test]
    fn dynamic_insert_structure_is_valid() {
        let objs = random_objects(300, 11);
        let mut tree = RTree::new(RTreeConfig::small());
        for (i, o) in objs.iter().enumerate() {
            tree.insert(o);
            if i % 50 == 49 {
                tree.validate(i + 1, true)
                    .unwrap_or_else(|e| panic!("after {} inserts: {e}", i + 1));
            }
        }
        tree.validate(300, true).unwrap();
        assert!(tree.height() > 1);
    }

    #[test]
    fn insert_identical_points_does_not_loop() {
        // Pathological input: many identical degenerate rectangles force
        // zero-area splits; the tree must still terminate and validate.
        let p = Point::new(0.5, 0.5);
        let mut tree = RTree::new(RTreeConfig::small());
        for i in 0..100u32 {
            tree.insert(&SpatialObject {
                id: ObjectId(i),
                mbr: Rect::from_point(p),
                size_bytes: 10,
            });
        }
        tree.validate(100, true).unwrap();
    }

    #[test]
    fn stats_reports_counts() {
        let objs = random_objects(100, 3);
        let tree = RTree::bulk_load(RTreeConfig::small(), &objs);
        let s = tree.stats();
        assert_eq!(s.object_count, 100);
        assert!(s.leaf_count >= 100 / 8);
        assert!(s.node_count > s.leaf_count);
        assert_eq!(s.height, tree.height());
        assert_eq!(
            s.index_bytes,
            s.node_count as u64 * crate::proto::PAGE_BYTES
        );
    }

    #[test]
    fn paper_config_has_plausible_fanout() {
        let cfg = RTreeConfig::paper();
        assert!(cfg.max_entries >= 90 && cfg.max_entries <= 110);
        assert!(cfg.min_entries() >= cfg.max_entries / 3);
        assert!(cfg.reinsert_count() < cfg.max_entries - cfg.min_entries());
    }

    #[test]
    fn node_ids_reach_every_node_once() {
        let objs = random_objects(150, 5);
        let tree = RTree::bulk_load(RTreeConfig::small(), &objs);
        let ids = tree.node_ids();
        let set: std::collections::HashSet<_> = ids.iter().collect();
        assert_eq!(set.len(), ids.len());
    }

    #[test]
    fn delete_removes_objects_and_keeps_structure() {
        let objs = random_objects(200, 21);
        let mut tree = RTree::bulk_load(RTreeConfig::small(), &objs);
        for (i, o) in objs.iter().enumerate().take(120) {
            assert!(tree.delete(o.id, &o.mbr), "object {i} must be found");
            if i % 20 == 19 {
                tree.validate(200 - i - 1, false)
                    .unwrap_or_else(|e| panic!("after {} deletes: {e}", i + 1));
            }
        }
        assert_eq!(tree.object_count(), 80);
        // Deleted objects are gone; survivors remain findable.
        let survivors = crate::query::range_query(&tree, &Rect::UNIT);
        assert_eq!(survivors.len(), 80);
        for o in &objs[..120] {
            assert!(!survivors.contains(&o.id));
        }
    }

    #[test]
    fn delete_missing_object_returns_false() {
        let objs = random_objects(50, 22);
        let mut tree = RTree::bulk_load(RTreeConfig::small(), &objs);
        assert!(!tree.delete(ObjectId(999), &Rect::from_point(Point::new(0.5, 0.5))));
        assert!(tree.delete(objs[0].id, &objs[0].mbr));
        assert!(!tree.delete(objs[0].id, &objs[0].mbr), "double delete");
        tree.validate(49, false).unwrap();
    }

    #[test]
    fn delete_everything_leaves_a_valid_empty_tree() {
        let objs = random_objects(90, 23);
        let mut tree = RTree::bulk_load(RTreeConfig::small(), &objs);
        for o in &objs {
            assert!(tree.delete(o.id, &o.mbr));
        }
        assert_eq!(tree.object_count(), 0);
        tree.validate(0, false).unwrap();
        assert!(crate::query::range_query(&tree, &Rect::UNIT).is_empty());
        // And the tree is reusable.
        tree.insert(&objs[0]);
        tree.validate(1, false).unwrap();
    }

    #[test]
    fn delete_shrinks_height_eventually() {
        let objs = random_objects(300, 24);
        let mut tree = RTree::bulk_load(RTreeConfig::small(), &objs);
        let h0 = tree.height();
        assert!(h0 >= 3);
        for o in &objs[..290] {
            tree.delete(o.id, &o.mbr);
        }
        tree.validate(10, false).unwrap();
        assert!(
            tree.height() < h0,
            "height should shrink after mass deletion"
        );
    }

    #[test]
    fn interleaved_insert_delete_stays_valid() {
        let objs = random_objects(400, 25);
        let mut tree = RTree::new(RTreeConfig::small());
        let mut live = std::collections::HashSet::new();
        let mut rng = SmallRng::seed_from_u64(26);
        for o in &objs {
            tree.insert(o);
            live.insert(o.id);
            if rng.random_bool(0.4) && live.len() > 5 {
                // Delete a random live object.
                let victim = *live.iter().next().unwrap();
                let vo = &objs[victim.0 as usize];
                assert!(tree.delete(vo.id, &vo.mbr));
                live.remove(&victim);
            }
        }
        tree.validate(live.len(), false).unwrap();
        let found = crate::query::range_query(&tree, &Rect::UNIT);
        assert_eq!(found.len(), live.len());
    }

    #[test]
    fn cloned_tree_shares_untouched_nodes() {
        // The copy-on-write contract: after a clone, a single insert must
        // copy only the touched spine (target leaf + refreshed ancestors +
        // any split fallout), leaving the bulk of the slab shared.
        let objs = random_objects(600, 31);
        let base = RTree::bulk_load(RTreeConfig::small(), &objs);
        let mut next = base.clone();
        assert_eq!(
            base.slots().shared_slots(next.slots()),
            base.slab_len(),
            "a fresh clone shares every slot"
        );
        next.insert(&SpatialObject {
            id: ObjectId(9000),
            mbr: Rect::from_point(Point::new(0.31, 0.62)),
            size_bytes: 10,
        });
        let shared = base.slots().shared_slots(next.slots());
        let copied = base.slab_len() - shared;
        assert!(copied >= 1, "the insert must have copied its leaf");
        assert!(
            copied <= 4 * next.height() as usize + 8,
            "one insert copied {copied} of {} nodes — CoW is not sharing",
            base.slab_len()
        );
        // Both trees stay independently valid.
        base.validate(600, false).unwrap();
        next.validate(601, false).unwrap();
        // A delete after the clone behaves the same way.
        let mut pruned = base.clone();
        assert!(pruned.delete(objs[0].id, &objs[0].mbr));
        let shared = base.slots().shared_slots(pruned.slots());
        assert!(base.slab_len() - shared <= 4 * base.height() as usize + 8);
        base.validate(600, false).unwrap();
        pruned.validate(599, false).unwrap();
    }

    #[test]
    fn cloned_tree_shares_untouched_chunks() {
        // Pointer-table sharing: with the slab spanning multiple 1024-slot
        // segments, an insert after a clone must copy only the segments the
        // touched spine lands in, leaving whole segments shared.
        let objs = random_objects(9000, 33);
        let base = RTree::bulk_load(RTreeConfig::small(), &objs);
        let chunks = base.slots().chunk_count();
        assert!(
            chunks >= 2,
            "need a multi-segment slab for this test (got {} nodes)",
            base.slab_len()
        );
        let mut next = base.clone();
        assert_eq!(
            base.slots().shared_chunks(next.slots()),
            chunks,
            "a fresh clone shares every segment"
        );
        next.insert(&SpatialObject {
            id: ObjectId(90000),
            mbr: Rect::from_point(Point::new(0.44, 0.17)),
            size_bytes: 10,
        });
        let shared_chunks = base.slots().shared_chunks(next.slots());
        let copied_slots = base.slab_len() - base.slots().shared_slots(next.slots());
        let copied_chunks = chunks - shared_chunks;
        assert!(
            copied_chunks >= 1 && copied_chunks <= copied_slots,
            "{copied_chunks} segments copied for {copied_slots} touched slots"
        );
        assert!(
            shared_chunks >= chunks.saturating_sub(copied_slots),
            "untouched segments must stay shared ({shared_chunks}/{chunks} shared)"
        );
        base.validate(9000, false).unwrap();
        next.validate(9001, false).unwrap();
    }

    #[test]
    fn degenerate_chain_is_structurally_valid() {
        let tree = RTree::degenerate_chain(RTreeConfig::small(), 500);
        assert_eq!(tree.height(), 500);
        tree.validate(1, false).unwrap();
    }

    #[test]
    fn dirty_tracking_reports_changed_nodes() {
        let objs = random_objects(120, 27);
        let mut tree = RTree::bulk_load(RTreeConfig::small(), &objs);
        assert!(tree.take_dirty().is_empty(), "bulk load reports no dirt");
        let extra = SpatialObject {
            id: ObjectId(500),
            mbr: Rect::from_point(Point::new(0.5, 0.5)),
            size_bytes: 10,
        };
        tree.insert(&extra);
        let dirty = tree.take_dirty();
        assert!(!dirty.is_empty(), "insert must dirty the target leaf");
        assert!(tree.take_dirty().is_empty(), "take drains");
        tree.delete(extra.id, &extra.mbr);
        assert!(!tree.take_dirty().is_empty(), "delete must dirty the leaf");
    }
}
