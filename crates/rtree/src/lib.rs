//! R*-tree index, binary partition trees (BPT), the generic spatial query
//! engine of the paper's §3.3, and the client↔server wire protocol.
//!
//! This crate is the substrate shared by the proactive-caching client, the
//! server, and both baselines:
//!
//! * [`RTree`] — a page-oriented R*-tree (Beckmann et al. \[2\]) with dynamic
//!   insertion (forced re-insert + R* split) and STR bulk loading.
//! * [`bpt`] — per-node **binary partition trees** (§4.2): an offline
//!   recursive R*-split of each node's entry set, giving every subset of
//!   entries a *super entry* addressed by `(NodeId, Code)`. Each [`Node`]
//!   carries its own.
//! * [`engine`] — the **generic query processor** (paper Algorithm 1): a
//!   best-first loop for range and kNN and a depth-first pair walk for the
//!   distance self-join (results emitted by pair distance), over any
//!   [`engine::IndexView`], handling *missing entries* and
//!   producing remainder queries. It is the only executor a served query
//!   runs: the server over its complete [`RTree`], the client over its
//!   cache — each index is its own view and hands the engine frontier
//!   [`proto::Side`]s in fixed arity ([`engine::Expansion`]).
//! * [`query`] / [`naive`] — the plain-tree reference (one iterative
//!   function per query kind) and the brute-force oracle the tests hold the
//!   engine against. They serve nothing.
//! * [`Chunked`] — the one copy-on-write column under the node slab and
//!   the [`ObjectStore`], and the [`Spares`] its copies reuse.
//! * [`par`] — the fork-join helper the offline builds (a bulk load's BPTs
//!   here, cluster shards in `pc_server`) share.
//! * [`proto`] — query specifications, serialized heap entries, remainder
//!   queries, server replies, and the byte-accounting rules used by every
//!   experiment metric.

pub mod bpt;
pub mod engine;
mod id_hash;
pub mod naive;
pub mod par;
pub mod proto;
pub mod query;
mod spares;
mod split;
mod tree;

#[cfg(test)]
mod proptests;
#[cfg(test)]
mod reference;

use bpt::Bpt;
use pc_geom::{Point, Rect};
use spares::Lent;

pub use id_hash::{IdHash, IdMap};
pub use spares::{Chunked, Spares, CHUNK_LEN};
pub use tree::{Objects, RTree, RTreeConfig, TreeStats};

/// Identifier of a data object. Objects are numbered densely from zero so
/// stores can be plain vectors.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId(pub u32);

impl std::fmt::Display for ObjectId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "o{}", self.0)
    }
}

/// Identifier of an R-tree node (slab index into [`RTree`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A spatial data object: an MBR plus a payload *size*.
///
/// Payload bytes are accounted but never materialized — every algorithm in
/// the paper operates on ids and MBRs only, while the channel model charges
/// `size_bytes` per transmission.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpatialObject {
    pub id: ObjectId,
    pub mbr: Rect,
    pub size_bytes: u32,
}

/// What an R-tree entry points at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChildRef {
    Node(NodeId),
    Object(ObjectId),
}

/// One `(MBR, pointer)` slot of an R-tree node.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Entry {
    pub mbr: Rect,
    pub child: ChildRef,
}

/// Whether `r` is a point: its min and max corners bit-equal, so a
/// `-0.0`/`0.0` pair is not one. What a [`Node`], an [`ObjectStore`] and a
/// client's node view store once instead of twice.
#[inline]
pub fn is_point(r: &Rect) -> bool {
    r.min.x.to_bits() == r.max.x.to_bits() && r.min.y.to_bits() == r.max.y.to_bits()
}

/// An R-tree node. `level == 0` means leaf (entries point at objects).
///
/// Entries are stored **struct-of-arrays**: the four MBR coordinates live in
/// parallel `f64` columns (`min_x`/`min_y`/`max_x`/`max_y`) beside a child
/// id column, instead of an array of [`Entry`] structs. The query hot
/// path (window qualification, `MINDIST` for kNN, rect-pair pruning for the
/// distance join) then scans contiguous same-type lanes the compiler can
/// keep in cache and autovectorize, rather than striding over 40-byte
/// records. [`Entry`] survives as a cheap by-value *view*: [`Node::entry`]
/// and the [`Node::entries`] iterator materialize one on demand, so
/// structural code (splits, condense, shipping forms) keeps its shape.
///
/// A point is stored once. While every entry's MBR is a point (min and max
/// corner bit-equal), the max columns stay empty and [`Node::mbr_cols`]
/// hands out the min columns twice; the first entry that is not a point
/// fills them in at the min columns' capacity, and a node whose last
/// non-point entry goes empties them again. So the max columns are always
/// empty or full length, and every reader sees the same bits either way.
/// The child column holds bare ids: a node's children are all one kind,
/// objects at a leaf and nodes above, so [`Node::child_at`] tells them
/// apart by `level`.
///
/// A node carries its own binary partition tree ([`Node::bpt`], §4.2),
/// built over exactly these columns. A node that leaves [`RTree`]'s hands
/// always holds the BPT of its current entries: a bulk load builds every
/// one, and an edit rebuilds the BPTs of the nodes it dirtied before it
/// returns. A node built here by hand holds an empty BPT.
#[derive(Clone, Debug, Default)]
pub struct Node {
    pub parent: Option<NodeId>,
    pub level: u16,
    min_x: Vec<f64>,
    min_y: Vec<f64>,
    max_x: Vec<f64>,
    max_y: Vec<f64>,
    children: Vec<u32>,
    bpt: Bpt,
}

impl Node {
    /// An empty node at `level` (entries arrive via [`Node::push`]).
    pub fn new(parent: Option<NodeId>, level: u16) -> Self {
        Node {
            parent,
            level,
            min_x: Vec::new(),
            min_y: Vec::new(),
            max_x: Vec::new(),
            max_y: Vec::new(),
            children: Vec::new(),
            bpt: Bpt::default(),
        }
    }

    /// A node populated from an entry sequence.
    pub fn with_entries(
        parent: Option<NodeId>,
        level: u16,
        entries: impl IntoIterator<Item = Entry>,
    ) -> Self {
        let entries = entries.into_iter();
        let mut node = Node::new(parent, level);
        // Exact-size sources (bulk-load tiles, split halves) get exact
        // columns instead of five doubling growths to the next power of two;
        // the max columns, if a rectangle needs them, follow the min ones.
        let expected = entries.size_hint().0;
        node.min_x.reserve_exact(expected);
        node.min_y.reserve_exact(expected);
        node.children.reserve_exact(expected);
        for e in entries {
            node.push(e);
        }
        node
    }

    /// Heap bytes the entry columns and the BPT's super-entry column hold
    /// (capacity, not length).
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.min_x.capacity()
            + self.min_y.capacity()
            + self.max_x.capacity()
            + self.max_y.capacity())
            * size_of::<f64>()
            + self.children.capacity() * size_of::<u32>()
            // The BPT's header is inline in the node; its column is not.
            + self.bpt.heap_bytes()
            - size_of::<Bpt>()
    }

    /// The binary partition tree over this node's entries (§4.2).
    #[inline]
    pub fn bpt(&self) -> &Bpt {
        &self.bpt
    }

    /// Overwrites this node with `src`, every column it uses holding room
    /// for exactly `columns` entries (or `src`'s, if more) and the max
    /// columns of a node of points none: a copy-on-write copy, into a
    /// retired node's columns or fresh ones. The BPT is copied only when
    /// `keep_bpt`; otherwise it is left as it was, for a rebuild to
    /// overwrite.
    pub(crate) fn copy_from(&mut self, src: &Node, columns: usize, keep_bpt: bool) {
        fn column<T: Copy>(into: &mut Vec<T>, src: &[T], columns: usize) {
            spares::clear_to(into, columns.max(src.len()));
            into.extend_from_slice(src);
        }
        let Node {
            parent,
            level,
            min_x,
            min_y,
            max_x,
            max_y,
            children,
            bpt,
        } = self;
        *parent = src.parent;
        *level = src.level;
        let max_columns = if src.is_aliased() { 0 } else { columns };
        column(min_x, &src.min_x, columns);
        column(min_y, &src.min_y, columns);
        column(max_x, &src.max_x, max_columns);
        column(max_y, &src.max_y, max_columns);
        column(children, &src.children, columns);
        if keep_bpt {
            bpt.copy_from(&src.bpt);
        }
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.children.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.children.is_empty()
    }

    /// Whether the max columns are empty: every entry's MBR is a point.
    #[inline]
    fn is_aliased(&self) -> bool {
        self.max_x.is_empty()
    }

    /// The entry at `i`, materialized by value from the columns.
    #[inline]
    pub fn entry(&self, i: usize) -> Entry {
        Entry {
            mbr: self.mbr_at(i),
            child: self.child_at(i),
        }
    }

    /// The MBR column values at `i`, re-assembled into a [`Rect`].
    #[inline]
    pub fn mbr_at(&self, i: usize) -> Rect {
        let (min_x, min_y, max_x, max_y) = self.mbr_cols();
        Rect::from_coords(min_x[i], min_y[i], max_x[i], max_y[i])
    }

    /// The child at `i`: an object at a leaf, a node above.
    #[inline]
    pub fn child_at(&self, i: usize) -> ChildRef {
        let id = self.children[i];
        if self.is_leaf() {
            ChildRef::Object(ObjectId(id))
        } else {
            ChildRef::Node(NodeId(id))
        }
    }

    /// The child id column: [`ObjectId`]s at a leaf, [`NodeId`]s above.
    #[inline]
    pub fn child_ids(&self) -> &[u32] {
        &self.children
    }

    /// The MBR columns `(min_x, min_y, max_x, max_y)` — the lanes the
    /// reference loops in [`crate::query`] scan directly. For a node of
    /// points the max lanes are the min lanes.
    #[inline]
    pub fn mbr_cols(&self) -> (&[f64], &[f64], &[f64], &[f64]) {
        if self.is_aliased() {
            (&self.min_x, &self.min_y, &self.min_x, &self.min_y)
        } else {
            (&self.min_x, &self.min_y, &self.max_x, &self.max_y)
        }
    }

    /// Iterates the entries as by-value [`Entry`] views.
    pub fn entries(&self) -> impl ExactSizeIterator<Item = Entry> + '_ {
        (0..self.len()).map(move |i| self.entry(i))
    }

    /// Fills in the max columns from the min ones, at their capacity: the
    /// first entry that is not a point has arrived.
    fn fill_max(&mut self) {
        for (max, min) in [
            (&mut self.max_x, &self.min_x),
            (&mut self.max_y, &self.min_y),
        ] {
            spares::clear_to(max, min.capacity());
            max.extend_from_slice(min);
        }
    }

    /// Empties the max columns (keeping their room) once no entry that is
    /// not a point is left.
    fn realias_if_points(&mut self) {
        let point = |i: usize| {
            self.min_x[i].to_bits() == self.max_x[i].to_bits()
                && self.min_y[i].to_bits() == self.max_y[i].to_bits()
        };
        if !self.is_aliased() && (0..self.len()).all(point) {
            self.max_x.clear();
            self.max_y.clear();
        }
    }

    /// Appends one entry (splitting across the columns).
    pub fn push(&mut self, e: Entry) {
        let id = match e.child {
            ChildRef::Object(o) => o.0,
            ChildRef::Node(n) => n.0,
        };
        debug_assert_eq!(
            matches!(e.child, ChildRef::Object(_)),
            self.is_leaf(),
            "a level-{} node takes {:?}",
            self.level,
            e.child
        );
        self.min_x.push(e.mbr.min.x);
        self.min_y.push(e.mbr.min.y);
        self.children.push(id);
        if self.is_aliased() {
            if is_point(&e.mbr) {
                return;
            }
            self.fill_max();
            let last = self.len() - 1;
            self.max_x[last] = e.mbr.max.x;
            self.max_y[last] = e.mbr.max.y;
        } else {
            self.max_x.push(e.mbr.max.x);
            self.max_y.push(e.mbr.max.y);
        }
    }

    /// Overwrites the MBR at `i`, keeping the child pointer.
    pub fn set_mbr_at(&mut self, i: usize, mbr: Rect) {
        self.min_x[i] = mbr.min.x;
        self.min_y[i] = mbr.min.y;
        if self.is_aliased() {
            if is_point(&mbr) {
                return;
            }
            self.fill_max();
        }
        self.max_x[i] = mbr.max.x;
        self.max_y[i] = mbr.max.y;
        if is_point(&mbr) {
            self.realias_if_points();
        }
    }

    /// Keeps only the entries `keep` accepts (in-place column compaction,
    /// preserving order — the SoA analogue of `Vec::retain`).
    pub fn retain_entries(&mut self, mut keep: impl FnMut(&Entry) -> bool) {
        let aliased = self.is_aliased();
        let mut w = 0;
        for i in 0..self.len() {
            if keep(&self.entry(i)) {
                if w != i {
                    self.min_x[w] = self.min_x[i];
                    self.min_y[w] = self.min_y[i];
                    if !aliased {
                        self.max_x[w] = self.max_x[i];
                        self.max_y[w] = self.max_y[i];
                    }
                    self.children[w] = self.children[i];
                }
                w += 1;
            }
        }
        self.truncate(w);
        self.realias_if_points();
    }

    fn truncate(&mut self, len: usize) {
        self.min_x.truncate(len);
        self.min_y.truncate(len);
        self.max_x.truncate(len);
        self.max_y.truncate(len);
        self.children.truncate(len);
    }

    /// Drains every entry out as a `Vec<Entry>` (split/condense staging:
    /// these paths shuffle whole entry sets, where AoS is the natural form).
    pub fn take_entries(&mut self) -> Vec<Entry> {
        let out: Vec<Entry> = self.entries().collect();
        self.clear_entries();
        out
    }

    /// Replaces the entry set wholesale.
    pub fn set_entries(&mut self, entries: impl IntoIterator<Item = Entry>) {
        self.clear_entries();
        for e in entries {
            self.push(e);
        }
    }

    pub fn clear_entries(&mut self) {
        self.truncate(0);
    }

    /// MBR covering all entries (`None` for an empty node, which only occurs
    /// transiently during splits). A single pass over the four columns.
    pub fn mbr(&self) -> Option<Rect> {
        if self.is_empty() {
            return None;
        }
        let (min_x, min_y, max_x, max_y) = self.mbr_cols();
        let (mut x0, mut y0, mut x1, mut y1) = (
            f64::INFINITY,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NEG_INFINITY,
        );
        for i in 0..self.len() {
            x0 = x0.min(min_x[i]);
            y0 = y0.min(min_y[i]);
            x1 = x1.max(max_x[i]);
            y1 = y1.max(max_y[i]);
        }
        Some(Rect::from_coords(x0, y0, x1, y1))
    }

    pub fn is_leaf(&self) -> bool {
        self.level == 0
    }
}

/// The retired store segments a writer keeps for its next copies, one pool
/// per element type: corner segments serve either corner column.
#[derive(Debug, Default)]
pub struct StoreSpares {
    corners: Spares<Vec<Point>>,
    sizes: Spares<Vec<u32>>,
}

/// The object store backing an [`RTree`]: objects by dense id, position
/// `i` holding object `ObjectId(i)`.
///
/// Storage is three [`Chunked`] columns — min corners, payload sizes and
/// max corners — and no id: an object is assembled by value from its
/// position. The max-corner column stays empty while every object is a
/// point, whose max corner is then its min corner bit for bit; the first
/// object that is not a point fills it in. Cloning a store clones only
/// the segment tables (and the liveness bitset), and a mutation
/// ([`push`](ObjectStore::push), [`set_mbr`](ObjectStore::set_mbr)) copies
/// just the segments it lands in. Snapshots in `pc_server` therefore
/// share all untouched segments across epochs instead of deep-cloning the
/// dataset per update batch. The store's columns are columns a writer
/// spares: a writer that [lends](ObjectStore::with_spares) it its
/// [`StoreSpares`] has each copy written into a segment an earlier copy
/// retired, once nothing holds that segment any more.
///
/// Deleted objects keep their slot (ids stay dense — the §7 update
/// extension tombstones them) but are flagged dead; the naive oracles and
/// liveness-aware callers skip them via [`is_live`](ObjectStore::is_live).
#[derive(Clone, Debug, Default)]
pub struct ObjectStore {
    mins: Chunked<Point>,
    sizes: Chunked<u32>,
    /// Empty while every object is a point; else one per object.
    maxes: Chunked<Point>,
    /// Tombstone bitset, one bit per slot (dense ids; dead = 1).
    dead: Vec<u64>,
    dead_count: usize,
    corner_spares: Lent<Vec<Point>>,
    size_spares: Lent<Vec<u32>>,
}

impl ObjectStore {
    /// Builds a store, checking the dense-id invariant.
    ///
    /// # Panics
    /// Panics if any object's id differs from its position.
    pub fn new(objects: Vec<SpatialObject>) -> Self {
        let mut store = ObjectStore::default();
        for (i, o) in objects.iter().enumerate() {
            assert_eq!(
                o.id.0 as usize, i,
                "ObjectStore requires dense ids (object at position {i} has id {})",
                o.id
            );
            store.push(o.mbr, o.size_bytes);
        }
        store
    }

    /// The object `id`, assembled from the columns.
    #[inline]
    pub fn get(&self, id: ObjectId) -> SpatialObject {
        let i = id.0 as usize;
        let min = *self.mins.get(i);
        let max = if self.maxes.is_empty() {
            min
        } else {
            *self.maxes.get(i)
        };
        SpatialObject {
            id,
            mbr: Rect { min, max },
            size_bytes: *self.sizes.get(i),
        }
    }

    /// Checked lookup: `None` for ids the store never assigned. The guard
    /// malformed update batches go through instead of panicking the writer.
    #[inline]
    pub fn try_get(&self, id: ObjectId) -> Option<SpatialObject> {
        if (id.0 as usize) < self.len() {
            Some(self.get(id))
        } else {
            None
        }
    }

    pub fn len(&self) -> usize {
        self.mins.len()
    }

    pub fn is_empty(&self) -> bool {
        self.mins.is_empty()
    }

    /// Every object, tombstoned ones included, in id order.
    pub fn iter(&self) -> impl Iterator<Item = SpatialObject> + '_ {
        let maxes = if self.maxes.is_empty() {
            &self.mins
        } else {
            &self.maxes
        };
        let corners = self.mins.iter().zip(maxes.iter());
        (0..)
            .zip(corners.zip(self.sizes.iter()))
            .map(|(i, ((&min, &max), &size_bytes))| SpatialObject {
                id: ObjectId(i),
                mbr: Rect { min, max },
                size_bytes,
            })
    }

    /// The min-corner column, read-only: its segment-sharing diagnostics
    /// against another epoch's store.
    pub fn mins(&self) -> &Chunked<Point> {
        &self.mins
    }

    /// The payload-size column, read-only (diagnostics, as [`mins`](Self::mins)).
    pub fn sizes(&self) -> &Chunked<u32> {
        &self.sizes
    }

    /// The max-corner column, read-only (diagnostics, as
    /// [`mins`](Self::mins)): empty while every object is a point.
    pub fn maxes(&self) -> &Chunked<Point> {
        &self.maxes
    }

    /// Objects that are still live (not tombstoned), in id order.
    pub fn iter_live(&self) -> impl Iterator<Item = SpatialObject> + '_ {
        self.iter().filter(|o| self.is_live(o.id))
    }

    /// Whether `id` is assigned and not tombstoned.
    #[inline]
    pub fn is_live(&self, id: ObjectId) -> bool {
        let i = id.0 as usize;
        i < self.len() && self.dead[i >> 6] & (1 << (i & 63)) == 0
    }

    /// Tombstones an object (§7 delete): the slot stays (dense ids) but
    /// liveness-aware readers skip it. No-op for unassigned ids.
    pub fn mark_dead(&mut self, id: ObjectId) {
        let i = id.0 as usize;
        if self.is_live(id) {
            self.dead[i >> 6] |= 1 << (i & 63);
            self.dead_count += 1;
        }
    }

    /// Number of live (non-tombstoned) objects.
    pub fn live_count(&self) -> usize {
        self.len() - self.dead_count
    }

    /// Total payload bytes across all objects (denominator of the paper's
    /// uniform-access byte hit rate formula in §4.1).
    pub fn total_bytes(&self) -> u64 {
        self.sizes.iter().map(|&s| s as u64).sum()
    }

    /// Appends a new object (dense ids: the next id is assigned). Used by
    /// the server-update extension.
    pub fn push(&mut self, mbr: Rect, size_bytes: u32) -> ObjectId {
        let id = ObjectId(self.len() as u32);
        let keep_max = !self.maxes.is_empty() || !is_point(&mbr);
        if keep_max && self.maxes.len() < self.mins.len() {
            // The first object that is not a point: fill in the max corners.
            self.maxes = self.mins.copy();
        }
        self.mins.push(mbr.min, Some(&mut self.corner_spares));
        self.sizes.push(size_bytes, Some(&mut self.size_spares));
        if keep_max {
            self.maxes.push(mbr.max, Some(&mut self.corner_spares));
        }
        if self.len() > self.dead.len() * 64 {
            self.dead.push(0);
        }
        id
    }

    /// Relocates an object (server-update extension). The index must be
    /// updated separately (delete + insert).
    pub fn set_mbr(&mut self, id: ObjectId, mbr: Rect) {
        let i = id.0 as usize;
        if self.maxes.is_empty() && !is_point(&mbr) {
            self.maxes = self.mins.copy();
        }
        *self.mins.get_mut(i, Some(&mut self.corner_spares)) = mbr.min;
        if !self.maxes.is_empty() {
            *self.maxes.get_mut(i, Some(&mut self.corner_spares)) = mbr.max;
        }
    }

    /// Runs `edit` on this store with `spares` lent to its copy-on-write
    /// seams: a segment copy is written into a segment an earlier copy
    /// retired once nothing holds it any more, and every segment a copy
    /// replaces is retired into `spares`, which the store hands back.
    pub fn with_spares<R>(
        &mut self,
        spares: &mut StoreSpares,
        edit: impl FnOnce(&mut ObjectStore) -> R,
    ) -> R {
        let StoreSpares { corners, sizes } = spares;
        Lent::lend(
            self,
            |store| &mut store.corner_spares,
            corners,
            |store| Lent::lend(store, |store| &mut store.size_spares, sizes, edit),
        )
    }

    /// Heap bytes this store keeps resident, by capacity: the three
    /// columns (shared segments included — each snapshot holding a segment
    /// counts it) and the tombstone bitset.
    pub fn heap_bytes(&self) -> usize {
        self.mins.heap_bytes()
            + self.sizes.heap_bytes()
            + self.maxes.heap_bytes()
            + self.dead.capacity() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod lib_tests {
    use super::*;
    use pc_geom::Point;

    #[test]
    fn object_store_dense_ids_ok() {
        let objs = (0..4)
            .map(|i| SpatialObject {
                id: ObjectId(i),
                mbr: Rect::from_point(Point::new(i as f64 * 0.1, 0.5)),
                size_bytes: 100 + i,
            })
            .collect();
        let store = ObjectStore::new(objs);
        assert_eq!(store.len(), 4);
        assert_eq!(store.get(ObjectId(2)).size_bytes, 102);
        assert_eq!(store.total_bytes(), 100 + 101 + 102 + 103);
    }

    #[test]
    #[should_panic(expected = "dense ids")]
    fn object_store_rejects_sparse_ids() {
        let objs = vec![SpatialObject {
            id: ObjectId(5),
            mbr: Rect::from_point(Point::ORIGIN),
            size_bytes: 1,
        }];
        ObjectStore::new(objs);
    }

    #[test]
    fn node_mbr_unions_entries() {
        let node = Node::with_entries(
            None,
            0,
            [
                Entry {
                    mbr: Rect::from_coords(0.0, 0.0, 0.2, 0.2),
                    child: ChildRef::Object(ObjectId(0)),
                },
                Entry {
                    mbr: Rect::from_coords(0.5, 0.5, 0.9, 0.6),
                    child: ChildRef::Object(ObjectId(1)),
                },
            ],
        );
        assert_eq!(node.mbr().unwrap(), Rect::from_coords(0.0, 0.0, 0.9, 0.6));
        assert!(node.is_leaf());
    }

    #[test]
    fn node_soa_columns_round_trip_entries() {
        let entries = [
            Entry {
                mbr: Rect::from_coords(0.1, 0.2, 0.3, 0.4),
                child: ChildRef::Node(NodeId(7)),
            },
            Entry {
                mbr: Rect::from_coords(0.5, 0.6, 0.7, 0.8),
                child: ChildRef::Node(NodeId(9)),
            },
        ];
        let mut node = Node::with_entries(Some(NodeId(3)), 2, entries);
        assert_eq!(node.len(), 2);
        assert_eq!(node.entry(0), entries[0]);
        assert_eq!(node.entry(1), entries[1]);
        let collected: Vec<Entry> = node.entries().collect();
        assert_eq!(collected, entries);
        let (min_x, min_y, max_x, max_y) = node.mbr_cols();
        assert_eq!(
            (min_x[1], min_y[1], max_x[1], max_y[1]),
            (0.5, 0.6, 0.7, 0.8)
        );
        assert_eq!(node.child_ids(), &[7, 9]);

        node.set_mbr_at(0, Rect::from_coords(0.0, 0.0, 0.05, 0.05));
        assert_eq!(node.mbr_at(0), Rect::from_coords(0.0, 0.0, 0.05, 0.05));
        node.retain_entries(|e| e.child == ChildRef::Node(NodeId(9)));
        assert_eq!(node.len(), 1);
        assert_eq!(node.entry(0), entries[1]);
        let taken = node.take_entries();
        assert_eq!(taken, vec![entries[1]]);
        assert!(node.is_empty());
        node.set_entries(taken);
        assert_eq!(node.len(), 1);
    }

    #[test]
    fn a_leaf_of_points_keeps_one_corner() {
        let point = |i: u32| Entry {
            mbr: Rect::from_point(Point::new(i as f64 / 8.0, 0.5)),
            child: ChildRef::Object(ObjectId(i)),
        };
        let mut leaf = Node::with_entries(None, 0, (0..4).map(point));
        assert_eq!(leaf.heap_bytes(), 4 * (8 + 8 + 4));
        let (min_x, min_y, max_x, max_y) = leaf.mbr_cols();
        assert_eq!((min_x, min_y), (max_x, max_y));
        assert_eq!(leaf.child_at(2), ChildRef::Object(ObjectId(2)));

        // A rectangle fills in the max columns at the min columns' room.
        leaf.set_mbr_at(1, Rect::from_coords(0.1, 0.1, 0.2, 0.2));
        assert_eq!(leaf.heap_bytes(), 4 * (4 * 8 + 4));
        assert_eq!(leaf.mbr_at(1), Rect::from_coords(0.1, 0.1, 0.2, 0.2));
        assert_eq!(leaf.entry(3), point(3));
        // And its going back to a point empties them.
        leaf.set_mbr_at(1, Rect::from_point(Point::new(0.3, 0.3)));
        let (_, _, max_x, _) = leaf.mbr_cols();
        assert!(std::ptr::eq(max_x, leaf.mbr_cols().0));
    }

    #[test]
    fn a_store_of_points_keeps_one_corner() {
        let mut store = ObjectStore::default();
        for i in 0..3 {
            store.push(Rect::from_point(Point::new(i as f64 / 4.0, 0.5)), 10 + i);
        }
        assert!(store.maxes().is_empty());
        let o = store.get(ObjectId(1));
        assert_eq!(
            (o.id, o.mbr.max, o.size_bytes),
            (ObjectId(1), Point::new(0.25, 0.5), 11)
        );
        let rect = Rect::from_coords(0.1, 0.1, 0.2, 0.3);
        store.set_mbr(ObjectId(2), rect);
        assert_eq!(store.maxes().len(), 3);
        assert_eq!(store.get(ObjectId(2)).mbr, rect);
        assert_eq!(
            store.get(ObjectId(0)).mbr,
            Rect::from_point(Point::new(0.0, 0.5))
        );
        assert_eq!(store.try_get(ObjectId(3)), None);
    }
}
