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
//!   entries a *super entry* addressed by `(NodeId, Code)`.
//! * [`engine`] — the **generic query processor** (paper Algorithm 1): one
//!   best-first loop that evaluates range, kNN and distance self-join
//!   queries over any [`engine::IndexView`], handling *missing entries* and
//!   producing remainder queries. It is the only executor a served query
//!   runs: the server over a complete view ([`view::FullView`]), the client
//!   over its cache; views hand it frontier [`proto::Side`]s in fixed arity
//!   ([`engine::Expansion`]).
//! * [`query`] / [`naive`] — the plain-tree reference (one iterative
//!   function per query kind) and the brute-force oracle the tests hold the
//!   engine against. They serve nothing.
//! * [`par`] — the fork-join helper the offline builds (BPT store here,
//!   cluster shards in `pc_server`) share.
//! * [`proto`] — query specifications, serialized heap entries, remainder
//!   queries, server replies, and the byte-accounting rules used by every
//!   experiment metric.

pub mod bpt;
pub mod engine;
pub mod naive;
pub mod par;
pub mod proto;
pub mod query;
mod spares;
mod split;
mod tree;
pub mod view;

#[cfg(test)]
mod proptests;
#[cfg(test)]
mod reference;

use pc_geom::Rect;
use spares::Lent;
use std::sync::Arc;

pub use spares::Spares;
pub use tree::{RTree, RTreeConfig, TreeStats, NODE_CHUNK_LEN};

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

/// An R-tree node. `level == 0` means leaf (entries point at objects).
///
/// Entries are stored **struct-of-arrays**: the four MBR coordinates live in
/// parallel `f64` columns (`min_x`/`min_y`/`max_x`/`max_y`) beside a child
/// pointer column, instead of an array of [`Entry`] structs. The query hot
/// path (window qualification, `MINDIST` for kNN, rect-pair pruning for the
/// distance join) then scans contiguous same-type lanes the compiler can
/// keep in cache and autovectorize, rather than striding over 40-byte
/// records. [`Entry`] survives as a cheap by-value *view*: [`Node::entry`]
/// and the [`Node::entries`] iterator materialize one on demand, so
/// structural code (splits, condense, shipping forms) keeps its shape.
#[derive(Clone, Debug, Default)]
pub struct Node {
    pub parent: Option<NodeId>,
    pub level: u16,
    min_x: Vec<f64>,
    min_y: Vec<f64>,
    max_x: Vec<f64>,
    max_y: Vec<f64>,
    children: Vec<ChildRef>,
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
        // columns instead of five doubling growths to the next power of two.
        let expected = entries.size_hint().0;
        node.min_x.reserve_exact(expected);
        node.min_y.reserve_exact(expected);
        node.max_x.reserve_exact(expected);
        node.max_y.reserve_exact(expected);
        node.children.reserve_exact(expected);
        for e in entries {
            node.push(e);
        }
        node
    }

    /// Heap bytes the entry columns hold (capacity, not length).
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.min_x.capacity()
            + self.min_y.capacity()
            + self.max_x.capacity()
            + self.max_y.capacity())
            * size_of::<f64>()
            + self.children.capacity() * size_of::<ChildRef>()
    }

    /// Overwrites this node with `src`, every column holding room for
    /// exactly `columns` entries (or `src`'s, if more): a copy-on-write
    /// copy, into a retired node's columns or fresh ones.
    pub(crate) fn copy_from(&mut self, src: &Node, columns: usize) {
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
        } = self;
        *parent = src.parent;
        *level = src.level;
        column(min_x, &src.min_x, columns);
        column(min_y, &src.min_y, columns);
        column(max_x, &src.max_x, columns);
        column(max_y, &src.max_y, columns);
        column(children, &src.children, columns);
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

    /// The entry at `i`, materialized by value from the columns.
    #[inline]
    pub fn entry(&self, i: usize) -> Entry {
        Entry {
            mbr: self.mbr_at(i),
            child: self.children[i],
        }
    }

    /// The MBR column values at `i`, re-assembled into a [`Rect`].
    #[inline]
    pub fn mbr_at(&self, i: usize) -> Rect {
        Rect::from_coords(self.min_x[i], self.min_y[i], self.max_x[i], self.max_y[i])
    }

    #[inline]
    pub fn child_at(&self, i: usize) -> ChildRef {
        self.children[i]
    }

    /// The child pointer column.
    #[inline]
    pub fn children(&self) -> &[ChildRef] {
        &self.children
    }

    /// The raw MBR columns `(min_x, min_y, max_x, max_y)` — the lanes the
    /// reference loops in [`crate::query`] scan directly.
    #[inline]
    pub fn mbr_cols(&self) -> (&[f64], &[f64], &[f64], &[f64]) {
        (&self.min_x, &self.min_y, &self.max_x, &self.max_y)
    }

    /// Iterates the entries as by-value [`Entry`] views.
    pub fn entries(&self) -> impl ExactSizeIterator<Item = Entry> + '_ {
        (0..self.len()).map(move |i| self.entry(i))
    }

    /// Appends one entry (splitting across the columns).
    pub fn push(&mut self, e: Entry) {
        self.min_x.push(e.mbr.min.x);
        self.min_y.push(e.mbr.min.y);
        self.max_x.push(e.mbr.max.x);
        self.max_y.push(e.mbr.max.y);
        self.children.push(e.child);
    }

    /// Overwrites the MBR at `i`, keeping the child pointer.
    pub fn set_mbr_at(&mut self, i: usize, mbr: Rect) {
        self.min_x[i] = mbr.min.x;
        self.min_y[i] = mbr.min.y;
        self.max_x[i] = mbr.max.x;
        self.max_y[i] = mbr.max.y;
    }

    /// Keeps only the entries `keep` accepts (in-place column compaction,
    /// preserving order — the SoA analogue of `Vec::retain`).
    pub fn retain_entries(&mut self, mut keep: impl FnMut(&Entry) -> bool) {
        let mut w = 0;
        for i in 0..self.children.len() {
            if keep(&self.entry(i)) {
                if w != i {
                    self.min_x[w] = self.min_x[i];
                    self.min_y[w] = self.min_y[i];
                    self.max_x[w] = self.max_x[i];
                    self.max_y[w] = self.max_y[i];
                    self.children[w] = self.children[i];
                }
                w += 1;
            }
        }
        self.truncate(w);
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
        if self.children.is_empty() {
            return None;
        }
        let (mut x0, mut y0, mut x1, mut y1) = (
            f64::INFINITY,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NEG_INFINITY,
        );
        for i in 0..self.children.len() {
            x0 = x0.min(self.min_x[i]);
            y0 = y0.min(self.min_y[i]);
            x1 = x1.max(self.max_x[i]);
            y1 = y1.max(self.max_y[i]);
        }
        Some(Rect::from_coords(x0, y0, x1, y1))
    }

    pub fn is_leaf(&self) -> bool {
        self.level == 0
    }
}

/// Objects per store segment (power of two so indexing is a shift+mask).
const STORE_CHUNK_SHIFT: u32 = 10;
/// Segment capacity derived from the shift.
pub const STORE_CHUNK_LEN: usize = 1 << STORE_CHUNK_SHIFT;

/// The object store backing an [`RTree`]. Object ids must equal their
/// logical index; [`ObjectStore::new`] enforces this.
///
/// Storage is chunked into `Arc`-shared segments of [`STORE_CHUNK_LEN`]
/// objects: cloning a store clones only the segment pointer table (and the
/// liveness bitset), and a mutation ([`push`](ObjectStore::push),
/// [`set_mbr`](ObjectStore::set_mbr)) copies just the one segment it lands
/// in. Snapshots in `pc_server` therefore share all untouched segments
/// across epochs instead of deep-cloning the dataset per update batch. A
/// writer that [lends](ObjectStore::with_spares) the store its [`Spares`]
/// has each copy written into a segment an earlier copy retired, once
/// nothing holds that segment any more.
///
/// Deleted objects keep their slot (ids stay dense — the §7 update
/// extension tombstones them) but are flagged dead; the naive oracles and
/// liveness-aware callers skip them via [`is_live`](ObjectStore::is_live).
#[derive(Clone, Debug, Default)]
pub struct ObjectStore {
    chunks: Vec<Arc<Vec<SpatialObject>>>,
    len: usize,
    /// Tombstone bitset, one bit per slot (dense ids; dead = 1).
    dead: Vec<u64>,
    dead_count: usize,
    spares: Lent<Vec<SpatialObject>>,
}

impl ObjectStore {
    /// Builds a store, checking the dense-id invariant.
    ///
    /// # Panics
    /// Panics if any object's id differs from its position.
    pub fn new(objects: Vec<SpatialObject>) -> Self {
        for (i, o) in objects.iter().enumerate() {
            assert_eq!(
                o.id.0 as usize, i,
                "ObjectStore requires dense ids (object at position {i} has id {})",
                o.id
            );
        }
        let len = objects.len();
        // (`split_off` in a loop would leave segment k owning the capacity
        // of the whole remaining tail — Σ ≈ n²/2048 slots of written,
        // never-freed pages.)
        let chunks = objects.chunks(STORE_CHUNK_LEN).map(Self::segment).collect();
        ObjectStore {
            chunks,
            len,
            dead: vec![0; len.div_ceil(64)],
            dead_count: 0,
            spares: Lent::default(),
        }
    }

    #[inline]
    pub fn get(&self, id: ObjectId) -> &SpatialObject {
        let i = id.0 as usize;
        &self.chunks[i >> STORE_CHUNK_SHIFT][i & (STORE_CHUNK_LEN - 1)]
    }

    /// Checked lookup: `None` for ids the store never assigned. The guard
    /// malformed update batches go through instead of panicking the writer.
    #[inline]
    pub fn try_get(&self, id: ObjectId) -> Option<&SpatialObject> {
        ((id.0 as usize) < self.len).then(|| self.get(id))
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn iter(&self) -> impl Iterator<Item = &SpatialObject> {
        self.chunks.iter().flat_map(|c| c.iter())
    }

    /// Objects that are still live (not tombstoned), in id order.
    pub fn iter_live(&self) -> impl Iterator<Item = &SpatialObject> {
        self.iter().filter(|o| self.is_live(o.id))
    }

    /// Whether `id` is assigned and not tombstoned.
    #[inline]
    pub fn is_live(&self, id: ObjectId) -> bool {
        let i = id.0 as usize;
        i < self.len && self.dead[i >> 6] & (1 << (i & 63)) == 0
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
        self.len - self.dead_count
    }

    /// Total payload bytes across all objects (denominator of the paper's
    /// uniform-access byte hit rate formula in §4.1).
    pub fn total_bytes(&self) -> u64 {
        self.iter().map(|o| o.size_bytes as u64).sum()
    }

    /// Appends a new object (dense ids: the next id is assigned). Used by
    /// the server-update extension.
    pub fn push(&mut self, mbr: Rect, size_bytes: u32) -> ObjectId {
        let id = ObjectId(self.len as u32);
        if self.len.is_multiple_of(STORE_CHUNK_LEN) {
            self.chunks.push(Self::segment(&[]));
        }
        let last = self.chunks.last_mut().expect("chunk just ensured");
        Self::chunk_mut(&mut self.spares, last).push(SpatialObject {
            id,
            mbr,
            size_bytes,
        });
        self.len += 1;
        if self.len > self.dead.len() * 64 {
            self.dead.push(0);
        }
        id
    }

    /// Relocates an object (server-update extension). The index must be
    /// updated separately (delete + insert).
    pub fn set_mbr(&mut self, id: ObjectId, mbr: Rect) {
        let i = id.0 as usize;
        let chunk = &mut self.chunks[i >> STORE_CHUNK_SHIFT];
        Self::chunk_mut(&mut self.spares, chunk)[i & (STORE_CHUNK_LEN - 1)].mbr = mbr;
    }

    /// Runs `edit` on this store with `spares` lent to its copy-on-write
    /// seam: a segment copy is written into a segment an earlier copy
    /// retired once nothing holds it any more, and every segment a copy
    /// replaces is retired into `spares`, which the store hands back.
    pub fn with_spares<R>(
        &mut self,
        spares: &mut Spares<Vec<SpatialObject>>,
        edit: impl FnOnce(&mut ObjectStore) -> R,
    ) -> R {
        Lent::lend(self, |store| &mut store.spares, spares, edit)
    }

    /// A segment holding `objects`: always one [`STORE_CHUNK_LEN`]
    /// allocation, so a partial segment never reallocates under `push` and
    /// Σ capacity stays within one segment of the store's length.
    fn segment(objects: &[SpatialObject]) -> Arc<Vec<SpatialObject>> {
        let mut segment = Vec::with_capacity(STORE_CHUNK_LEN);
        segment.extend_from_slice(objects);
        Arc::new(segment)
    }

    /// The copy-on-write seam: unshares `chunk` if a cloned store still
    /// holds it, into a segment of the same one size — reused or fresh.
    /// (`Arc::make_mut` would size the copy to its length, and the next
    /// `push` would then double it past a segment.)
    fn chunk_mut<'c>(
        spares: &mut Lent<Vec<SpatialObject>>,
        chunk: &'c mut Arc<Vec<SpatialObject>>,
    ) -> &'c mut Vec<SpatialObject> {
        spares.make_mut(chunk, |objects, copy| {
            spares::clear_to(copy, STORE_CHUNK_LEN);
            copy.extend_from_slice(objects);
        })
    }

    /// How many segments `self` physically shares with `other` (same `Arc`
    /// at the same position) — the structural-sharing diagnostic mirroring
    /// [`RTree::shared_node_slots`].
    pub fn shared_chunks(&self, other: &ObjectStore) -> usize {
        self.chunks
            .iter()
            .zip(&other.chunks)
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count()
    }

    /// Number of storage segments (denominator for
    /// [`shared_chunks`](ObjectStore::shared_chunks)).
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Heap bytes this store keeps resident, by capacity: the segment
    /// table, every segment (shared ones included — each snapshot holding
    /// a segment counts it) and the tombstone bitset.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let segments: usize = self.chunks.iter().map(|c| c.capacity()).sum();
        self.chunks.capacity() * size_of::<Arc<Vec<SpatialObject>>>()
            + segments * size_of::<SpatialObject>()
            + self.dead.capacity() * size_of::<u64>()
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

    /// Every segment holds at most one segment's worth of capacity, and
    /// the store as a whole at most one partial segment of slack.
    fn assert_linear_capacity(store: &ObjectStore) {
        let caps: Vec<usize> = store.chunks.iter().map(|c| c.capacity()).collect();
        assert!(
            caps.iter().all(|&c| c <= STORE_CHUNK_LEN),
            "segment over-allocated at len {}: {caps:?}",
            store.len()
        );
        assert!(caps.iter().sum::<usize>() <= store.len() + STORE_CHUNK_LEN);
        assert!(store.heap_bytes() >= store.len() * std::mem::size_of::<SpatialObject>());
    }

    #[test]
    fn object_store_capacity_is_linear_in_its_length() {
        for n in [0usize, 1, 1023, 1024, 1025, 123_593] {
            let objs: Vec<SpatialObject> = (0..n)
                .map(|i| SpatialObject {
                    id: ObjectId(i as u32),
                    mbr: Rect::from_point(Point::new(i as f64 / n as f64, 0.5)),
                    size_bytes: i as u32,
                })
                .collect();
            let mut store = ObjectStore::new(objs);
            assert_eq!(store.len(), n);
            assert_eq!(store.chunk_count(), n.div_ceil(STORE_CHUNK_LEN));
            assert!(store.iter().map(|o| o.id.0 as usize).eq(0..n));
            assert_linear_capacity(&store);

            // Copy-on-write copies obey the same bound: grow, relocate and
            // tombstone on a clone while the original pins every segment.
            let base = store.clone();
            for _ in 0..3_000 {
                store.push(Rect::UNIT, 1);
            }
            assert_linear_capacity(&store);
            for id in [0, n + 1_500, n + 2_999].map(|i| ObjectId(i as u32)) {
                store.set_mbr(id, Rect::UNIT);
                store.mark_dead(id);
            }
            assert_linear_capacity(&store);
            assert!(store.iter().map(|o| o.id.0 as usize).eq(0..n + 3_000));
            assert_eq!(store.live_count(), n + 2_997);
            assert_eq!(base.len(), n);
            assert_linear_capacity(&base);
        }
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
                child: ChildRef::Object(ObjectId(9)),
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
        assert_eq!(node.children(), &[entries[0].child, entries[1].child]);

        node.set_mbr_at(0, Rect::from_coords(0.0, 0.0, 0.05, 0.05));
        assert_eq!(node.mbr_at(0), Rect::from_coords(0.0, 0.0, 0.05, 0.05));
        node.retain_entries(|e| matches!(e.child, ChildRef::Object(_)));
        assert_eq!(node.len(), 1);
        assert_eq!(node.entry(0), entries[1]);
        let taken = node.take_entries();
        assert_eq!(taken, vec![entries[1]]);
        assert!(node.is_empty());
        node.set_entries(taken);
        assert_eq!(node.len(), 1);
    }
}
