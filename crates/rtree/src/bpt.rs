//! Binary partition trees (§4.2): every R-tree node gets an offline binary
//! tree over its entries, built by recursively applying the R* split so the
//! two subsets overlap minimally. Interior BPT cells are the paper's
//! **super entries**, addressed `(n, code)` where `code` concatenates the
//! 0/1 branch digits from the BPT root.
//!
//! Compact forms, d⁺-level forms and the adaptive scheme all operate on
//! these cells; the query engine treats a super entry exactly like an
//! R-tree entry whose MBR is the union of the entries it covers.
//!
//! # Layout: implicit leaves
//!
//! "A one-time operation" in the paper, the BPTs are the largest resident
//! part of a served world and are rebuilt for every node a publish dirties,
//! so a [`Bpt`] keeps only what the R-tree node does not already hold: its
//! `N − 1` super entries, as two columns (`mbrs`, `kids`: 32 + 4 = 36 B per
//! entry). A leaf cell *is* an entry of the node — a child reference with
//! the high bit set is the entry index — and its MBR is read from the entry
//! set the BPT was built over ([`EntryMbrs`]: the [`Node`]'s SoA columns,
//! or the plain slice behind the cluster's super-root layout). Cells are
//! handed out by value ([`BptCell`]); nothing stores a leaf MBR twice.
//!
//! Super entries are numbered in build pre-order (a super entry, its left
//! subtree, its right subtree), which is neither observable nor on the
//! wire. What *is* on the wire is the order [`Bpt::descend`] and
//! [`Bpt::leaf_cells`] emit cells in — shipment cell order — so both keep
//! the right-before-left depth-first order of the cell-arena walk they
//! replaced (`reference::ArenaBpt`, kept under `cfg(test)` and held equal
//! by proptest).

use crate::engine::Expansion;
use crate::par;
use crate::proto::{CellRef, Side};
use crate::spares::{clear_to, Lent};
use crate::split::{midpoint_split, rstar_split, SplitScratch};
use crate::tree::RTree;
use crate::{Node, NodeId, Spares};
use pc_geom::Rect;
use std::ops::Range;
use std::sync::Arc;

/// A path through a binary partition tree: the paper's `(n, code)` id with
/// `code` a bit-string ("formed by concatenating the binary digit 0/1 along
/// the path from the root", §4.2). Bit `i` (LSB-first) is the branch taken
/// at depth `i`.
///
/// The BPT build keeps both split sides ≥ 35 % of the subset, bounding the
/// depth by `log(max_fan)/log(1/0.65)` ≈ 11 for 4 KB pages — far below the
/// 32-bit capacity, which [`Code::child`] asserts.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Code {
    bits: u32,
    len: u8,
}

impl Code {
    /// The empty code: the BPT root, i.e. the whole node.
    pub const ROOT: Code = Code { bits: 0, len: 0 };

    /// Appends one branch digit.
    #[inline]
    pub fn child(self, right: bool) -> Code {
        assert!(self.len < 32, "BPT code overflow");
        Code {
            bits: self.bits | ((right as u32) << self.len),
            len: self.len + 1,
        }
    }

    /// Drops the last branch digit (`None` at the root).
    #[inline]
    pub fn parent(self) -> Option<Code> {
        if self.len == 0 {
            return None;
        }
        let len = self.len - 1;
        Some(Code {
            bits: self.bits & !(1 << len),
            len,
        })
    }

    #[inline]
    pub fn depth(self) -> u8 {
        self.len
    }

    #[inline]
    pub fn is_root(self) -> bool {
        self.len == 0
    }

    /// Branch digit at depth `i` (must be `< depth()`).
    #[inline]
    pub fn bit(self, i: u8) -> bool {
        debug_assert!(i < self.len);
        (self.bits >> i) & 1 == 1
    }

    /// Whether `self` is an ancestor of (or equal to) `other`.
    pub fn is_prefix_of(self, other: Code) -> bool {
        self.len <= other.len
            && (other.bits & ((1u64 << self.len) as u32).wrapping_sub(1)) == self.bits
    }

    /// The raw `(bits, len)` pair for serialization (`pc_wire`). Inverse of
    /// [`Code::from_raw`].
    #[inline]
    pub fn raw(self) -> (u32, u8) {
        (self.bits, self.len)
    }

    /// Rebuilds a code from its raw parts, validating the invariant that
    /// only the low `len` bits may be set. Returns `None` for out-of-range
    /// lengths or stray high bits — the decode side of a wire codec must
    /// never manufacture an invalid code.
    #[inline]
    pub fn from_raw(bits: u32, len: u8) -> Option<Code> {
        if len > 32 {
            return None;
        }
        if len < 32 && (bits >> len) != 0 {
            return None;
        }
        Some(Code { bits, len })
    }
}

impl std::fmt::Display for Code {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.len == 0 {
            return write!(f, "ε");
        }
        for i in 0..self.len {
            write!(f, "{}", (self.bits >> i) & 1)?;
        }
        Ok(())
    }
}

impl std::fmt::Debug for Code {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Code({self})")
    }
}

/// One cell of a binary partition tree, by value: a view assembled from
/// the BPT's super-entry columns or, for a leaf, from the node's own entry.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BptCell {
    /// MBR of the entry subset this cell covers.
    pub mbr: Rect,
    pub kind: BptCellKind,
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BptCellKind {
    /// A super entry.
    Internal,
    /// An actual entry of the R-tree node (index into its entry columns,
    /// resolved via [`crate::Node::entry`]).
    Leaf { entry_idx: u16 },
}

/// The entry MBRs a [`Bpt`] was built over — where its leaf cells live.
/// Every `Bpt` method that can hand out a leaf cell takes the same entry
/// set the tree was built from.
pub trait EntryMbrs {
    fn entry_mbr(&self, entry_idx: u16) -> Rect;
}

impl EntryMbrs for Node {
    #[inline]
    fn entry_mbr(&self, entry_idx: u16) -> Rect {
        self.mbr_at(entry_idx as usize)
    }
}

impl EntryMbrs for [Rect] {
    #[inline]
    fn entry_mbr(&self, entry_idx: u16) -> Rect {
        self[entry_idx as usize]
    }
}

/// How a BPT partitions an entry subset in two — the design choice §4.2
/// makes ("the partitioning uses the R-tree node splitting algorithm to
/// assure minimal overlap") and the `ablation_bpt_split` experiment
/// questions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SplitPolicy {
    /// The paper's choice: the R* margin/overlap heuristic.
    #[default]
    RStar,
    /// Naïve control: sort by center along the longer axis, cut at the
    /// median. Cheaper to build, but super entries overlap more, so
    /// compact forms prune worse.
    Midpoint,
}

/// Working memory of one BPT build, reused from node to node: a whole
/// store build (or one builder thread's share of it, or one publish's
/// dirty set) allocates these buffers once, after which a build allocates
/// only the BPT's own two columns.
#[derive(Default)]
pub(crate) struct BptScratch {
    split: SplitScratch,
    /// Entry indices, permuted in place so every cell covers one
    /// contiguous range.
    ids: Vec<u16>,
    /// MBRs of the range being split, in `ids` order.
    subset: Vec<Rect>,
    /// The range's ids regrouped left-then-right, before they are copied
    /// back over it.
    regrouped: Vec<u16>,
}

/// Set on a child reference that names an entry of the node (a leaf cell)
/// rather than a super entry; the low 15 bits are the index either way.
const LEAF_BIT: u16 = 1 << 15;

/// The binary partition tree of one R-tree node: its super entries only
/// (module docs — leaves are implicit).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Bpt {
    /// MBR of each super entry; super entry 0 is the root of a BPT over
    /// two or more entries.
    mbrs: Vec<Rect>,
    /// `[left, right]` child references of each super entry: an index
    /// into these columns, or `LEAF_BIT | entry_idx`.
    kids: Vec<[u16; 2]>,
    /// `N`, the number of entries built over: 0 models an empty node, 1 a
    /// BPT that is a single leaf — neither has a super entry.
    entries: u16,
    height: u8,
}

impl Bpt {
    /// Builds the BPT over a node's entry MBRs ("the partitioning uses the
    /// R-tree node splitting algorithm to assure minimal overlap", §4.2).
    pub fn build(entry_mbrs: &[Rect]) -> Bpt {
        Bpt::build_with(entry_mbrs, SplitPolicy::RStar)
    }

    /// Builds with an explicit split policy (ablation support).
    pub fn build_with(entry_mbrs: &[Rect], policy: SplitPolicy) -> Bpt {
        Bpt::build_in(entry_mbrs, policy, &mut BptScratch::default())
    }

    /// [`build_with`](Self::build_with) on caller-owned working memory.
    /// What `scratch` held before has no effect on the result.
    pub(crate) fn build_in(
        entry_mbrs: &[Rect],
        policy: SplitPolicy,
        scratch: &mut BptScratch,
    ) -> Bpt {
        let mut bpt = Bpt::default();
        bpt.rebuild(entry_mbrs, policy, scratch);
        bpt
    }

    /// Rebuilds this BPT over `entry_mbrs` in place, its columns at exactly
    /// `N − 1` capacity: what it held before has no effect on the result,
    /// which equals a fresh [`build_in`](Self::build_in) field for field.
    ///
    /// # Panics
    /// Panics on 2¹⁵ or more entries: a child reference is 15 bits.
    fn rebuild(&mut self, entry_mbrs: &[Rect], policy: SplitPolicy, scratch: &mut BptScratch) {
        let n = entry_mbrs.len();
        assert!(
            n < LEAF_BIT as usize,
            "a BPT addresses at most 2^15 - 1 entries, got {n}"
        );
        let supers = n.saturating_sub(1);
        let Bpt {
            mbrs,
            kids,
            entries,
            height,
        } = self;
        clear_to(mbrs, supers);
        clear_to(kids, supers);
        *entries = n as u16;
        *height = 0;
        if n > 0 {
            scratch.ids.clear();
            scratch.ids.extend(0..n as u16);
            self.build_rec(0..n, entry_mbrs, 0, policy, scratch);
        }
    }

    /// Builds the subtree over `scratch.ids[range]`; returns the reference
    /// to its root cell and that cell's MBR.
    fn build_rec(
        &mut self,
        range: Range<usize>,
        mbrs: &[Rect],
        depth: u8,
        policy: SplitPolicy,
        scratch: &mut BptScratch,
    ) -> (u16, Rect) {
        self.height = self.height.max(depth);
        if range.len() == 1 {
            let entry_idx = scratch.ids[range.start];
            return (LEAF_BIT | entry_idx, mbrs[entry_idx as usize]);
        }
        let BptScratch {
            split,
            ids,
            subset,
            regrouped,
        } = &mut *scratch;
        subset.clear();
        subset.extend(ids[range.clone()].iter().map(|&i| mbrs[i as usize]));
        let (l, r) = match policy {
            SplitPolicy::RStar => {
                // Keep both sides ≥ 35 % so codes stay shallow (see `Code`).
                let m = ((subset.len() as f64 * 0.35).floor() as usize).max(1);
                rstar_split(subset, m, split)
            }
            SplitPolicy::Midpoint => midpoint_split(subset, split),
        };
        let mid = range.start + l.len();
        regrouped.clear();
        regrouped.extend(l.iter().chain(r).map(|&i| ids[range.start + i]));
        ids[range.clone()].copy_from_slice(regrouped);

        // Claim this super entry's slot before its subtrees claim theirs
        // (pre-order numbering); both columns are filled on the way back.
        let at = self.mbrs.len();
        self.mbrs.push(subset[0]);
        self.kids.push([0; 2]);
        let (left, left_mbr) = self.build_rec(range.start..mid, mbrs, depth + 1, policy, scratch);
        let (right, right_mbr) = self.build_rec(mid..range.end, mbrs, depth + 1, policy, scratch);
        let mbr = left_mbr.union(&right_mbr);
        self.mbrs[at] = mbr;
        self.kids[at] = [left, right];
        (at as u16, mbr)
    }

    /// Number of cells (`2N - 1` for an `N`-entry node).
    pub fn cell_count(&self) -> usize {
        self.entries as usize + self.mbrs.len()
    }

    /// Number of super entries (`N - 1`).
    pub fn internal_count(&self) -> usize {
        self.mbrs.len()
    }

    /// Height of the tree (the `h` of §4.3: the `h⁺`-level compact form is
    /// the full form).
    pub fn height(&self) -> u8 {
        self.height
    }

    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Reference to the root cell: super entry 0, the lone entry of a
    /// one-entry node, nothing for an empty one.
    fn root(&self) -> Option<u16> {
        match self.entries {
            0 => None,
            1 => Some(LEAF_BIT),
            _ => Some(0),
        }
    }

    /// Walks `code`'s branch digits from the root to a cell reference.
    fn resolve(&self, code: Code) -> Option<u16> {
        let mut at = self.root()?;
        for i in 0..code.depth() {
            if at & LEAF_BIT != 0 {
                return None;
            }
            at = self.kids[at as usize][code.bit(i) as usize];
        }
        Some(at)
    }

    /// The cell behind a reference.
    fn cell<E: EntryMbrs + ?Sized>(&self, at: u16, entries: &E) -> BptCell {
        if at & LEAF_BIT != 0 {
            let entry_idx = at & !LEAF_BIT;
            BptCell {
                mbr: entries.entry_mbr(entry_idx),
                kind: BptCellKind::Leaf { entry_idx },
            }
        } else {
            BptCell {
                mbr: self.mbrs[at as usize],
                kind: BptCellKind::Internal,
            }
        }
    }

    /// Resolves a code to its cell, walking branch digits from the root.
    pub fn find<E: EntryMbrs + ?Sized>(&self, code: Code, entries: &E) -> Option<BptCell> {
        self.resolve(code).map(|at| self.cell(at, entries))
    }

    /// Children of an internal cell as `(code, cell)` pairs; `None` for
    /// leaves and unknown codes.
    pub fn children<E: EntryMbrs + ?Sized>(
        &self,
        code: Code,
        entries: &E,
    ) -> Option<[(Code, BptCell); 2]> {
        let at = self.resolve(code)?;
        if at & LEAF_BIT != 0 {
            return None;
        }
        let [left, right] = self.kids[at as usize];
        Some([
            (code.child(false), self.cell(left, entries)),
            (code.child(true), self.cell(right, entries)),
        ])
    }

    /// Expands `cell` of this BPT in one walk: a super entry into its two
    /// sibling cells, a full entry into whatever `entry(entry_idx, mbr)`
    /// resolves it to. Total — a code this BPT does not have is
    /// [`Expansion::Missing`], any code of an empty BPT [`Expansion::Empty`].
    pub fn expand<E: EntryMbrs + ?Sized>(
        &self,
        cell: CellRef,
        entries: &E,
        entry: impl FnOnce(u16, Rect) -> Side,
    ) -> Expansion {
        if self.is_empty() {
            return Expansion::Empty;
        }
        let Some(at) = self.resolve(cell.code) else {
            return Expansion::Missing;
        };
        if at & LEAF_BIT != 0 {
            let entry_idx = at & !LEAF_BIT;
            return Expansion::Entry(entry(entry_idx, entries.entry_mbr(entry_idx)));
        }
        let [left, right] = self.kids[at as usize];
        let child = |at: u16, right: bool| Side::Cell {
            cell: CellRef {
                node: cell.node,
                code: cell.code.child(right),
            },
            mbr: self.cell(at, entries).mbr,
        };
        Expansion::Split([child(left, false), child(right, true)])
    }

    /// Visits the frontier `levels` below the cell at `at`, right subtree
    /// before left (module docs: the emission order is on the wire).
    fn walk(&self, at: u16, code: Code, levels: u8, visit: &mut impl FnMut(Code, u16)) {
        if at & LEAF_BIT != 0 || levels == 0 {
            return visit(code, at);
        }
        let [left, right] = self.kids[at as usize];
        self.walk(right, code.child(true), levels - 1, visit);
        self.walk(left, code.child(false), levels - 1, visit);
    }

    /// The frontier `d` levels below `code`: "replacing each entry in the
    /// compact form with its d level descendant nodes or the entries,
    /// whichever come first" (§4.3). `d = 0` visits `code` itself; an
    /// unknown code visits nothing.
    pub fn descend<E: EntryMbrs + ?Sized>(
        &self,
        code: Code,
        d: u8,
        entries: &E,
        mut visit: impl FnMut(Code, BptCell),
    ) {
        if let Some(at) = self.resolve(code) {
            self.walk(at, code, d, &mut |c, at| visit(c, self.cell(at, entries)));
        }
    }

    /// All leaf (entry) cells as `(code, entry_idx, mbr)`, i.e. the full
    /// form as an antichain.
    pub fn leaf_cells<E: EntryMbrs + ?Sized>(
        &self,
        entries: &E,
        mut visit: impl FnMut(Code, u16, Rect),
    ) {
        if let Some(root) = self.root() {
            // Codes are at most 32 digits, so `u8::MAX` levels reach every leaf.
            self.walk(root, Code::ROOT, u8::MAX, &mut |c, at| {
                let entry_idx = at & !LEAF_BIT;
                visit(c, entry_idx, entries.entry_mbr(entry_idx))
            });
        }
    }

    /// Auxiliary storage of this BPT per the paper's §4.2 accounting:
    /// `N - 1` super entries plus `2(N - 1)` pointers.
    pub fn aux_bytes(&self) -> u64 {
        let internal = self.internal_count() as u64;
        internal * crate::proto::ENTRY_BYTES + 2 * internal * 8
    }

    /// Heap bytes this BPT keeps resident, by capacity: the two super-entry
    /// columns (36 B per super entry) plus the header.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        size_of::<Bpt>()
            + self.mbrs.capacity() * size_of::<Rect>()
            + self.kids.capacity() * size_of::<[u16; 2]>()
    }
}

/// Builds BPTs straight off tree nodes, gathering each node's SoA MBR
/// columns into one reused buffer.
#[derive(Default)]
struct NodeBptBuilder {
    mbrs: Vec<Rect>,
    scratch: BptScratch,
}

impl NodeBptBuilder {
    fn build(&mut self, node: &Node, policy: SplitPolicy) -> Arc<Bpt> {
        let mut bpt = Bpt::default();
        self.build_into(node, policy, &mut bpt);
        Arc::new(bpt)
    }

    fn build_into(&mut self, node: &Node, policy: SplitPolicy, bpt: &mut Bpt) {
        self.mbrs.clear();
        self.mbrs.extend((0..node.len()).map(|j| node.mbr_at(j)));
        bpt.rebuild(&self.mbrs, policy, &mut self.scratch);
    }
}

/// BPT slots per store segment (power of two so indexing is a shift+mask).
const BPT_CHUNK_SHIFT: u32 = 10;
/// Segment capacity derived from the shift.
pub const BPT_CHUNK_LEN: usize = 1 << BPT_CHUNK_SHIFT;

/// Binary partition trees for every node of a tree, built offline ("a
/// one-time operation", §4.2).
///
/// A dense slab indexed by [`NodeId`] (one slot per tree slab slot —
/// detached node husks keep an empty BPT, which costs zero aux bytes),
/// segmented into [`BPT_CHUNK_LEN`]-slot `Arc` chunks like the tree's node
/// slab. Each BPT additionally sits behind its own `Arc`: cloning the store
/// clones only the segment pointer table, and [`BptStore::rebuild_nodes`]
/// swaps in a rebuilt BPT for exactly the nodes an update batch dirtied —
/// copying the dirtied slots' segments, not the whole table — leaving every
/// other node's BPT structurally shared with the previous snapshot. A
/// writer that [lends](BptStore::with_spares) the store its [`Spares`] has
/// each BPT rebuilt into one an earlier rebuild retired, once nothing
/// holds it any more.
#[derive(Clone, Debug, Default)]
pub struct BptStore {
    chunks: Vec<Arc<Vec<Arc<Bpt>>>>,
    len: usize,
    spares: Lent<Bpt>,
}

impl BptStore {
    pub fn build(tree: &RTree) -> BptStore {
        BptStore::build_with(tree, SplitPolicy::RStar)
    }

    /// Builds with an explicit split policy (ablation support), on as many
    /// threads as the tree's size repays ([`par::worker_count`]).
    pub fn build_with(tree: &RTree, policy: SplitPolicy) -> BptStore {
        // Every object and every non-root node is one entry of some node.
        let workers = par::worker_count(tree.object_count() + tree.slab_len());
        BptStore::build_on(tree, policy, workers)
    }

    /// Nodes are independent, so the slab is cut into contiguous `NodeId`
    /// ranges built side by side and pushed back in id order: the store is
    /// slot for slot the same for every `workers`.
    pub(crate) fn build_on(tree: &RTree, policy: SplitPolicy, workers: usize) -> BptStore {
        let built = par::map_ranges(tree.slab_len(), workers, |range| {
            let mut builder = NodeBptBuilder::default();
            range
                .map(|i| builder.build(tree.node(NodeId(i as u32)), policy))
                .collect()
        });
        let mut store = BptStore::default();
        for bpt in built {
            store.push(bpt);
        }
        store
    }

    /// Appends one slot, growing a fresh segment at chunk boundaries.
    fn push(&mut self, bpt: Arc<Bpt>) {
        if self.len.is_multiple_of(BPT_CHUNK_LEN) {
            self.chunks
                .push(Arc::new(Vec::with_capacity(BPT_CHUNK_LEN)));
        }
        Arc::make_mut(self.chunks.last_mut().expect("segment just ensured")).push(bpt);
        self.len += 1;
    }

    pub fn get(&self, id: NodeId) -> &Bpt {
        let i = id.0 as usize;
        &self.chunks[i >> BPT_CHUNK_SHIFT][i & (BPT_CHUNK_LEN - 1)]
    }

    /// Checked [`get`](Self::get), for ids that arrive from outside the
    /// program: `None` past the slab.
    pub(crate) fn try_get(&self, id: NodeId) -> Option<&Bpt> {
        let i = id.0 as usize;
        let bpt = self
            .chunks
            .get(i >> BPT_CHUNK_SHIFT)?
            .get(i & (BPT_CHUNK_LEN - 1))?;
        Some(bpt)
    }

    /// Rebuilds the BPTs of `ids` — the nodes one update batch dirtied —
    /// on one builder, growing the slab for nodes the batch created. Copies
    /// only the segments the slots live in; a slot nothing else holds is
    /// rebuilt in place.
    pub fn rebuild_nodes(&mut self, tree: &RTree, ids: &[NodeId]) {
        let mut builder = NodeBptBuilder::default();
        for &id in ids {
            while self.len <= id.0 as usize {
                // Slots for nodes created by this batch; every new node is
                // in the dirty set, so each placeholder is rebuilt in turn.
                self.push(Arc::new(Bpt::default()));
            }
            let i = id.0 as usize;
            let chunk = Arc::make_mut(&mut self.chunks[i >> BPT_CHUNK_SHIFT]);
            // Nothing of the old BPT is copied: the rebuild overwrites it all.
            let bpt = self
                .spares
                .make_mut(&mut chunk[i & (BPT_CHUNK_LEN - 1)], |_, _| {});
            builder.build_into(tree.node(id), SplitPolicy::RStar, bpt);
        }
    }

    /// Runs `edit` on this store with `spares` lent to its copy-on-write
    /// seam: a rebuilt BPT is written into one an earlier rebuild retired
    /// once nothing holds it any more, and every BPT a rebuild replaces is
    /// retired into `spares`, which the store hands back.
    pub fn with_spares<R>(
        &mut self,
        spares: &mut Spares<Bpt>,
        edit: impl FnOnce(&mut BptStore) -> R,
    ) -> R {
        Lent::lend(self, |bpts| &mut bpts.spares, spares, edit)
    }

    /// Total auxiliary bytes across all nodes — the §6.4 "4.2 MB for NE"
    /// figure; bounded by twice the R-tree size.
    pub fn total_aux_bytes(&self) -> u64 {
        self.chunks
            .iter()
            .flat_map(|c| c.iter())
            .map(|b| b.aux_bytes())
            .sum()
    }

    /// Number of BPT slots (one per tree slab slot).
    pub fn node_count(&self) -> usize {
        self.len
    }

    /// How many per-node BPTs `self` physically shares with `other` (same
    /// `Arc` at the same slot) — the structural-sharing diagnostic
    /// mirroring [`RTree::shared_node_slots`].
    pub fn shared_bpts(&self, other: &BptStore) -> usize {
        self.chunks
            .iter()
            .zip(&other.chunks)
            .map(|(a, b)| {
                if Arc::ptr_eq(a, b) {
                    a.len()
                } else {
                    a.iter()
                        .zip(b.iter())
                        .filter(|(x, y)| Arc::ptr_eq(x, y))
                        .count()
                }
            })
            .sum()
    }

    /// Heap bytes this store keeps resident, by capacity: the segment
    /// table, every segment's slot table and every BPT's columns
    /// (shared ones included — each snapshot holding a BPT counts it).
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let segments: usize = self
            .chunks
            .iter()
            .map(|chunk| {
                chunk.capacity() * size_of::<Arc<Bpt>>()
                    + chunk.iter().map(|bpt| bpt.heap_bytes()).sum::<usize>()
            })
            .sum();
        self.chunks.capacity() * size_of::<Arc<Vec<Arc<Bpt>>>>() + segments
    }

    /// Number of store segments (denominator for
    /// [`shared_chunks`](BptStore::shared_chunks)).
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// How many whole segments `self` physically shares with `other` — the
    /// pointer-table analogue of [`BptStore::shared_bpts`].
    pub fn shared_chunks(&self, other: &BptStore) -> usize {
        self.chunks
            .iter()
            .zip(&other.chunks)
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_geom::Point;

    #[test]
    fn code_raw_round_trips_and_validates() {
        let code = Code::ROOT.child(true).child(false).child(true);
        let (bits, len) = code.raw();
        assert_eq!(Code::from_raw(bits, len), Some(code));
        assert_eq!(Code::from_raw(0, 0), Some(Code::ROOT));
        // Stray bits above `len` and over-long lengths are rejected.
        assert_eq!(Code::from_raw(0b100, 2), None);
        assert_eq!(Code::from_raw(0, 33), None);
        assert!(Code::from_raw(u32::MAX, 32).is_some());
    }

    fn mbrs(n: usize) -> Vec<Rect> {
        (0..n)
            .map(|i| {
                let x = (i % 7) as f64 * 0.13;
                let y = (i / 7) as f64 * 0.11;
                Rect::from_coords(x, y, x + 0.05, y + 0.04)
            })
            .collect()
    }

    #[test]
    fn code_round_trips() {
        let c = Code::ROOT.child(false).child(true).child(true);
        assert_eq!(c.depth(), 3);
        assert!(!c.bit(0));
        assert!(c.bit(1));
        assert!(c.bit(2));
        assert_eq!(c.parent().unwrap().depth(), 2);
        assert_eq!(Code::ROOT.parent(), None);
        assert_eq!(format!("{c}"), "011");
        assert_eq!(format!("{}", Code::ROOT), "ε");
    }

    #[test]
    fn code_prefix_relation() {
        let a = Code::ROOT.child(true);
        let b = a.child(false).child(true);
        assert!(Code::ROOT.is_prefix_of(b));
        assert!(a.is_prefix_of(b));
        assert!(a.is_prefix_of(a));
        assert!(!b.is_prefix_of(a));
        assert!(!a.child(true).is_prefix_of(b));
    }

    #[test]
    fn build_counts_match_formula() {
        for n in [1usize, 2, 3, 5, 8, 50, 102] {
            let bpt = Bpt::build(&mbrs(n));
            assert_eq!(bpt.cell_count(), 2 * n - 1, "n={n}");
            assert_eq!(bpt.internal_count(), n - 1, "n={n}");
        }
    }

    /// `descend` collected into a vector, for assertions.
    fn frontier(bpt: &Bpt, ms: &[Rect], code: Code, d: u8) -> Vec<(Code, BptCell)> {
        let mut out = Vec::new();
        bpt.descend(code, d, ms, |c, cell| out.push((c, cell)));
        out
    }

    /// The entry index behind every leaf cell, in emission order.
    fn leaf_entries(bpt: &Bpt, ms: &[Rect]) -> Vec<u16> {
        let mut out = Vec::new();
        bpt.leaf_cells(ms, |_, entry_idx, _| out.push(entry_idx));
        out
    }

    /// Every internal cell's MBR is the union of its children's.
    fn assert_internal_mbrs_union_children(bpt: &Bpt, ms: &[Rect]) {
        let mut stack = vec![Code::ROOT];
        while let Some(code) = stack.pop() {
            if let Some([(c0, l), (c1, r)]) = bpt.children(code, ms) {
                let cell = bpt.find(code, ms).unwrap();
                assert_eq!(cell.mbr, l.mbr.union(&r.mbr), "cell {code}");
                stack.push(c0);
                stack.push(c1);
            }
        }
    }

    #[test]
    fn empty_node_has_empty_bpt() {
        let bpt = Bpt::build(&[]);
        let none: &[Rect] = &[];
        assert!(bpt.is_empty());
        assert_eq!(bpt.cell_count(), 0);
        assert_eq!(bpt.find(Code::ROOT, none), None);
        assert!(frontier(&bpt, none, Code::ROOT, 3).is_empty());
        assert!(leaf_entries(&bpt, none).is_empty());
    }

    #[test]
    fn single_entry_bpt_is_one_leaf() {
        let ms = mbrs(1);
        let bpt = Bpt::build(&ms);
        assert_eq!(bpt.cell_count(), 1);
        assert_eq!(bpt.height(), 0);
        let root = bpt.find(Code::ROOT, &ms[..]).unwrap();
        assert_eq!(root.kind, BptCellKind::Leaf { entry_idx: 0 });
        assert_eq!(root.mbr, ms[0]);
        assert_eq!(bpt.find(Code::ROOT.child(false), &ms[..]), None);
    }

    #[test]
    fn root_mbr_covers_all_entries() {
        let ms = mbrs(23);
        let bpt = Bpt::build(&ms);
        let root = bpt.find(Code::ROOT, &ms[..]).unwrap();
        let total = Rect::union_all(ms.iter().copied()).unwrap();
        assert_eq!(root.mbr, total);
    }

    #[test]
    fn internal_mbr_is_union_of_children() {
        let ms = mbrs(17);
        assert_internal_mbrs_union_children(&Bpt::build(&ms), &ms);
    }

    #[test]
    fn leaf_cells_cover_every_entry_exactly_once() {
        let ms = mbrs(29);
        let bpt = Bpt::build(&ms);
        // Each leaf cell carries its entry's own MBR.
        bpt.leaf_cells(&ms[..], |code, entry_idx, mbr| {
            assert_eq!(mbr, ms[entry_idx as usize]);
            let found = bpt.find(code, &ms[..]).unwrap();
            assert_eq!(found.kind, BptCellKind::Leaf { entry_idx });
        });
        let mut seen = leaf_entries(&bpt, &ms);
        seen.sort_unstable();
        assert_eq!(seen, (0..29).collect::<Vec<_>>());
    }

    #[test]
    fn descend_levels_form_antichains() {
        let ms = mbrs(40);
        let bpt = Bpt::build(&ms);
        for d in 0..=bpt.height() {
            let frontier = frontier(&bpt, &ms, Code::ROOT, d);
            // Pairwise non-prefix (an antichain in the code order).
            for i in 0..frontier.len() {
                for j in 0..frontier.len() {
                    if i != j {
                        assert!(
                            !frontier[i].0.is_prefix_of(frontier[j].0),
                            "{} is prefix of {}",
                            frontier[i].0,
                            frontier[j].0
                        );
                    }
                }
            }
            // And the union of MBRs covers the root.
            let union = Rect::union_all(frontier.iter().map(|(_, c)| c.mbr)).unwrap();
            assert_eq!(union, bpt.find(Code::ROOT, &ms[..]).unwrap().mbr);
        }
    }

    #[test]
    fn depth_is_bounded_for_identical_rects() {
        // Worst case for split heuristics: all entries identical. The 35 %
        // minimum side keeps the tree balanced.
        let ms: Vec<Rect> = (0..102)
            .map(|_| Rect::from_point(Point::new(0.5, 0.5)))
            .collect();
        let bpt = Bpt::build(&ms);
        assert!(bpt.height() <= 16, "height {}", bpt.height());
    }

    #[test]
    fn midpoint_policy_builds_valid_trees() {
        for n in [1usize, 2, 7, 40] {
            let ms = mbrs(n);
            let bpt = Bpt::build_with(&ms, SplitPolicy::Midpoint);
            assert_eq!(bpt.cell_count(), 2 * n - 1, "n={n}");
            let mut seen = leaf_entries(&bpt, &ms);
            seen.sort_unstable();
            assert_eq!(seen, (0..n as u16).collect::<Vec<_>>());
            assert_internal_mbrs_union_children(&bpt, &ms);
        }
    }

    #[test]
    fn rstar_policy_overlaps_less_than_midpoint() {
        // Sum of sibling-overlap areas over all internal cells: the R*
        // policy must not be worse than the naïve cut on clustered data.
        let ms: Vec<Rect> = (0..60)
            .map(|i| {
                let (cx, cy) = if i % 2 == 0 { (0.2, 0.2) } else { (0.8, 0.7) };
                let dx = (i / 2) as f64 * 0.004;
                Rect::from_coords(cx + dx, cy, cx + dx + 0.05, cy + 0.05)
            })
            .collect();
        let overlap = |policy| {
            let bpt = Bpt::build_with(&ms, policy);
            let mut total = 0.0;
            let mut stack = vec![Code::ROOT];
            while let Some(code) = stack.pop() {
                if let Some([(c0, l), (c1, r)]) = bpt.children(code, &ms[..]) {
                    total += l.mbr.overlap_area(&r.mbr);
                    stack.push(c0);
                    stack.push(c1);
                }
            }
            total
        };
        assert!(overlap(SplitPolicy::RStar) <= overlap(SplitPolicy::Midpoint) + 1e-12);
    }

    #[test]
    fn aux_bytes_matches_paper_formula() {
        let bpt = Bpt::build(&mbrs(10));
        // 9 super entries * 40 bytes + 18 pointers * 8 bytes.
        assert_eq!(bpt.aux_bytes(), 9 * 40 + 18 * 8);
    }

    #[test]
    fn heap_bytes_is_36_per_super_entry() {
        // Implicit leaves: two exact-capacity columns, nothing per leaf.
        let bpt = Bpt::build(&mbrs(102));
        assert_eq!(bpt.heap_bytes(), std::mem::size_of::<Bpt>() + 101 * 36);
    }

    #[test]
    #[should_panic(expected = "2^15 - 1 entries")]
    fn build_rejects_more_entries_than_a_child_ref_addresses() {
        let ms = vec![Rect::from_point(Point::new(0.5, 0.5)); 1 << 15];
        Bpt::build(&ms);
    }
}
