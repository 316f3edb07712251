//! Binary partition trees (§4.2): every R-tree node gets an offline binary
//! tree over its entries, built by recursively applying the R* split so the
//! two subsets overlap minimally. Interior BPT cells are the paper's
//! **super entries**, addressed `(n, code)` where `code` concatenates the
//! 0/1 branch digits from the BPT root.
//!
//! Compact forms, d⁺-level forms and the adaptive scheme all operate on
//! these cells; the query engine treats a super entry exactly like an
//! R-tree entry whose MBR is the union of the entries it covers.

use crate::engine::Expansion;
use crate::par;
use crate::proto::{CellRef, Side};
use crate::split::{midpoint_split, rstar_split, SplitScratch};
use crate::tree::RTree;
use crate::{Node, NodeId};
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

/// One cell of a binary partition tree.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BptCell {
    /// MBR of the entry subset this cell covers.
    pub mbr: Rect,
    pub kind: BptCellKind,
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BptCellKind {
    /// A super entry: indices of the two child cells in the BPT arena.
    Internal { left: u32, right: u32 },
    /// An actual entry of the R-tree node (index into its entry columns,
    /// resolved via [`crate::Node::entry`]).
    Leaf { entry_idx: u16 },
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
/// store build (or one builder thread's share of it) allocates these
/// buffers once, after which a build allocates only the BPT's own cells.
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

/// The binary partition tree of one R-tree node.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Bpt {
    /// Cell 0 is the root; an empty vector models an empty node.
    cells: Vec<BptCell>,
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
        let n = entry_mbrs.len();
        let mut bpt = Bpt {
            cells: Vec::with_capacity((2 * n).saturating_sub(1)),
            height: 0,
        };
        if n == 0 {
            return bpt;
        }
        scratch.ids.clear();
        scratch.ids.extend(0..n as u16);
        bpt.cells.push(BptCell {
            // Placeholder, fixed by build_rec.
            mbr: entry_mbrs[0],
            kind: BptCellKind::Leaf { entry_idx: 0 },
        });
        bpt.build_rec(0, 0..n, entry_mbrs, 0, policy, scratch);
        bpt
    }

    /// Fills cell `cell_idx` with the subtree over `scratch.ids[range]`.
    fn build_rec(
        &mut self,
        cell_idx: usize,
        range: Range<usize>,
        mbrs: &[Rect],
        depth: u8,
        policy: SplitPolicy,
        scratch: &mut BptScratch,
    ) {
        self.height = self.height.max(depth);
        if range.len() == 1 {
            let entry_idx = scratch.ids[range.start];
            self.cells[cell_idx] = BptCell {
                mbr: mbrs[entry_idx as usize],
                kind: BptCellKind::Leaf { entry_idx },
            };
            return;
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

        let left_idx = self.cells.len();
        self.cells.push(self.cells[cell_idx]); // placeholder
        let right_idx = self.cells.len();
        self.cells.push(self.cells[cell_idx]); // placeholder

        self.build_rec(left_idx, range.start..mid, mbrs, depth + 1, policy, scratch);
        self.build_rec(right_idx, mid..range.end, mbrs, depth + 1, policy, scratch);

        let mbr = self.cells[left_idx].mbr.union(&self.cells[right_idx].mbr);
        self.cells[cell_idx] = BptCell {
            mbr,
            kind: BptCellKind::Internal {
                left: left_idx as u32,
                right: right_idx as u32,
            },
        };
    }

    /// Number of cells (`2N - 1` for an `N`-entry node).
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Number of super entries (`N - 1`).
    pub fn internal_count(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| matches!(c.kind, BptCellKind::Internal { .. }))
            .count()
    }

    /// Height of the tree (the `h` of §4.3: the `h⁺`-level compact form is
    /// the full form).
    pub fn height(&self) -> u8 {
        self.height
    }

    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Resolves a code to its cell, walking branch digits from the root.
    pub fn find(&self, code: Code) -> Option<&BptCell> {
        self.find_idx(code).map(|i| &self.cells[i])
    }

    fn find_idx(&self, code: Code) -> Option<usize> {
        if self.cells.is_empty() {
            return None;
        }
        let mut idx = 0usize;
        for i in 0..code.depth() {
            match self.cells[idx].kind {
                BptCellKind::Internal { left, right } => {
                    idx = if code.bit(i) {
                        right as usize
                    } else {
                        left as usize
                    };
                }
                BptCellKind::Leaf { .. } => return None,
            }
        }
        Some(idx)
    }

    /// Children of an internal cell as `(code, cell)` pairs; `None` for
    /// leaves and unknown codes.
    pub fn children(&self, code: Code) -> Option<[(Code, &BptCell); 2]> {
        let idx = self.find_idx(code)?;
        match self.cells[idx].kind {
            BptCellKind::Internal { left, right } => Some([
                (code.child(false), &self.cells[left as usize]),
                (code.child(true), &self.cells[right as usize]),
            ]),
            BptCellKind::Leaf { .. } => None,
        }
    }

    /// Expands `cell` of this BPT in one walk: a super entry into its two
    /// sibling cells, a full entry into whatever `entry(entry_idx, mbr)`
    /// resolves it to. Total — a code this BPT does not have is
    /// [`Expansion::Missing`], any code of an empty BPT [`Expansion::Empty`].
    pub fn expand(&self, cell: CellRef, entry: impl FnOnce(u16, Rect) -> Side) -> Expansion {
        if self.cells.is_empty() {
            return Expansion::Empty;
        }
        let Some(found) = self.find(cell.code) else {
            return Expansion::Missing;
        };
        match found.kind {
            BptCellKind::Leaf { entry_idx } => Expansion::Entry(entry(entry_idx, found.mbr)),
            BptCellKind::Internal { left, right } => {
                let child = |idx: u32, right: bool| Side::Cell {
                    cell: CellRef {
                        node: cell.node,
                        code: cell.code.child(right),
                    },
                    mbr: self.cells[idx as usize].mbr,
                };
                Expansion::Split([child(left, false), child(right, true)])
            }
        }
    }

    /// The frontier `d` levels below `code`: "replacing each entry in the
    /// compact form with its d level descendant nodes or the entries,
    /// whichever come first" (§4.3). `d = 0` returns `code` itself.
    pub fn descend(&self, code: Code, d: u8) -> Vec<(Code, &BptCell)> {
        let mut out = Vec::new();
        let Some(idx) = self.find_idx(code) else {
            return out;
        };
        let mut stack = vec![(code, idx, 0u8)];
        while let Some((c, i, depth)) = stack.pop() {
            let cell = &self.cells[i];
            match cell.kind {
                BptCellKind::Internal { left, right } if depth < d => {
                    stack.push((c.child(false), left as usize, depth + 1));
                    stack.push((c.child(true), right as usize, depth + 1));
                }
                _ => out.push((c, cell)),
            }
        }
        out
    }

    /// All leaf (entry) cells with their codes, i.e. the full form as an
    /// antichain.
    pub fn leaf_cells(&self) -> Vec<(Code, &BptCell)> {
        self.descend(Code::ROOT, u8::MAX)
    }

    /// Auxiliary storage of this BPT per the paper's §4.2 accounting:
    /// `N - 1` super entries plus `2(N - 1)` pointers.
    pub fn aux_bytes(&self) -> u64 {
        let internal = self.internal_count() as u64;
        internal * crate::proto::ENTRY_BYTES + 2 * internal * 8
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
        self.mbrs.clear();
        self.mbrs.extend((0..node.len()).map(|j| node.mbr_at(j)));
        Arc::new(Bpt::build_in(&self.mbrs, policy, &mut self.scratch))
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
/// clones only the segment pointer table, and [`BptStore::rebuild_node`]
/// swaps in a fresh BPT for exactly the nodes an update batch dirtied —
/// copying the dirtied slots' segments, not the whole table — leaving every
/// other node's BPT structurally shared with the previous snapshot.
#[derive(Clone, Debug, Default)]
pub struct BptStore {
    chunks: Vec<Arc<Vec<Arc<Bpt>>>>,
    len: usize,
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

    /// Rebuilds the BPT of one node (used when dynamic inserts change a
    /// node's entry set), growing the slab when the node is new. Copies
    /// only the segment the slot lives in.
    pub fn rebuild_node(&mut self, tree: &RTree, id: NodeId) {
        while self.len <= id.0 as usize {
            // Slots for nodes created by this batch; every new node is in
            // the dirty set, so each placeholder is rebuilt in turn.
            self.push(Arc::new(Bpt::default()));
        }
        let bpt = NodeBptBuilder::default().build(tree.node(id), SplitPolicy::RStar);
        let i = id.0 as usize;
        let chunk = Arc::make_mut(&mut self.chunks[i >> BPT_CHUNK_SHIFT]);
        chunk[i & (BPT_CHUNK_LEN - 1)] = bpt;
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
    /// table, every segment's slot table and every BPT's cell arena
    /// (shared ones included — each snapshot holding a BPT counts it).
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let segments: usize = self
            .chunks
            .iter()
            .map(|chunk| {
                chunk.capacity() * size_of::<Arc<Bpt>>()
                    + chunk
                        .iter()
                        .map(|bpt| size_of::<Bpt>() + bpt.cells.capacity() * size_of::<BptCell>())
                        .sum::<usize>()
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

    #[test]
    fn empty_node_has_empty_bpt() {
        let bpt = Bpt::build(&[]);
        assert!(bpt.is_empty());
        assert_eq!(bpt.find(Code::ROOT), None);
        assert!(bpt.descend(Code::ROOT, 3).is_empty());
    }

    #[test]
    fn single_entry_bpt_is_one_leaf() {
        let bpt = Bpt::build(&mbrs(1));
        assert_eq!(bpt.cell_count(), 1);
        assert_eq!(bpt.height(), 0);
        match bpt.find(Code::ROOT).unwrap().kind {
            BptCellKind::Leaf { entry_idx } => assert_eq!(entry_idx, 0),
            _ => panic!("expected leaf"),
        }
    }

    #[test]
    fn root_mbr_covers_all_entries() {
        let ms = mbrs(23);
        let bpt = Bpt::build(&ms);
        let root = bpt.find(Code::ROOT).unwrap();
        let total = Rect::union_all(ms.iter().copied()).unwrap();
        assert_eq!(root.mbr, total);
    }

    #[test]
    fn internal_mbr_is_union_of_children() {
        let ms = mbrs(17);
        let bpt = Bpt::build(&ms);
        // Walk every internal cell.
        let mut stack = vec![Code::ROOT];
        while let Some(code) = stack.pop() {
            if let Some([(c0, l), (c1, r)]) = bpt.children(code) {
                let cell = bpt.find(code).unwrap();
                assert_eq!(cell.mbr, l.mbr.union(&r.mbr), "cell {code}");
                stack.push(c0);
                stack.push(c1);
            }
        }
    }

    #[test]
    fn leaf_cells_cover_every_entry_exactly_once() {
        let ms = mbrs(29);
        let bpt = Bpt::build(&ms);
        let leaves = bpt.leaf_cells();
        assert_eq!(leaves.len(), 29);
        let mut seen: Vec<u16> = leaves
            .iter()
            .map(|(_, c)| match c.kind {
                BptCellKind::Leaf { entry_idx } => entry_idx,
                _ => panic!("descend(∞) must return leaves"),
            })
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..29).collect::<Vec<_>>());
    }

    #[test]
    fn descend_levels_form_antichains() {
        let ms = mbrs(40);
        let bpt = Bpt::build(&ms);
        for d in 0..=bpt.height() {
            let frontier = bpt.descend(Code::ROOT, d);
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
            assert_eq!(union, bpt.find(Code::ROOT).unwrap().mbr);
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
            let bpt = Bpt::build_with(&mbrs(n), SplitPolicy::Midpoint);
            assert_eq!(bpt.cell_count(), 2 * n - 1, "n={n}");
            let leaves = bpt.leaf_cells();
            assert_eq!(leaves.len(), n);
            let mut seen: Vec<u16> = leaves
                .iter()
                .map(|(_, c)| match c.kind {
                    BptCellKind::Leaf { entry_idx } => entry_idx,
                    _ => unreachable!(),
                })
                .collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..n as u16).collect::<Vec<_>>());
            // Internal MBRs still union children.
            let mut stack = vec![Code::ROOT];
            while let Some(code) = stack.pop() {
                if let Some([(c0, l), (c1, r)]) = bpt.children(code) {
                    assert_eq!(bpt.find(code).unwrap().mbr, l.mbr.union(&r.mbr));
                    stack.push(c0);
                    stack.push(c1);
                }
            }
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
                if let Some([(c0, l), (c1, r)]) = bpt.children(code) {
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
}
