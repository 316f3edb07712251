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
//! `N − 1` super entries, as one column of two child references and four
//! entry indices (12 B per super entry). A leaf cell *is* an entry of the
//! node — a child reference with the high bit set is the entry index — and
//! its MBR is read from the entry set the BPT was built over
//! ([`EntryMbrs`]: the [`Node`]'s SoA columns, or the plain slice behind
//! the cluster's super-root layout). A super entry's MBR is the union of
//! the entries it covers, so each of its four coordinates is one entry's:
//! the build records which, and a read loads those four coordinates back
//! ([`EntryMbrs::extent`]), bit for bit the union the build formed.
//! Cells are handed out by value ([`BptCell`]); nothing stores an MBR the
//! entry set already holds.
//!
//! Super entries are numbered in build pre-order (a super entry, its left
//! subtree, its right subtree), which is neither observable nor on the
//! wire. What *is* on the wire is the order [`Bpt::descend`] and
//! [`Bpt::leaf_cells`] emit cells in — shipment cell order — so both keep
//! the right-before-left depth-first order of the cell-arena walk they
//! replaced (`reference::ArenaBpt`, kept under `cfg(test)` and held equal
//! by proptest).

use crate::engine::Expansion;
use crate::proto::{CellRef, Side};
use crate::spares::clear_to;
use crate::split::{midpoint_split, rstar_split, SplitScratch};
use crate::Node;
use pc_geom::{Point, Rect};
use std::ops::Range;

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
/// the entry set — through a super entry's four entry indices or, for a
/// leaf, from the node's own entry.
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

/// The entry MBRs a [`Bpt`] was built over — where every cell's MBR is
/// read from. Every `Bpt` method that hands out a cell takes the same entry
/// set the tree was built from.
pub trait EntryMbrs {
    /// The rectangle spanned by the min x, min y, max x and max y of the
    /// entries `[x0, y0, x1, y1]` name, in that order: one load per
    /// coordinate.
    fn extent(&self, extremes: [u16; 4]) -> Rect;

    /// One entry's own MBR.
    #[inline]
    fn entry_mbr(&self, entry_idx: u16) -> Rect {
        self.extent([entry_idx; 4])
    }
}

impl EntryMbrs for Node {
    #[inline]
    fn extent(&self, [x0, y0, x1, y1]: [u16; 4]) -> Rect {
        // The raw columns, as stored: the BPT was built over them.
        let (min_x, min_y, max_x, max_y) = self.mbr_cols();
        Rect {
            min: Point::new(min_x[x0 as usize], min_y[y0 as usize]),
            max: Point::new(max_x[x1 as usize], max_y[y1 as usize]),
        }
    }
}

impl EntryMbrs for [Rect] {
    #[inline]
    fn extent(&self, [x0, y0, x1, y1]: [u16; 4]) -> Rect {
        Rect {
            min: Point::new(self[x0 as usize].min.x, self[y0 as usize].min.y),
            max: Point::new(self[x1 as usize].max.x, self[y1 as usize].max.y),
        }
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

/// Working memory of one BPT build, reused from node to node: a bulk
/// load's builder thread, or one edit's dirty set, allocates these buffers
/// once, after which a build allocates only the BPT's own column.
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

/// One super entry, 12 B: where its cells are and which entries its MBR's
/// coordinates come from.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct SuperEntry {
    /// `[left, right]` child references: an index into the super-entry
    /// column, or `LEAF_BIT | entry_idx`.
    kids: [u16; 2],
    /// The entries attaining the MBR's min x, min y, max x and max y
    /// ([`EntryMbrs::extent`]).
    extremes: [u16; 4],
}

/// The binary partition tree of one R-tree node: its super entries only
/// (module docs — leaves are implicit).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Bpt {
    /// The super entries in build pre-order; super entry 0 is the root of
    /// a BPT over two or more entries.
    supers: Vec<SuperEntry>,
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
        clear_to(&mut self.supers, supers);
        self.entries = n as u16;
        self.height = 0;
        if n > 0 {
            scratch.ids.clear();
            scratch.ids.extend(0..n as u16);
            self.build_rec(0..n, entry_mbrs, 0, policy, scratch);
        }
    }

    /// Builds the subtree over `scratch.ids[range]`; returns the reference
    /// to its root cell and the entries attaining that cell's MBR.
    fn build_rec(
        &mut self,
        range: Range<usize>,
        mbrs: &[Rect],
        depth: u8,
        policy: SplitPolicy,
        scratch: &mut BptScratch,
    ) -> (u16, [u16; 4]) {
        self.height = self.height.max(depth);
        if range.len() == 1 {
            let entry_idx = scratch.ids[range.start];
            return (LEAF_BIT | entry_idx, [entry_idx; 4]);
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
        // (pre-order numbering); it is filled on the way back.
        let at = self.supers.len();
        self.supers.push(SuperEntry::default());
        let (left, l_ext) = self.build_rec(range.start..mid, mbrs, depth + 1, policy, scratch);
        let (right, r_ext) = self.build_rec(mid..range.end, mbrs, depth + 1, policy, scratch);
        let l_mbr = mbrs.extent(l_ext);
        let mbr = l_mbr.union(&mbrs.extent(r_ext));
        // `min` / `max` return one operand's bits, so each coordinate of
        // the union is one side's: name that side's entry for it.
        let side = |k: usize, union: f64, left: f64| {
            if union.to_bits() == left.to_bits() {
                l_ext[k]
            } else {
                r_ext[k]
            }
        };
        let extremes = [
            side(0, mbr.min.x, l_mbr.min.x),
            side(1, mbr.min.y, l_mbr.min.y),
            side(2, mbr.max.x, l_mbr.max.x),
            side(3, mbr.max.y, l_mbr.max.y),
        ];
        self.supers[at] = SuperEntry {
            kids: [left, right],
            extremes,
        };
        (at as u16, extremes)
    }

    /// Number of cells (`2N - 1` for an `N`-entry node).
    pub fn cell_count(&self) -> usize {
        self.entries as usize + self.supers.len()
    }

    /// Number of super entries (`N - 1`).
    pub fn internal_count(&self) -> usize {
        self.supers.len()
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
            at = self.supers[at as usize].kids[code.bit(i) as usize];
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
                mbr: entries.extent(self.supers[at as usize].extremes),
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
        let [left, right] = self.supers[at as usize].kids;
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
        let [left, right] = self.supers[at as usize].kids;
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
        let [left, right] = self.supers[at as usize].kids;
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

    /// How many cells [`descend`](Self::descend) visits, reading no MBR:
    /// what a shipment reserves before it is cut.
    pub fn descent_len(&self, code: Code, d: u8) -> usize {
        let mut n = 0;
        if let Some(at) = self.resolve(code) {
            self.walk(at, code, d, &mut |_, _| n += 1);
        }
        n
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

    /// Overwrites this BPT with `src`, its column at exactly `src`'s
    /// length, as a build leaves it: a copy-on-write copy of a node whose
    /// entries did not change.
    pub(crate) fn copy_from(&mut self, src: &Bpt) {
        clear_to(&mut self.supers, src.supers.len());
        self.supers.extend_from_slice(&src.supers);
        self.entries = src.entries;
        self.height = src.height;
    }

    /// Heap bytes this BPT keeps resident, by capacity: the super-entry
    /// column (12 B per super entry) plus the header.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        size_of::<Bpt>() + self.supers.capacity() * size_of::<SuperEntry>()
    }
}

/// Builds BPTs straight off tree nodes, gathering each node's SoA MBR
/// columns, as stored, into one reused buffer beside a [`BptScratch`].
#[derive(Default)]
pub(crate) struct BptBuilder {
    mbrs: Vec<Rect>,
    scratch: BptScratch,
}

impl BptBuilder {
    /// A fresh BPT over `node`'s entries.
    pub(crate) fn build(&mut self, node: &Node, policy: SplitPolicy) -> Bpt {
        let mut bpt = Bpt::default();
        self.build_into(node, policy, &mut bpt);
        bpt
    }

    /// Rebuilds `node`'s own BPT in place, into the column it already has.
    pub(crate) fn rebuild(&mut self, node: &mut Node, policy: SplitPolicy) {
        let mut bpt = std::mem::take(&mut node.bpt);
        self.build_into(node, policy, &mut bpt);
        node.bpt = bpt;
    }

    fn build_into(&mut self, node: &Node, policy: SplitPolicy, bpt: &mut Bpt) {
        self.mbrs.clear();
        self.mbrs
            .extend((0..node.len()).map(|j| node.entry_mbr(j as u16)));
        bpt.rebuild(&self.mbrs, policy, &mut self.scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn heap_bytes_is_12_per_super_entry() {
        // Implicit leaves and implicit MBRs: one exact-capacity column of
        // two child references and four entry indices, nothing per leaf.
        let bpt = Bpt::build(&mbrs(102));
        assert_eq!(bpt.heap_bytes(), std::mem::size_of::<Bpt>() + 101 * 12);
    }

    fn rect_bits(r: Rect) -> [u64; 4] {
        [r.min.x, r.min.y, r.max.x, r.max.y].map(f64::to_bits)
    }

    /// The entry MBRs under `code`, left subtree before right: the order
    /// the build unions them in.
    fn span(bpt: &Bpt, ms: &[Rect], code: Code, out: &mut Vec<Rect>) {
        match bpt.children(code, ms) {
            Some([(left, _), (right, _)]) => {
                span(bpt, ms, left, out);
                span(bpt, ms, right, out);
            }
            None => out.push(bpt.find(code, ms).unwrap().mbr),
        }
    }

    #[test]
    fn super_entry_mbrs_are_their_spans_union_bit_for_bit() {
        let z = |negative: bool| if negative { -0.0 } else { 0.0 };
        // Extremes tied across the two children: every coordinate drawn
        // from three values, so most super entries have both sides attain
        // each of their four extremes.
        let duplicated: Vec<Rect> = (0..60)
            .map(|i| {
                let c = |k: usize| [0.25, 0.5, 0.75][(i * k + i / 3) % 3];
                Rect::from_coords(c(1), c(2), c(1) + 0.25, c(2) + 0.25)
            })
            .collect();
        // Signed zeros that compare equal but differ in bits, in both
        // corners (built raw: the constructors normalize corners).
        let zeros: Vec<Rect> = (0..45)
            .map(|i| Rect {
                min: Point::new(z(i % 2 == 0), z(i % 3 == 0)),
                max: Point::new(z(i % 5 == 0), if i % 4 == 0 { 0.5 } else { z(i % 7 == 0) }),
            })
            .collect();
        let points: Vec<Rect> = (0..50)
            .map(|i| Rect::from_point(Point::new((i % 4) as f64 * 0.1, z(i % 3 == 1))))
            .collect();
        for (what, ms) in [
            ("duplicated", duplicated),
            ("±0.0", zeros),
            ("points", points),
        ] {
            let node = Node::with_entries(
                None,
                0,
                ms.iter().enumerate().map(|(i, &mbr)| crate::Entry {
                    mbr,
                    child: crate::ChildRef::Object(crate::ObjectId(i as u32)),
                }),
            );
            for policy in [SplitPolicy::RStar, SplitPolicy::Midpoint] {
                let bpt = Bpt::build_with(&ms, policy);
                let mut codes = vec![Code::ROOT];
                let mut supers = 0;
                while let Some(code) = codes.pop() {
                    let Some([(left, _), (right, _)]) = bpt.children(code, &ms[..]) else {
                        continue;
                    };
                    supers += 1;
                    let mut entries = Vec::new();
                    span(&bpt, &ms, code, &mut entries);
                    let want = rect_bits(Rect::union_all(entries).unwrap());
                    let got = bpt.find(code, &ms[..]).unwrap().mbr;
                    assert_eq!(rect_bits(got), want, "{what} {policy:?} cell {code}");
                    // The node's columns hold the same coordinates.
                    let from_node = bpt.find(code, &node).unwrap().mbr;
                    assert_eq!(rect_bits(from_node), want, "{what} {policy:?} cell {code}");
                    codes.extend([left, right]);
                }
                assert_eq!(supers, ms.len() - 1, "{what} {policy:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "2^15 - 1 entries")]
    fn build_rejects_more_entries_than_a_child_ref_addresses() {
        let ms = vec![Rect::from_point(Point::new(0.5, 0.5)); 1 << 15];
        Bpt::build(&ms);
    }
}
