//! The client's partial picture of one R-tree node: a prefix subtree of the
//! node's BPT, grown by merging the covering antichains the server ships
//! (full forms, compact forms, d⁺-level forms — the view cannot tell and
//! does not care).
//!
//! The subtree is an arena of slots in one vector: slot 0 is the BPT root
//! and a slot names its children by the index of their *pair*, siblings
//! being allocated side by side. A code is found by walking its branch
//! digits from the root — at most the BPT's depth of loads, no hashing —
//! which is what the cache's `IndexView::expand` does for every cell the
//! client's engine opens.
//!
//! A slot is 12 B and holds no cell. Shipped cells go, in arrival order,
//! into one column that a slot names them in by index. A synthesized
//! ancestor stores no MBR: like a server super entry (`pc_rtree::bpt`),
//! it names the column entries attaining its min x, min y, max x and
//! max y, so its MBR is four loads away. The column stores a point's
//! corner once, as a server node does: 24 B per cell, or 40 B in a view
//! holding a shipped cell that is not a point. An antichain of n shipped
//! points costs n × 24 B of column and ~2n × 12 B of slots.

use pc_geom::{Point, Rect};
use pc_rtree::bpt::Code;
use pc_rtree::is_point;
use pc_rtree::proto::{CellKind, CellRecord};

#[cfg(test)]
pub(crate) mod reference;

/// One known cell of the node's BPT.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ViewCell {
    pub mbr: Rect,
    pub kind: CellKind,
}

impl ViewCell {
    fn shipped(r: &CellRecord) -> Self {
        ViewCell {
            mbr: r.mbr,
            kind: r.kind,
        }
    }

    fn synthesized(mbr: Rect) -> Self {
        ViewCell {
            mbr,
            kind: CellKind::Super,
        }
    }

    /// Equal bit for bit: `0.0` is not `-0.0`, and a NaN is itself.
    fn same_bits(&self, other: &ViewCell) -> bool {
        let bits = |r: &Rect| [r.min.x, r.min.y, r.max.x, r.max.y].map(f64::to_bits);
        self.kind == other.kind && bits(&self.mbr) == bits(&other.mbr)
    }
}

/// No column index: a slot with no shipped cell, or (as `ext[0]`) a slot
/// whose cell is not known.
const NONE: u16 = u16::MAX;

/// The most slots, and the most column entries, a view holds: every index
/// stays below [`NONE`]. A BPT has fewer than 2¹⁵ entries, so fewer than
/// 2¹⁶ − 1 cells; only a shipment no BPT can have, or a column of many
/// differing re-ships, reaches it, and is declined.
const MAX_LEN: usize = NONE as usize;

/// The shipped cells, in arrival order. A point (min and max corners
/// bit-equal) keeps one corner, as `pc_rtree::Node` keeps its point
/// entries: `maxes` stays empty while every cell is a point, and holds
/// every cell's max corner once one is not.
#[derive(Clone, Debug, Default)]
struct Column {
    cells: Vec<Shipped>,
    maxes: Vec<Point>,
}

/// A shipped cell's min corner and kind, 24 B.
#[derive(Clone, Copy, Debug)]
struct Shipped {
    min: Point,
    kind: CellKind,
}

impl Column {
    fn len(&self) -> usize {
        self.cells.len()
    }

    /// Room for exactly `n` more cells, all points when `points`.
    fn reserve_exact(&mut self, n: usize, points: bool) {
        self.cells.reserve_exact(n);
        if !points || !self.maxes.is_empty() {
            self.maxes
                .reserve_exact(self.cells.len() + n - self.maxes.len());
        }
    }

    /// Appends `r`'s cell; returns its index.
    fn push(&mut self, r: &CellRecord) -> u16 {
        let at = self.cells.len();
        let keep_max = !self.maxes.is_empty() || !is_point(&r.mbr);
        if keep_max && self.maxes.len() < at {
            // The first cell that is not a point: fill in the max corners.
            self.maxes.extend(self.cells.iter().map(|c| c.min));
        }
        self.cells.push(Shipped {
            min: r.mbr.min,
            kind: r.kind,
        });
        if keep_max {
            self.maxes.push(r.mbr.max);
        }
        at as u16
    }

    #[inline]
    fn max(&self, i: u16) -> Point {
        let i = usize::from(i);
        self.maxes.get(i).copied().unwrap_or(self.cells[i].min)
    }

    /// The cell at `i`; `None` for [`NONE`].
    #[inline]
    fn cell(&self, i: u16) -> Option<ViewCell> {
        let c = self.cells.get(usize::from(i))?;
        Some(ViewCell {
            mbr: Rect {
                min: c.min,
                max: self.max(i),
            },
            kind: c.kind,
        })
    }

    /// The rectangle the entries `[x0, y0, x1, y1]` span: one load per
    /// coordinate, as `pc_rtree::bpt::EntryMbrs::extent` reads a node.
    #[inline]
    fn extent(&self, [x0, y0, x1, y1]: [u16; 4]) -> Rect {
        let min = |i: u16| self.cells[usize::from(i)].min;
        Rect {
            min: Point::new(min(x0).x, min(y0).y),
            max: Point::new(self.max(x1).x, self.max(y1).y),
        }
    }

    /// The known cell at `slot`: its shipped cell, or a super entry
    /// spanning its extremes.
    #[inline]
    fn view_cell(&self, slot: &Slot) -> ViewCell {
        self.cell(slot.cell)
            .unwrap_or_else(|| ViewCell::synthesized(self.extent(slot.ext)))
    }

    /// Spare entries, which the tests hold at 0.
    #[cfg(test)]
    fn spare_capacity(&self) -> usize {
        self.cells.capacity() - self.cells.len() + self.maxes.capacity() - self.maxes.len()
    }
}

/// One position of the BPT the view has opened: a known cell, or a place
/// on the path to one (a cell whose sibling was shipped, or an ancestor
/// not yet synthesized).
#[derive(Clone, Copy, Debug)]
struct Slot {
    /// The left child's slot, the right child's is next; 0 when no child
    /// was opened (slot 0 is the root, nobody's child).
    kids: u16,
    /// The shipped cell's column index, or [`NONE`].
    cell: u16,
    /// The column entries attaining the cell's min x, min y, max x and
    /// max y: `[cell; 4]` for a shipped cell, the children's picks for a
    /// synthesized one, `[NONE; 4]` for a cell not known.
    ext: [u16; 4],
}

impl Slot {
    #[inline]
    fn known(&self) -> bool {
        self.ext[0] != NONE
    }
}

const VACANT: Slot = Slot {
    kids: 0,
    cell: NONE,
    ext: [NONE; 4],
};

/// The deepest path a [`Code`] names, in slots (root included).
const MAX_PATH: usize = 33;

/// Partial knowledge about one node.
///
/// Invariants (checked by `debug_validate`):
/// * the root code `ε` is always present;
/// * cells come in sibling pairs: for any non-root cell, its sibling and
///   its parent are present too (shipments are covering antichains,
///   ancestors are synthesized as unions — see [`CachedNodeView::merge`]).
///
/// Memory: 12 B per opened slot and 24 or 40 B per column entry (module
/// docs). A re-shipped cell that differs from the one its slot names is
/// pushed anew and the slot repointed, so ancestors synthesized from the
/// old one keep their MBR; an identical re-ship pushes nothing.
///
/// Every capacity is exact: each merge reserves, once, the slots of the
/// pairs it opens and the column entries it pushes, so nothing regrows
/// mid-way and the view keeps nothing spare. A power-of-two capacity held
/// a full leaf's 187 slots in 256. Exact blocks fit in the space freed
/// shipments leave, which is where a draining absorb
/// ([`ProactiveCache::absorb_drain`](crate::ProactiveCache::absorb_drain))
/// puts them.
#[derive(Clone, Debug)]
pub struct CachedNodeView {
    level: u16,
    slots: Vec<Slot>,
    column: Column,
    /// Known cells.
    known: u32,
    /// Known cells whose left child is not known: the frontier.
    frontier: u32,
}

impl CachedNodeView {
    /// Builds a view from the first shipment for this node; `None` when
    /// the shipment is declined ([`merge`](Self::merge)).
    pub fn new(level: u16, records: &[CellRecord]) -> Option<Self> {
        let mut v = Self::empty(level);
        v.merge(records).then_some(v)
    }

    /// A view that knows nothing yet (invalid until a merge).
    pub(crate) fn empty(level: u16) -> Self {
        CachedNodeView {
            level,
            slots: Vec::new(),
            column: Column::default(),
            known: 0,
            frontier: 0,
        }
    }

    pub fn level(&self) -> u16 {
        self.level
    }

    /// Merges a shipment into the view. Shipped cells are inserted verbatim
    /// and every missing ancestor is synthesized as the union of its two
    /// children (sound because each shipment is a *covering antichain* of
    /// the subtree under the cell the client asked about, so sibling
    /// information is always complete up to an already-known cell).
    ///
    /// Returns `false`, leaving the view as it was, when the merge would
    /// take the slots or the column past their 16-bit indices.
    #[expect(
        clippy::panic,
        reason = "debug builds only: a merge that breaks the view's invariants is a cache bug, caught where it happens"
    )]
    #[must_use]
    pub fn merge(&mut self, records: &[CellRecord]) -> bool {
        if !self.merge_records(records) {
            return false;
        }
        if cfg!(debug_assertions) {
            if let Err(e) = self.debug_validate() {
                panic!(
                    "view invariant broken: {e}; level={} records={:?} cells={:?}",
                    self.level,
                    records,
                    self.codes().collect::<Vec<_>>()
                );
            }
        }
        true
    }

    /// [`merge`](Self::merge) without the debug validation, so a test can
    /// merge a batch that leaves the view invalid and ask for the verdict.
    pub(crate) fn merge_records(&mut self, records: &[CellRecord]) -> bool {
        if records.is_empty() {
            return true;
        }
        // The shipment's codes, sorted twice below: on the stack for any
        // antichain of a 4 KB page's entries (102), so a merge allocates
        // nothing but its reserves.
        let mut on_stack = [Code::ROOT; 128];
        let mut on_heap = Vec::new();
        let codes = if records.len() <= on_stack.len() {
            &mut on_stack[..records.len()]
        } else {
            on_heap.resize(records.len(), Code::ROOT);
            &mut on_heap[..]
        };
        for (code, r) in codes.iter_mut().zip(records) {
            *code = r.code;
        }
        let opened = 2 * self.pairs_to_open(codes);
        let need = self.slots.len().max(1) + opened;
        if need > MAX_LEN || self.column.len() + records.len() > MAX_LEN {
            return false;
        }
        let (mut pushed, mut points) = (0, true);
        for r in records.iter().filter(|r| !self.holds(r)) {
            pushed += 1;
            points &= is_point(&r.mbr);
        }
        self.slots.reserve_exact(need - self.slots.len());
        self.column.reserve_exact(pushed, points);
        if self.slots.is_empty() {
            self.slots.push(VACANT);
        }
        let mut path = [0u16; MAX_PATH];
        for r in records {
            let depth = usize::from(r.code.depth());
            self.open_path(r.code, &mut path);
            let slot = &mut self.slots[usize::from(path[depth])];
            let was_known = slot.known();
            if was_known && self.column.view_cell(slot).same_bits(&ViewCell::shipped(r)) {
                continue;
            }
            let at = self.column.push(r);
            (slot.cell, slot.ext) = (at, [at; 4]);
            if !was_known {
                self.count_known(r.code, &path);
            }
        }
        debug_assert!(self.slots.len() <= need, "merge opened uncounted pairs");
        // Synthesize ancestors bottom-up: deepest codes first. (Among codes
        // of one depth the order does not matter: a cell is synthesized
        // once both its children are known, whichever came last.)
        codes.sort_unstable_by_key(|c| std::cmp::Reverse(c.depth()));
        for &code in codes.iter() {
            self.open_path(code, &mut path);
            let mut cur = code;
            while let Some(parent) = cur.parent() {
                let at = usize::from(path[usize::from(parent.depth())]);
                if self.slots[at].known() {
                    break;
                }
                let kids = usize::from(self.slots[at].kids);
                let (l, r) = (self.slots[kids], self.slots[kids + 1]);
                if !(l.known() && r.known()) {
                    // Sibling not yet known — a later record of this batch
                    // will complete the pair and synthesize upwards.
                    break;
                }
                self.slots[at].ext = self.union_extremes(l.ext, r.ext);
                self.count_known(parent, &path);
                cur = parent;
            }
        }
        true
    }

    /// Whether the view already holds `r` bit for bit, so merging it
    /// pushes nothing.
    fn holds(&self, r: &CellRecord) -> bool {
        self.find(r.code)
            .map(|at| &self.slots[at])
            .is_some_and(|s| s.known() && self.column.view_cell(s).same_bits(&ViewCell::shipped(r)))
    }

    /// The extremes of the union of the cells with extremes `l` and `r`,
    /// picked as `Bpt::build_rec` picks them: `min` / `max` return one
    /// operand's bits, so each coordinate of the union is one side's —
    /// the left's when it has the left's bits. The MBR they name is
    /// `Rect::union` bit for bit.
    fn union_extremes(&self, l: [u16; 4], r: [u16; 4]) -> [u16; 4] {
        let (lm, rm) = (self.column.extent(l), self.column.extent(r));
        let u = lm.union(&rm);
        let side = |k: usize, union: f64, left: f64| {
            if union.to_bits() == left.to_bits() {
                l[k]
            } else {
                r[k]
            }
        };
        [
            side(0, u.min.x, lm.min.x),
            side(1, u.min.y, lm.min.y),
            side(2, u.max.x, lm.max.x),
            side(3, u.max.y, lm.max.y),
        ]
    }

    /// The pairs merging `codes` opens: each code's path below the slots
    /// already opened, counting a pair two codes share once. Sorts `codes`
    /// in pre-order, where the pairs a code shares with any earlier one are
    /// those it shares with its predecessor.
    fn pairs_to_open(&self, codes: &mut [Code]) -> usize {
        codes.sort_unstable_by_key(|c| {
            let (bits, len) = c.raw();
            (bits.reverse_bits(), len)
        });
        let mut prev: Option<Code> = None;
        let mut pairs = 0;
        for &code in codes.iter() {
            let shared = prev.map_or(0, |p| {
                let ((a, la), (b, lb)) = (p.raw(), code.raw());
                let common = ((a ^ b).trailing_zeros() as u8).min(la).min(lb);
                (common + 1).min(la)
            });
            let depth = code.depth();
            pairs += usize::from(depth.saturating_sub(self.opened_depth(code).max(shared)));
            prev = Some(code);
        }
        pairs
    }

    /// How many of `code`'s ancestors already have their children opened.
    fn opened_depth(&self, code: Code) -> u8 {
        let mut at = 0;
        for i in 0..code.depth() {
            match self.slots.get(at) {
                Some(s) if s.kids != 0 => at = usize::from(s.kids) + usize::from(code.bit(i)),
                _ => return i,
            }
        }
        code.depth()
    }

    /// Fills `path[..=depth]` with the slots from the root to `code`,
    /// opening every pair on the way that is not yet there.
    fn open_path(&mut self, code: Code, path: &mut [u16; MAX_PATH]) {
        let mut at = 0;
        for i in 0..code.depth() {
            if self.slots[at].kids == 0 {
                self.slots[at].kids = self.slots.len() as u16;
                self.slots.extend([VACANT; 2]);
            }
            at = usize::from(self.slots[at].kids) + usize::from(code.bit(i));
            path[usize::from(i) + 1] = at as u16;
        }
    }

    /// Counts `code`, whose slots `path` holds and which has just become
    /// known, and keeps the frontier count: `code` joins it unless its
    /// left child is known, and a known parent leaves it when `code` is
    /// that parent's left child.
    fn count_known(&mut self, code: Code, path: &[u16; MAX_PATH]) {
        let depth = usize::from(code.depth());
        self.known += 1;
        if !self.left_known(usize::from(path[depth])) {
            self.frontier += 1;
        }
        if depth > 0
            && !code.bit(code.depth() - 1)
            && self.slots[usize::from(path[depth - 1])].known()
        {
            self.frontier -= 1;
        }
    }

    /// Whether the slot `at` has a known left child.
    fn left_known(&self, at: usize) -> bool {
        let kids = usize::from(self.slots[at].kids);
        kids != 0 && self.slots[kids].known()
    }

    /// `code`'s slot, known or not; `None` when its path was never opened.
    #[inline]
    fn find(&self, code: Code) -> Option<usize> {
        let (bits, len) = code.raw();
        let mut at = 0;
        let mut slot = self.slots.first()?;
        for i in 0..len {
            if slot.kids == 0 {
                return None;
            }
            at = usize::from(slot.kids) + ((bits >> i) & 1) as usize;
            slot = &self.slots[at];
        }
        Some(at)
    }

    #[inline]
    pub fn cell(&self, code: Code) -> Option<ViewCell> {
        let slot = &self.slots[self.find(code)?];
        slot.known().then(|| self.column.view_cell(slot))
    }

    /// Children of a super cell, if known.
    #[inline]
    pub fn children(&self, code: Code) -> Option<[(Code, ViewCell); 2]> {
        let kids = usize::from(self.slots[self.find(code)?].kids);
        if kids == 0 {
            return None;
        }
        let (l, r) = (&self.slots[kids], &self.slots[kids + 1]);
        (l.known() && r.known()).then(|| {
            [
                (code.child(false), self.column.view_cell(l)),
                (code.child(true), self.column.view_cell(r)),
            ]
        })
    }

    /// Number of *frontier* cells: the finest known antichain, i.e. cells
    /// with no children in the view. This is what the cache charges for —
    /// interior cells are synthesized bookkeeping, not transmitted state.
    /// Kept by `merge`, so asking is free.
    pub fn frontier_len(&self) -> usize {
        self.frontier as usize
    }

    /// The kinds of the cells the slots name as shipped: the column
    /// without the entries later re-ships replaced.
    fn shipped_kinds(&self) -> impl Iterator<Item = CellKind> + '_ {
        self.slots
            .iter()
            .filter_map(|s| self.column.cells.get(usize::from(s.cell)))
            .map(|c| c.kind)
    }

    /// All object entries currently known in this (leaf) node's view.
    pub fn object_entries(&self) -> impl Iterator<Item = pc_rtree::ObjectId> + '_ {
        self.shipped_kinds().filter_map(|kind| match kind {
            CellKind::Object(o) => Some(o),
            _ => None,
        })
    }

    /// All child-node entries currently known in this node's view.
    pub fn node_entries(&self) -> impl Iterator<Item = pc_rtree::NodeId> + '_ {
        self.shipped_kinds().filter_map(|kind| match kind {
            CellKind::Node(n) => Some(n),
            _ => None,
        })
    }

    /// MBR of the whole node as known (the root cell's MBR).
    pub fn root_mbr(&self) -> Option<Rect> {
        self.cell(Code::ROOT).map(|c| c.mbr)
    }

    pub fn cell_count(&self) -> usize {
        self.known as usize
    }

    /// Every opened slot with its code, parents before children.
    fn walk(&self) -> impl Iterator<Item = (Code, usize)> + '_ {
        let mut stack: Vec<(Code, usize)> = Vec::new();
        if !self.slots.is_empty() {
            stack.push((Code::ROOT, 0));
        }
        std::iter::from_fn(move || {
            let (code, at) = stack.pop()?;
            let kids = usize::from(self.slots[at].kids);
            if kids != 0 {
                stack.push((code.child(true), kids + 1));
                stack.push((code.child(false), kids));
            }
            Some((code, at))
        })
    }

    /// The codes of the known cells, in pre-order.
    pub(crate) fn codes(&self) -> impl Iterator<Item = Code> + '_ {
        self.walk()
            .filter(|&(_, at)| self.slots[at].known())
            .map(|(code, _)| code)
    }

    /// Spare slots and spare column entries, which the tests hold at 0.
    #[cfg(test)]
    pub(crate) fn spare_capacity(&self) -> (usize, usize) {
        (
            self.slots.capacity() - self.slots.len(),
            self.column.spare_capacity(),
        )
    }

    /// Checks the structural invariants; used by debug assertions and tests.
    pub fn debug_validate(&self) -> Result<(), String> {
        if self.known == 0 {
            return Err("empty view".into());
        }
        if self.cell(Code::ROOT).is_none() {
            return Err("root cell missing".into());
        }
        let maxes = self.column.maxes.len();
        if maxes != 0 && maxes != self.column.len() {
            return Err(format!(
                "{maxes} max corners for {} cells",
                self.column.len()
            ));
        }
        let (mut known, mut frontier) = (0, 0);
        for (code, at) in self.walk() {
            let slot = &self.slots[at];
            if !slot.known() {
                continue;
            }
            let mut indices = slot
                .ext
                .iter()
                .chain((slot.cell != NONE).then_some(&slot.cell));
            if indices.any(|&i| usize::from(i) >= self.column.len()) {
                return Err(format!("cell {code} names no column entry"));
            }
            let cell = self.column.view_cell(slot);
            known += 1;
            if !self.left_known(at) {
                frontier += 1;
            }
            if let Some(parent) = code.parent() {
                let sibling = parent.child(!code.bit(code.depth() - 1));
                if self.cell(sibling).is_none() {
                    return Err(format!("cell {code} lacks sibling"));
                }
                // A known cell under an unknown parent: the path was opened
                // but the parent never synthesized.
                let Some(p) = self.cell(parent) else {
                    return Err(format!("cell {code} lacks parent"));
                };
                if !p.mbr.contains_rect(&cell.mbr) {
                    return Err(format!("parent of {code} does not cover it"));
                }
            }
            if let CellKind::Node(_) | CellKind::Object(_) = cell.kind {
                if self.left_known(at) {
                    return Err(format!("entry cell {code} has children"));
                }
            }
        }
        if (known, frontier) != (self.known, self.frontier) {
            return Err(format!(
                "counted {known} cells / {frontier} frontier, kept {} / {}",
                self.known, self.frontier
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_rtree::{NodeId, ObjectId};

    fn rec(code: Code, x: f64, kind: CellKind) -> CellRecord {
        CellRecord {
            code,
            mbr: Rect::from_coords(x, 0.0, x + 0.1, 0.1),
            kind,
        }
    }

    #[test]
    fn first_merge_synthesizes_ancestors() {
        // Antichain {0, 10, 11} covering the root.
        let c0 = Code::ROOT.child(false);
        let c10 = Code::ROOT.child(true).child(false);
        let c11 = Code::ROOT.child(true).child(true);
        let v = CachedNodeView::new(
            0,
            &[
                rec(c0, 0.0, CellKind::Super),
                rec(c10, 0.2, CellKind::Object(ObjectId(1))),
                rec(c11, 0.4, CellKind::Object(ObjectId(2))),
            ],
        )
        .unwrap();
        assert!(v.cell(Code::ROOT).is_some(), "root synthesized");
        assert!(
            v.cell(Code::ROOT.child(true)).is_some(),
            "cell 1 synthesized"
        );
        assert_eq!(v.frontier_len(), 3);
        assert_eq!(v.cell_count(), 5);
        // Synthesized internal MBRs are unions.
        let parent = v.cell(Code::ROOT.child(true)).unwrap();
        assert_eq!(
            parent.mbr,
            v.cell(c10).unwrap().mbr.union(&v.cell(c11).unwrap().mbr)
        );
        v.debug_validate().unwrap();
    }

    #[test]
    fn refining_merge_grows_frontier() {
        let c0 = Code::ROOT.child(false);
        let c1 = Code::ROOT.child(true);
        let mut v = CachedNodeView::new(
            1,
            &[rec(c0, 0.0, CellKind::Super), rec(c1, 0.3, CellKind::Super)],
        )
        .unwrap();
        assert_eq!(v.frontier_len(), 2);
        // Server later expands cell 0 into two entries (children MBRs lie
        // inside the super entry's MBR, as real BPT cells do).
        assert!(v.merge(&[
            CellRecord {
                code: c0.child(false),
                mbr: Rect::from_coords(0.0, 0.0, 0.04, 0.1),
                kind: CellKind::Node(NodeId(7)),
            },
            CellRecord {
                code: c0.child(true),
                mbr: Rect::from_coords(0.05, 0.0, 0.1, 0.1),
                kind: CellKind::Node(NodeId(8)),
            },
        ]));
        assert_eq!(v.frontier_len(), 3);
        assert_eq!(v.node_entries().count(), 2);
        v.debug_validate().unwrap();
    }

    #[test]
    fn children_lookup_requires_both() {
        let c0 = Code::ROOT.child(false);
        let c1 = Code::ROOT.child(true);
        let v = CachedNodeView::new(
            0,
            &[rec(c0, 0.0, CellKind::Super), rec(c1, 0.5, CellKind::Super)],
        )
        .unwrap();
        assert!(v.children(Code::ROOT).is_some());
        assert!(v.children(c0).is_none(), "no grandchildren shipped");
    }

    #[test]
    fn object_entries_enumerates_objects() {
        let c0 = Code::ROOT.child(false);
        let c1 = Code::ROOT.child(true);
        let v = CachedNodeView::new(
            0,
            &[
                rec(c0, 0.0, CellKind::Object(ObjectId(3))),
                rec(c1, 0.5, CellKind::Super),
            ],
        )
        .unwrap();
        let objs: Vec<_> = v.object_entries().collect();
        assert_eq!(objs, vec![ObjectId(3)]);
    }

    #[test]
    fn single_entry_node_view() {
        // A node with one entry ships {ε} as a full entry.
        let v = CachedNodeView::new(1, &[rec(Code::ROOT, 0.0, CellKind::Node(NodeId(2)))]).unwrap();
        assert_eq!(v.frontier_len(), 1);
        assert_eq!(v.cell_count(), 1);
        v.debug_validate().unwrap();
    }

    #[test]
    fn known_cell_under_unknown_parent_is_invalid() {
        // No merge leaves this state (a pair of known siblings always
        // synthesizes its parent), so it is made by hand: {0, 1}, then 0
        // refined into {00, 01}, then 0 forgotten — which makes the root,
        // whose left child it was, a frontier cell again.
        let c0 = Code::ROOT.child(false);
        let mut v = CachedNodeView::new(
            0,
            &[
                rec(c0, 0.0, CellKind::Super),
                rec(Code::ROOT.child(true), 0.5, CellKind::Super),
            ],
        )
        .unwrap();
        assert!(v.merge(&[
            rec(c0.child(false), 0.0, CellKind::Object(ObjectId(1))),
            rec(c0.child(true), 0.0, CellKind::Object(ObjectId(2))),
        ]));
        let at = v.find(c0).unwrap();
        (v.slots[at].cell, v.slots[at].ext) = (NONE, [NONE; 4]);
        v.known -= 1;
        v.frontier += 1;
        assert!(v.cell(c0.child(false)).is_some());
        let err = v.debug_validate().unwrap_err();
        assert!(err.contains("lacks parent"), "{err}");
    }

    #[test]
    fn idempotent_merge() {
        let c0 = Code::ROOT.child(false);
        let c1 = Code::ROOT.child(true);
        let recs = [rec(c0, 0.0, CellKind::Super), rec(c1, 0.5, CellKind::Super)];
        let mut v = CachedNodeView::new(0, &recs).unwrap();
        let before = v.cell_count();
        assert!(v.merge(&recs));
        assert_eq!(v.cell_count(), before);
        assert_eq!(v.frontier_len(), 2);
        assert_eq!(v.column.len(), 2, "an identical re-ship pushes nothing");
    }

    #[test]
    fn a_slot_is_twelve_bytes() {
        assert_eq!(std::mem::size_of::<Slot>(), 12);
    }

    /// A synthesized MBR is `Rect::union` of its children bit for bit,
    /// whichever side holds an equal coordinate or the `-0.0` of a
    /// `±0.0` pair.
    #[test]
    fn synthesized_mbr_is_the_union_bit_for_bit() {
        let bits = |r: Rect| [r.min.x, r.min.y, r.max.x, r.max.y].map(f64::to_bits);
        let (c0, c1) = (Code::ROOT.child(false), Code::ROOT.child(true));
        let pairs = [
            // Equal coordinates on both sides.
            (
                Rect::from_coords(0.25, 0.5, 0.75, 1.0),
                Rect::from_coords(0.25, 0.5, 0.75, 1.0),
            ),
            // Signed zeros: each coordinate's extreme is `±0.0` on both
            // sides, `-0.0` left on two coordinates and right on two.
            (
                Rect::from_coords(-0.0, 0.0, -0.0, 0.0),
                Rect::from_coords(0.0, -0.0, 0.0, -0.0),
            ),
            // Points, which the column keeps one corner of, with signed
            // zeros on either side.
            (
                Rect::from_coords(-0.0, 0.0, -0.0, 0.0),
                Rect::from_coords(0.0, -0.0, 0.0, -0.0),
            ),
            // Mixed: an equal min x, a signed-zero min y, distinct maxima.
            (
                Rect::from_coords(0.125, -0.0, 0.5, 0.25),
                Rect::from_coords(0.125, 0.0, 0.375, 0.5),
            ),
        ];
        for (a, b) in pairs {
            for (l, r) in [(a, b), (b, a)] {
                let v = CachedNodeView::new(
                    0,
                    &[
                        CellRecord {
                            code: c0,
                            mbr: l,
                            kind: CellKind::Super,
                        },
                        CellRecord {
                            code: c1,
                            mbr: r,
                            kind: CellKind::Super,
                        },
                    ],
                )
                .unwrap();
                let root = v.cell(Code::ROOT).unwrap();
                assert_eq!(root.kind, CellKind::Super);
                assert_eq!(bits(root.mbr), bits(l.union(&r)), "{l:?} ∪ {r:?}");
            }
        }
    }

    /// A point keeps one corner until the view holds a shipped cell that
    /// is not one; then every cell keeps both, and reads back as shipped.
    #[test]
    fn a_point_keeps_one_corner() {
        let bits = |r: Rect| [r.min.x, r.min.y, r.max.x, r.max.y].map(f64::to_bits);
        let (c0, c1) = (Code::ROOT.child(false), Code::ROOT.child(true));
        let cell = |code, mbr| CellRecord {
            code,
            mbr,
            kind: CellKind::Object(ObjectId(0)),
        };
        let (p0, p1) = (
            Rect::from_point(Point::new(0.25, -0.0)),
            Rect::from_point(Point::new(0.5, 0.75)),
        );
        let mut v = CachedNodeView::new(0, &[cell(c0, p0), cell(c1, p1)]).unwrap();
        assert!(v.column.maxes.is_empty());
        assert_eq!(bits(v.cell(Code::ROOT).unwrap().mbr), bits(p0.union(&p1)));
        // Re-shipped as a box: the max corners are filled in.
        let boxed = Rect::from_coords(0.5, 0.75, 0.625, 0.875);
        assert!(v.merge_records(&[cell(c1, boxed)]));
        assert_eq!(v.column.maxes.len(), v.column.len());
        assert_eq!(v.spare_capacity(), (0, 0));
        assert_eq!(bits(v.cell(c0).unwrap().mbr), bits(p0));
        assert_eq!(bits(v.cell(c1).unwrap().mbr), bits(boxed));
        assert_eq!(bits(v.cell(Code::ROOT).unwrap().mbr), bits(p0.union(&p1)));
    }

    /// A shipment that would take the column or the slots past their
    /// 16-bit indices is declined: no view is built, an existing one is
    /// left as it was, and nothing panics. No BPT ships either: 2¹⁶ cells
    /// (a full antichain 16 levels deep), or 2 048 paths 31 levels deep,
    /// which open ~86 000 slots.
    #[test]
    fn an_over_large_shipment_is_declined() {
        let shipment = |n: u32, depth: u8| -> Vec<CellRecord> {
            (0..n)
                .map(|i| CellRecord {
                    code: (0..depth).fold(Code::ROOT, |c, d| c.child(d < 16 && i >> d & 1 == 1)),
                    mbr: Rect::from_coords(0.0, 0.0, 0.1, 0.1),
                    kind: CellKind::Object(ObjectId(i)),
                })
                .collect()
        };
        let (c0, c1) = (Code::ROOT.child(false), Code::ROOT.child(true));
        for over in [shipment(1 << 16, 16), shipment(1 << 11, 31)] {
            assert!(CachedNodeView::new(0, &over).is_none());
            let mut v = CachedNodeView::new(
                0,
                &[rec(c0, 0.0, CellKind::Super), rec(c1, 0.5, CellKind::Super)],
            )
            .unwrap();
            assert!(!v.merge(&over));
            assert_eq!((v.cell_count(), v.frontier_len()), (3, 2));
            assert_eq!((v.slots.len(), v.column.len()), (3, 2));
            v.debug_validate().unwrap();
        }
    }
}
