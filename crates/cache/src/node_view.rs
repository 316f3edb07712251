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

use pc_geom::{Point, Rect};
use pc_rtree::bpt::Code;
use pc_rtree::proto::{CellKind, CellRecord};

#[cfg(test)]
pub(crate) mod reference;

/// One known cell of the node's BPT.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ViewCell {
    pub mbr: Rect,
    pub kind: CellKind,
}

/// One position of the BPT the view has opened: a known cell, or a place
/// on the path to one (a cell whose sibling was shipped, or an ancestor
/// not yet synthesized).
#[derive(Clone, Copy, Debug)]
struct Slot {
    cell: ViewCell,
    /// The left child's slot, the right child's is next; 0 when no child
    /// was opened (slot 0 is the root, nobody's child).
    kids: u32,
    known: bool,
}

const VACANT: Slot = Slot {
    cell: ViewCell {
        mbr: Rect {
            min: Point::new(0.0, 0.0),
            max: Point::new(0.0, 0.0),
        },
        kind: CellKind::Super,
    },
    kids: 0,
    known: false,
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
/// The slot vector's capacity is exact: each merge reserves, once, the
/// slots of the pairs it opens, so it never regrows mid-way and the view
/// keeps no spare slots; a refinement that opens pairs reallocates once.
/// A power-of-two capacity held a full leaf's 187 slots (8 976 B) in 256
/// (12 288 B). Exact, that block fits in the space two freed 4 512 B
/// shipments leave, which is where a draining absorb
/// ([`ProactiveCache::absorb_drain`](crate::ProactiveCache::absorb_drain))
/// puts it.
#[derive(Clone, Debug)]
pub struct CachedNodeView {
    level: u16,
    slots: Vec<Slot>,
    /// Known cells.
    known: u32,
    /// Known cells whose left child is not known: the frontier.
    frontier: u32,
}

impl CachedNodeView {
    /// Builds a view from the first shipment for this node.
    pub fn new(level: u16, records: &[CellRecord]) -> Self {
        let mut v = Self::empty(level);
        v.merge(records);
        v
    }

    /// A view that knows nothing yet (invalid until a merge).
    pub(crate) fn empty(level: u16) -> Self {
        CachedNodeView {
            level,
            slots: Vec::new(),
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
    #[expect(
        clippy::panic,
        reason = "debug builds only: a merge that breaks the view's invariants is a cache bug, caught where it happens"
    )]
    pub fn merge(&mut self, records: &[CellRecord]) {
        self.merge_records(records);
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
    }

    /// [`merge`](Self::merge) without the debug validation, so a test can
    /// merge a batch that leaves the view invalid and ask for the verdict.
    pub(crate) fn merge_records(&mut self, records: &[CellRecord]) {
        if records.is_empty() {
            return;
        }
        // The shipment's codes, sorted twice below: on the stack for any
        // antichain of a 4 KB page's entries (102), so a merge allocates
        // nothing but its one reserve.
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
        self.slots.reserve_exact(need - self.slots.len());
        if self.slots.is_empty() {
            self.slots.push(VACANT);
        }
        let mut path = [0u32; MAX_PATH];
        for r in records {
            let depth = usize::from(r.code.depth());
            self.open_path(r.code, &mut path);
            let slot = path[depth] as usize;
            self.slots[slot].cell = ViewCell {
                mbr: r.mbr,
                kind: r.kind,
            };
            self.mark_known(r.code, &path);
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
                let at = path[usize::from(parent.depth())] as usize;
                if self.slots[at].known {
                    break;
                }
                let kids = self.slots[at].kids as usize;
                let (l, r) = (&self.slots[kids], &self.slots[kids + 1]);
                if !(l.known && r.known) {
                    // Sibling not yet known — a later record of this batch
                    // will complete the pair and synthesize upwards.
                    break;
                }
                self.slots[at].cell = ViewCell {
                    mbr: l.cell.mbr.union(&r.cell.mbr),
                    kind: CellKind::Super,
                };
                self.mark_known(parent, &path);
                cur = parent;
            }
        }
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
                Some(s) if s.kids != 0 => at = s.kids as usize + usize::from(code.bit(i)),
                _ => return i,
            }
        }
        code.depth()
    }

    /// Fills `path[..=depth]` with the slots from the root to `code`,
    /// opening every pair on the way that is not yet there.
    fn open_path(&mut self, code: Code, path: &mut [u32; MAX_PATH]) {
        let mut at = 0;
        for i in 0..code.depth() {
            if self.slots[at].kids == 0 {
                self.slots[at].kids = self.slots.len() as u32;
                self.slots.extend([VACANT; 2]);
            }
            at = self.slots[at].kids as usize + usize::from(code.bit(i));
            path[usize::from(i) + 1] = at as u32;
        }
    }

    /// Marks `code`, whose slots `path` holds, known, and keeps the
    /// frontier count: `code` joins it unless its left child is known, and
    /// a known parent leaves it when `code` is that parent's left child.
    fn mark_known(&mut self, code: Code, path: &[u32; MAX_PATH]) {
        let depth = usize::from(code.depth());
        let at = path[depth] as usize;
        if self.slots[at].known {
            return;
        }
        self.slots[at].known = true;
        self.known += 1;
        if !self.left_known(at) {
            self.frontier += 1;
        }
        if depth > 0 && !code.bit(code.depth() - 1) && self.slots[path[depth - 1] as usize].known {
            self.frontier -= 1;
        }
    }

    /// Whether the slot `at` has a known left child.
    fn left_known(&self, at: usize) -> bool {
        let kids = self.slots[at].kids as usize;
        kids != 0 && self.slots[kids].known
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
            at = slot.kids as usize + ((bits >> i) & 1) as usize;
            slot = &self.slots[at];
        }
        Some(at)
    }

    #[inline]
    pub fn cell(&self, code: Code) -> Option<&ViewCell> {
        let slot = &self.slots[self.find(code)?];
        slot.known.then_some(&slot.cell)
    }

    /// Children of a super cell, if known.
    #[inline]
    pub fn children(&self, code: Code) -> Option<[(Code, &ViewCell); 2]> {
        let kids = self.slots[self.find(code)?].kids as usize;
        if kids == 0 {
            return None;
        }
        let (l, r) = (&self.slots[kids], &self.slots[kids + 1]);
        (l.known && r.known).then(|| [(code.child(false), &l.cell), (code.child(true), &r.cell)])
    }

    /// Number of *frontier* cells: the finest known antichain, i.e. cells
    /// with no children in the view. This is what the cache charges for —
    /// interior cells are synthesized bookkeeping, not transmitted state.
    /// Kept by `merge`, so asking is free.
    pub fn frontier_len(&self) -> usize {
        self.frontier as usize
    }

    fn known_cells(&self) -> impl Iterator<Item = &ViewCell> + '_ {
        self.slots.iter().filter(|s| s.known).map(|s| &s.cell)
    }

    /// All object entries currently known in this (leaf) node's view.
    pub fn object_entries(&self) -> impl Iterator<Item = pc_rtree::ObjectId> + '_ {
        self.known_cells().filter_map(|c| match c.kind {
            CellKind::Object(o) => Some(o),
            _ => None,
        })
    }

    /// All child-node entries currently known in this node's view.
    pub fn node_entries(&self) -> impl Iterator<Item = pc_rtree::NodeId> + '_ {
        self.known_cells().filter_map(|c| match c.kind {
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
            let kids = self.slots[at].kids as usize;
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
            .filter(|&(_, at)| self.slots[at].known)
            .map(|(code, _)| code)
    }

    /// Slots opened and slots allocated, which the tests hold equal.
    #[cfg(test)]
    pub(crate) fn slot_usage(&self) -> (usize, usize) {
        (self.slots.len(), self.slots.capacity())
    }

    /// Checks the structural invariants; used by debug assertions and tests.
    pub fn debug_validate(&self) -> Result<(), String> {
        if self.known == 0 {
            return Err("empty view".into());
        }
        if self.cell(Code::ROOT).is_none() {
            return Err("root cell missing".into());
        }
        let (mut known, mut frontier) = (0, 0);
        for (code, at) in self.walk() {
            let slot = &self.slots[at];
            if !slot.known {
                continue;
            }
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
                if !p.mbr.contains_rect(&slot.cell.mbr) {
                    return Err(format!("parent of {code} does not cover it"));
                }
            }
            if let CellKind::Node(_) | CellKind::Object(_) = slot.cell.kind {
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
        );
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
        );
        assert_eq!(v.frontier_len(), 2);
        // Server later expands cell 0 into two entries (children MBRs lie
        // inside the super entry's MBR, as real BPT cells do).
        v.merge(&[
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
        ]);
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
        );
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
        );
        let objs: Vec<_> = v.object_entries().collect();
        assert_eq!(objs, vec![ObjectId(3)]);
    }

    #[test]
    fn single_entry_node_view() {
        // A node with one entry ships {ε} as a full entry.
        let v = CachedNodeView::new(1, &[rec(Code::ROOT, 0.0, CellKind::Node(NodeId(2)))]);
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
        );
        v.merge(&[
            rec(c0.child(false), 0.0, CellKind::Object(ObjectId(1))),
            rec(c0.child(true), 0.0, CellKind::Object(ObjectId(2))),
        ]);
        let at = v.find(c0).unwrap();
        v.slots[at].known = false;
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
        let mut v = CachedNodeView::new(0, &recs);
        let before = v.cell_count();
        v.merge(&recs);
        assert_eq!(v.cell_count(), before);
        assert_eq!(v.frontier_len(), 2);
    }
}
