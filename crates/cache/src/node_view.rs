//! The client's partial picture of one R-tree node: a prefix subtree of the
//! node's BPT, grown by merging the covering antichains the server ships
//! (full forms, compact forms, d⁺-level forms — the view cannot tell and
//! does not care).

use pc_geom::Rect;
use pc_rtree::bpt::Code;
use pc_rtree::proto::{CellKind, CellRecord};
use std::collections::HashMap;

/// One known cell of the node's BPT.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ViewCell {
    pub mbr: Rect,
    pub kind: CellKind,
}

/// Partial knowledge about one node.
///
/// Invariants (checked by `debug_validate`):
/// * the root code `ε` is always present;
/// * cells come in sibling pairs: for any non-root cell, its sibling is
///   present too (shipments are covering antichains, ancestors are
///   synthesized as unions — see [`CachedNodeView::merge`]).
#[derive(Clone, Debug)]
pub struct CachedNodeView {
    level: u16,
    cells: HashMap<Code, ViewCell>,
}

impl CachedNodeView {
    /// Builds a view from the first shipment for this node.
    pub fn new(level: u16, records: &[CellRecord]) -> Self {
        let mut v = CachedNodeView {
            level,
            cells: HashMap::with_capacity(records.len() * 2),
        };
        v.merge(records);
        v
    }

    pub fn level(&self) -> u16 {
        self.level
    }

    /// Merges a shipment into the view. Shipped cells are inserted verbatim
    /// and every missing ancestor is synthesized as the union of its two
    /// children (sound because each shipment is a *covering antichain* of
    /// the subtree under the cell the client asked about, so sibling
    /// information is always complete up to an already-known cell).
    pub fn merge(&mut self, records: &[CellRecord]) {
        self.merge_records(records);
        if cfg!(debug_assertions) {
            if let Err(e) = self.debug_validate() {
                panic!(
                    "view invariant broken: {e}; level={} records={:?} cells={:?}",
                    self.level,
                    records,
                    self.cells.keys().collect::<Vec<_>>()
                );
            }
        }
    }

    fn merge_records(&mut self, records: &[CellRecord]) {
        for r in records {
            self.cells.insert(
                r.code,
                ViewCell {
                    mbr: r.mbr,
                    kind: r.kind,
                },
            );
        }
        // Synthesize ancestors bottom-up: deepest codes first.
        let mut codes: Vec<Code> = records.iter().map(|r| r.code).collect();
        codes.sort_by_key(|c| std::cmp::Reverse(c.depth()));
        for code in codes {
            let mut cur = code;
            while let Some(parent) = cur.parent() {
                if self.cells.contains_key(&parent) {
                    break;
                }
                let left = parent.child(false);
                let right = parent.child(true);
                let (Some(l), Some(r)) = (self.cells.get(&left), self.cells.get(&right)) else {
                    // Sibling not yet inserted — a later record of this
                    // batch will complete the pair and synthesize upwards.
                    break;
                };
                let mbr = l.mbr.union(&r.mbr);
                self.cells.insert(
                    parent,
                    ViewCell {
                        mbr,
                        kind: CellKind::Super,
                    },
                );
                cur = parent;
            }
        }
    }

    #[inline]
    pub fn cell(&self, code: Code) -> Option<&ViewCell> {
        self.cells.get(&code)
    }

    /// Children of a super cell, if known.
    pub fn children(&self, code: Code) -> Option<[(Code, &ViewCell); 2]> {
        let l = code.child(false);
        let r = code.child(true);
        match (self.cells.get(&l), self.cells.get(&r)) {
            (Some(lc), Some(rc)) => Some([(l, lc), (r, rc)]),
            _ => None,
        }
    }

    /// Number of *frontier* cells: the finest known antichain, i.e. cells
    /// with no children in the view. This is what the cache charges for —
    /// interior cells are synthesized bookkeeping, not transmitted state.
    pub fn frontier_len(&self) -> usize {
        self.cells
            .keys()
            .filter(|c| !self.cells.contains_key(&c.child(false)))
            .count()
    }

    /// All object entries currently known in this (leaf) node's view.
    pub fn object_entries(&self) -> impl Iterator<Item = pc_rtree::ObjectId> + '_ {
        self.cells.values().filter_map(|c| match c.kind {
            CellKind::Object(o) => Some(o),
            _ => None,
        })
    }

    /// All child-node entries currently known in this node's view.
    pub fn node_entries(&self) -> impl Iterator<Item = pc_rtree::NodeId> + '_ {
        self.cells.values().filter_map(|c| match c.kind {
            CellKind::Node(n) => Some(n),
            _ => None,
        })
    }

    /// MBR of the whole node as known (the root cell's MBR).
    pub fn root_mbr(&self) -> Option<Rect> {
        self.cells.get(&Code::ROOT).map(|c| c.mbr)
    }

    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Checks the structural invariants; used by debug assertions and tests.
    pub fn debug_validate(&self) -> Result<(), String> {
        if self.cells.is_empty() {
            return Err("empty view".into());
        }
        if !self.cells.contains_key(&Code::ROOT) {
            return Err("root cell missing".into());
        }
        for code in self.cells.keys() {
            if let Some(parent) = code.parent() {
                let sibling = if code.bit(code.depth() - 1) {
                    parent.child(false)
                } else {
                    parent.child(true)
                };
                if !self.cells.contains_key(&sibling) {
                    return Err(format!("cell {code} lacks sibling"));
                }
                if !self.cells.contains_key(&parent) {
                    return Err(format!("cell {code} lacks parent"));
                }
                // Parent MBR must cover the child.
                let p = &self.cells[&parent];
                let c = &self.cells[code];
                if !p.mbr.contains_rect(&c.mbr) {
                    return Err(format!("parent of {code} does not cover it"));
                }
            }
            if let CellKind::Node(_) | CellKind::Object(_) = self.cells[code].kind {
                if self.cells.contains_key(&code.child(false)) {
                    return Err(format!("entry cell {code} has children"));
                }
            }
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
