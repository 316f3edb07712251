//! The node view this crate shipped before the arena one, kept as the
//! reference the arena is held equal to (`crate::proptests`): one
//! `HashMap<Code, ViewCell>` per node, every cell reached by hashing its
//! code. Same merge, same answers; the arena only changes how a cell is
//! found and what a frontier count costs.

use super::ViewCell;
use pc_geom::Rect;
use pc_rtree::bpt::Code;
use pc_rtree::proto::{CellKind, CellRecord};
use std::collections::HashMap;

/// Partial knowledge about one node, keyed by code.
#[derive(Clone, Debug, Default)]
pub struct MapView {
    cells: HashMap<Code, ViewCell>,
}

impl MapView {
    /// Inserts shipped cells verbatim, then synthesizes every missing
    /// ancestor, deepest codes first, as the union of its two children.
    pub fn merge_records(&mut self, records: &[CellRecord]) {
        for r in records {
            self.cells.insert(
                r.code,
                ViewCell {
                    mbr: r.mbr,
                    kind: r.kind,
                },
            );
        }
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

    pub fn cell(&self, code: Code) -> Option<ViewCell> {
        self.cells.get(&code).copied()
    }

    pub fn children(&self, code: Code) -> Option<[(Code, ViewCell); 2]> {
        let l = code.child(false);
        let r = code.child(true);
        match (self.cells.get(&l), self.cells.get(&r)) {
            (Some(lc), Some(rc)) => Some([(l, *lc), (r, *rc)]),
            _ => None,
        }
    }

    pub fn frontier_len(&self) -> usize {
        self.cells
            .keys()
            .filter(|c| !self.cells.contains_key(&c.child(false)))
            .count()
    }

    pub fn object_entries(&self) -> impl Iterator<Item = pc_rtree::ObjectId> + '_ {
        self.cells.values().filter_map(|c| match c.kind {
            CellKind::Object(o) => Some(o),
            _ => None,
        })
    }

    pub fn node_entries(&self) -> impl Iterator<Item = pc_rtree::NodeId> + '_ {
        self.cells.values().filter_map(|c| match c.kind {
            CellKind::Node(n) => Some(n),
            _ => None,
        })
    }

    pub fn root_mbr(&self) -> Option<Rect> {
        self.cells.get(&Code::ROOT).map(|c| c.mbr)
    }

    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

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
