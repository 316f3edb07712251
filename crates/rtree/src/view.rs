//! [`FullView`]: the authoritative [`IndexView`] over a complete R-tree and
//! its BPT store — what the server's query processor navigates.

use crate::bpt::BptStore;
use crate::engine::{Expansion, IndexView};
use crate::proto::{CellRef, Side};
use crate::tree::RTree;
use crate::ChildRef;
use pc_geom::Rect;

/// Complete server-side view: every cell of the index expands; a reference
/// to anything else is [`Expansion::Missing`].
pub struct FullView<'a> {
    tree: &'a RTree,
    bpts: &'a BptStore,
}

impl<'a> FullView<'a> {
    pub fn new(tree: &'a RTree, bpts: &'a BptStore) -> Self {
        FullView { tree, bpts }
    }

    pub fn tree(&self) -> &RTree {
        self.tree
    }

    pub fn bpts(&self) -> &BptStore {
        self.bpts
    }
}

impl IndexView for FullView<'_> {
    fn root(&self) -> Option<(Rect, CellRef)> {
        self.tree
            .root_mbr()
            .map(|mbr| (mbr, CellRef::node_root(self.tree.root())))
    }

    fn expand(&self, cell: CellRef) -> Expansion {
        // Cells of a remainder heap come off the wire: a node id past the
        // slab is missing, never indexed. (The BPT store has one slot per
        // tree slot and a leaf cell per entry, so the lookups under a
        // found slot cannot miss.)
        let Some(bpt) = self.bpts.try_get(cell.node) else {
            return Expansion::Missing;
        };
        let node = self.tree.node(cell.node);
        bpt.expand(cell, node, |entry_idx, mbr| {
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
