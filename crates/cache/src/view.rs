//! The cache is the client's [`IndexView`] — what stage ① of Fig. 3
//! navigates. Cells the cache does not hold expand to
//! [`Expansion::Missing`], which the engine turns into remainder-query
//! entries.

use crate::cache::ProactiveCache;
use pc_geom::Rect;
use pc_rtree::engine::{Expansion, IndexView};
use pc_rtree::proto::{CellKind, CellRef, Side};
use pc_rtree::NodeId;

/// Static catalog metadata the client receives out of band (root id and
/// MBR) — the paper's client must know where the index starts even with a
/// cold cache (its very first remainder is `{Q, [root]}`). A deployment
/// hands it out as `ServerHandle::bootstrap_root`: a client builds
/// `Catalog { root: server.bootstrap_root().0 }`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Catalog {
    pub root: Option<(NodeId, Rect)>,
}

impl Catalog {
    pub fn empty() -> Self {
        Catalog { root: None }
    }
}

impl IndexView for ProactiveCache {
    fn root_cell(&self) -> Option<(Rect, CellRef)> {
        self.catalog()
            .root
            .map(|(node, mbr)| (mbr, CellRef::node_root(node)))
    }

    fn expand(&self, cell: CellRef) -> Expansion {
        let Some(view) = self.node_view(cell.node) else {
            return Expansion::Missing;
        };
        let Some(vc) = view.cell(cell.code) else {
            // The engine only asks about codes it has seen; an absent code
            // here means the item was reshaped concurrently — treat as a
            // miss rather than corrupting the traversal.
            debug_assert!(false, "unknown cell {cell} in cached view");
            return Expansion::Missing;
        };
        match vc.kind {
            CellKind::Node(child) => Expansion::Entry(Side::Cell {
                cell: CellRef::node_root(child),
                mbr: vc.mbr,
            }),
            CellKind::Object(id) => Expansion::Entry(Side::Obj {
                id,
                mbr: vc.mbr,
                cached: self.contains_object(id),
            }),
            CellKind::Super => match view.children(cell.code) {
                Some(children) => Expansion::Split(children.map(|(code, c)| Side::Cell {
                    cell: CellRef {
                        node: cell.node,
                        code,
                    },
                    mbr: c.mbr,
                })),
                None => Expansion::Missing,
            },
        }
    }

    fn authoritative(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ReplacementPolicy;
    use pc_geom::Point;
    use pc_rtree::bpt::Code;
    use pc_rtree::proto::{CellRecord, NodeShipment, ServerReply};
    use pc_rtree::{ObjectId, SpatialObject};

    fn build_cache() -> ProactiveCache {
        let c0 = Code::ROOT.child(false);
        let c1 = Code::ROOT.child(true);
        let reply = ServerReply {
            confirmed: vec![],
            objects: vec![SpatialObject {
                id: ObjectId(7),
                mbr: Rect::from_coords(0.0, 0.0, 0.01, 0.01),
                size_bytes: 500,
            }],
            pairs: vec![],
            index: vec![
                NodeShipment {
                    node: NodeId(0),
                    level: 1,
                    parent: None,
                    cells: vec![
                        CellRecord {
                            code: c0,
                            mbr: Rect::from_coords(0.0, 0.0, 0.2, 0.2),
                            kind: CellKind::Node(NodeId(1)),
                        },
                        CellRecord {
                            code: c1,
                            mbr: Rect::from_coords(0.5, 0.5, 0.9, 0.9),
                            kind: CellKind::Super,
                        },
                    ],
                },
                NodeShipment {
                    node: NodeId(1),
                    level: 0,
                    parent: Some(NodeId(0)),
                    cells: vec![CellRecord {
                        code: Code::ROOT,
                        mbr: Rect::from_coords(0.0, 0.0, 0.01, 0.01),
                        kind: CellKind::Object(ObjectId(7)),
                    }],
                },
            ],
            expansions: 0,
        };
        let catalog = Catalog {
            root: Some((NodeId(0), Rect::UNIT)),
        };
        let mut cache = ProactiveCache::new(1 << 20, ReplacementPolicy::Grd3, catalog);
        cache.absorb(&reply, [], 1, Point::ORIGIN);
        cache
    }

    #[test]
    fn root_comes_from_catalog() {
        let mut cache = build_cache();
        let (mbr, cell) = cache.root_cell().unwrap();
        assert_eq!(mbr, Rect::UNIT);
        assert_eq!(cell, CellRef::node_root(NodeId(0)));
        assert!(!cache.authoritative());
        cache.full_refresh(Catalog::empty());
        assert!(cache.root_cell().is_none());
    }

    #[test]
    fn expand_missing_node_is_missing() {
        let cache = build_cache();
        assert_eq!(
            cache.expand(CellRef::node_root(NodeId(99))),
            Expansion::Missing
        );
    }

    #[test]
    fn expand_super_frontier_is_missing() {
        let cache = build_cache();
        // Cell 1 of node 0 is a frontier super entry: no children known.
        let c1 = CellRef {
            node: NodeId(0),
            code: Code::ROOT.child(true),
        };
        assert_eq!(cache.expand(c1), Expansion::Missing);
    }

    #[test]
    fn expand_walks_to_cached_object() {
        let cache = build_cache();
        // Root cell expands to its two BPT children.
        let root = cache.expand(CellRef::node_root(NodeId(0)));
        assert!(root.is_split(), "root must split: {root:?}");
        // Child 0 is a full entry pointing to node 1.
        let c0 = CellRef {
            node: NodeId(0),
            code: Code::ROOT.child(false),
        };
        assert_eq!(
            cache.expand(c0),
            Expansion::Entry(Side::Cell {
                cell: CellRef::node_root(NodeId(1)),
                mbr: Rect::from_coords(0.0, 0.0, 0.2, 0.2),
            })
        );
        // Node 1's root cell is a leaf entry for the cached object 7.
        assert_eq!(
            cache.expand(CellRef::node_root(NodeId(1))),
            Expansion::Entry(Side::Obj {
                id: ObjectId(7),
                mbr: Rect::from_coords(0.0, 0.0, 0.01, 0.01),
                cached: true,
            })
        );
    }
}
