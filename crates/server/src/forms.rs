//! Supporting-index construction (§4.2–4.3): turns the engine's access log
//! into per-node [`NodeShipment`]s in the requested form.
//!
//! * **Full form** (FPRO): every entry of each accessed node — "caching the
//!   exact copy of each node".
//! * **Normal compact form** (CPRO): the frontier of the grey subtree,
//!   `CF(n, Qr)` — far-away entries collapse into super entries.
//! * **d⁺-level compact form** (APRO with parameter `d`): each frontier
//!   cell replaced by its `d`-level BPT descendants "or the entries,
//!   whichever come first".

use pc_rtree::bpt::{BptCell, BptCellKind, BptStore, Code};
use pc_rtree::engine::AccessLog;
use pc_rtree::proto::{CellKind, CellRecord, NodeShipment};
use pc_rtree::{ChildRef, Node, NodeId, RTree};

/// Which form of the supporting index to ship.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FormMode {
    /// Full form: all entries of each accessed node.
    Full,
    /// d⁺-level compact form; `DLevel(0)` is the normal compact form.
    DLevel(u8),
}

impl FormMode {
    pub const COMPACT: FormMode = FormMode::DLevel(0);
}

/// Builds the `Ir` shipments for every node the resume touched.
pub fn build_shipments(
    log: &AccessLog,
    tree: &RTree,
    bpts: &BptStore,
    mode: FormMode,
) -> Vec<NodeShipment> {
    log.shipped_nodes()
        .into_iter()
        .map(|node| ship_node(node, log, tree, bpts, mode))
        .collect()
}

fn ship_node(
    node: NodeId,
    log: &AccessLog,
    tree: &RTree,
    bpts: &BptStore,
    mode: FormMode,
) -> NodeShipment {
    let bpt = bpts.get(node);
    let n = tree.node(node);
    let mut cells = Vec::new();
    match mode {
        FormMode::Full => {
            cells.reserve_exact(n.len());
            bpt.leaf_cells(n, |code, entry_idx, mbr| {
                cells.push(CellRecord {
                    code,
                    mbr,
                    kind: entry_kind(n, entry_idx),
                })
            });
        }
        FormMode::DLevel(d) => {
            for code in log.frontier(node) {
                bpt.descend(code, d, n, |c, cell| cells.push(record(c, cell, n)));
            }
        }
    }
    NodeShipment {
        node,
        level: n.level,
        parent: n.parent,
        cells,
    }
}

/// What the `entry_idx`-th entry of `node` ships as.
fn entry_kind(node: &Node, entry_idx: u16) -> CellKind {
    match node.child_at(entry_idx as usize) {
        ChildRef::Node(c) => CellKind::Node(c),
        ChildRef::Object(o) => CellKind::Object(o),
    }
}

fn record(code: Code, cell: BptCell, node: &Node) -> CellRecord {
    let kind = match cell.kind {
        BptCellKind::Internal => CellKind::Super,
        BptCellKind::Leaf { entry_idx } => entry_kind(node, entry_idx),
    };
    CellRecord {
        code,
        mbr: cell.mbr,
        kind,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_geom::{Point, Rect};
    use pc_rtree::engine::{execute, AccessLog};
    use pc_rtree::proto::QuerySpec;
    use pc_rtree::view::FullView;
    use pc_rtree::{ObjectId, RTreeConfig, SpatialObject};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn tree_with_bpts(n: usize, seed: u64) -> (RTree, BptStore) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let objects: Vec<SpatialObject> = (0..n)
            .map(|i| SpatialObject {
                id: ObjectId(i as u32),
                mbr: Rect::from_point(Point::new(
                    rng.random_range(0.0..1.0),
                    rng.random_range(0.0..1.0),
                )),
                size_bytes: 100,
            })
            .collect();
        let tree = RTree::bulk_load(RTreeConfig::small(), &objects);
        let bpts = BptStore::build(&tree);
        (tree, bpts)
    }

    fn logged_query(tree: &RTree, bpts: &BptStore, spec: &QuerySpec) -> AccessLog {
        let view = FullView::new(tree, bpts);
        let mut log = AccessLog::default();
        let _ = execute(&view, spec, &mut log);
        log
    }

    #[test]
    fn full_form_ships_every_entry() {
        let (tree, bpts) = tree_with_bpts(120, 1);
        let spec = QuerySpec::Knn {
            center: Point::new(0.5, 0.5),
            k: 3,
        };
        let log = logged_query(&tree, &bpts, &spec);
        let ships = build_shipments(&log, &tree, &bpts, FormMode::Full);
        assert!(!ships.is_empty());
        for s in &ships {
            let n = tree.node(s.node);
            assert_eq!(s.cells.len(), n.len(), "{} full form", s.node);
            assert!(s.cells.iter().all(|c| !matches!(c.kind, CellKind::Super)));
        }
    }

    #[test]
    fn compact_form_is_never_larger_than_full() {
        let (tree, bpts) = tree_with_bpts(200, 2);
        let spec = QuerySpec::Knn {
            center: Point::new(0.3, 0.7),
            k: 2,
        };
        let log = logged_query(&tree, &bpts, &spec);
        let full = build_shipments(&log, &tree, &bpts, FormMode::Full);
        let compact = build_shipments(&log, &tree, &bpts, FormMode::COMPACT);
        assert_eq!(full.len(), compact.len());
        let total = |v: &[NodeShipment]| v.iter().map(|s| s.cells.len()).sum::<usize>();
        assert!(total(&compact) <= total(&full));
        // A point-ish kNN must leave at least one super entry somewhere
        // (the paper's 40 % saving example).
        assert!(compact
            .iter()
            .any(|s| s.cells.iter().any(|c| matches!(c.kind, CellKind::Super))));
    }

    #[test]
    fn d_levels_interpolate_between_compact_and_full() {
        let (tree, bpts) = tree_with_bpts(250, 3);
        let spec = QuerySpec::Knn {
            center: Point::new(0.6, 0.4),
            k: 1,
        };
        let log = logged_query(&tree, &bpts, &spec);
        let total = |m: FormMode| {
            build_shipments(&log, &tree, &bpts, m)
                .iter()
                .map(|s| s.cells.len())
                .sum::<usize>()
        };
        let mut prev = total(FormMode::COMPACT);
        for d in 1..6 {
            let cur = total(FormMode::DLevel(d));
            assert!(cur >= prev, "d={d} shrank the form");
            prev = cur;
        }
        // Large d degenerates to the full form on accessed subtrees.
        let full = total(FormMode::Full);
        assert!(total(FormMode::DLevel(16)) <= full);
    }

    #[test]
    fn shipments_carry_parent_linkage() {
        let (tree, bpts) = tree_with_bpts(150, 4);
        let spec = QuerySpec::Range {
            window: Rect::centered_square(Point::new(0.5, 0.5), 0.3),
        };
        let log = logged_query(&tree, &bpts, &spec);
        for s in build_shipments(&log, &tree, &bpts, FormMode::COMPACT) {
            if s.node == tree.root() {
                assert_eq!(s.parent, None);
            } else {
                assert_eq!(s.parent, tree.node(s.node).parent);
                assert!(s.parent.is_some());
            }
            assert_eq!(s.level, tree.node(s.node).level);
        }
    }

    #[test]
    fn compact_form_covers_the_whole_node() {
        // The shipped antichain must cover every entry (union of MBRs
        // equals the node MBR) so the client view can navigate anywhere.
        let (tree, bpts) = tree_with_bpts(200, 5);
        let spec = QuerySpec::Range {
            window: Rect::centered_square(Point::new(0.2, 0.2), 0.2),
        };
        let log = logged_query(&tree, &bpts, &spec);
        for s in build_shipments(&log, &tree, &bpts, FormMode::COMPACT) {
            let union = Rect::union_all(s.cells.iter().map(|c| c.mbr)).unwrap();
            let node_mbr = tree.node(s.node).mbr().unwrap();
            assert_eq!(union, node_mbr, "{}", s.node);
        }
    }
}
