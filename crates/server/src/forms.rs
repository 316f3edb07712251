//! Stage ② of Fig. 3 over one shard's tree: [`resume_traced`] runs `Qr` to
//! completion and records what it read, and [`assemble`] turns that into
//! the reply — `Rr` split into confirmations and transmitted objects, and
//! the supporting index `Ir`, which [`build_shipments`] cuts from the
//! accessed nodes' BPTs (§4.2–4.3) as per-node [`NodeShipment`]s in the
//! requested form.
//!
//! Both take the [`AccessLog`] by value and drain it: each node's run of
//! logged cells is freed as soon as that node's shipment is cut, so the
//! server holds the log and the reply together for one node at a time, not
//! for the whole contact. A cold self-join at 20 000 objects logs 0.72 MB
//! beside a 0.98 MB index; holding both whole made the server's call, not
//! the client's absorption, the contact's live peak. Every shipment's cell
//! vector is reserved exactly: a d⁺-level form counts its descent first.
//!
//! * **Full form** (FPRO): every entry of each accessed node — "caching the
//!   exact copy of each node".
//! * **Normal compact form** (CPRO): the frontier of the grey subtree,
//!   `CF(n, Qr)` — far-away entries collapse into super entries.
//! * **d⁺-level compact form** (APRO with parameter `d`): each frontier
//!   cell replaced by its `d`-level BPT descendants "or the entries,
//!   whichever come first".

use pc_rtree::bpt::{BptCell, BptCellKind, Code};
use pc_rtree::engine::{resume, AccessLog, Outcome};
use pc_rtree::proto::{CellKind, CellRecord, NodeShipment, RemainderQuery, ServerReply};
use pc_rtree::{ChildRef, Node, NodeId, ObjectStore, RTree};

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

/// The resume half of stage ②: runs `Qr` to completion over `tree` and
/// records which cells the traversal read. A cluster folds cross-shard
/// accesses into the log before [`assemble`]ing.
pub fn resume_traced(tree: &RTree, rq: &RemainderQuery) -> (Outcome, AccessLog) {
    let mut log = AccessLog::default();
    let outcome = resume(tree, rq, &mut log);
    debug_assert!(outcome.remainder.is_none(), "server must finish queries");
    (outcome, log)
}

/// The assembly half of stage ②: `Ir` in `mode` for every node of `tree`
/// that `log` saw expanded, and `Rr` split into confirmations (the client
/// holds the payload) and objects transmitted out of `store`. Drains `log`
/// ([`build_shipments`]).
pub fn assemble(
    tree: &RTree,
    store: &ObjectStore,
    outcome: Outcome,
    log: AccessLog,
    mode: FormMode,
) -> ServerReply {
    let mut reply = split_results(store, outcome);
    reply.index = build_shipments(log, tree, mode);
    reply
}

/// The objects half of [`assemble`], with no index: what the router
/// splits results resumed over the merged view with.
pub(crate) fn split_results(store: &ObjectStore, outcome: Outcome) -> ServerReply {
    let mut confirmed = Vec::new();
    let mut objects = Vec::new();
    for (id, cached) in outcome.results {
        if cached {
            confirmed.push(id);
        } else if let Some(object) = store.try_get(id) {
            // An id the store never assigned can only come from a heap
            // built outside this program: nothing to transmit.
            objects.push(object);
        }
    }
    ServerReply {
        confirmed,
        objects,
        pairs: outcome.result_pairs,
        index: Vec::new(),
        expansions: outcome.expansions,
    }
}

/// Builds the `Ir` shipments for every node the resume touched, freeing
/// each node's logged cells once its shipment is cut.
pub fn build_shipments(mut log: AccessLog, tree: &RTree, mode: FormMode) -> Vec<NodeShipment> {
    let nodes = log.shipped_nodes();
    let mut shipments = Vec::with_capacity(nodes.len());
    for node in nodes {
        shipments.push(ship_node(node, &log, tree, mode));
        log.release(node);
    }
    shipments
}

fn ship_node(node: NodeId, log: &AccessLog, tree: &RTree, mode: FormMode) -> NodeShipment {
    let n = tree.node(node);
    let bpt = n.bpt();
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
            let frontier = log.frontier(node);
            cells.reserve_exact(frontier.iter().map(|&code| bpt.descent_len(code, d)).sum());
            for code in frontier {
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
    use pc_rtree::{ObjectId, RTreeConfig, SpatialObject};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn sample_tree(n: usize, seed: u64) -> RTree {
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
        RTree::bulk_load(RTreeConfig::small(), &objects)
    }

    fn logged_query(tree: &RTree, spec: &QuerySpec) -> AccessLog {
        let mut log = AccessLog::default();
        let _ = execute(tree, spec, &mut log);
        log
    }

    #[test]
    fn full_form_ships_every_entry() {
        let tree = sample_tree(120, 1);
        let spec = QuerySpec::Knn {
            center: Point::new(0.5, 0.5),
            k: 3,
        };
        let log = logged_query(&tree, &spec);
        let ships = build_shipments(log, &tree, FormMode::Full);
        assert!(!ships.is_empty());
        for s in &ships {
            let n = tree.node(s.node);
            assert_eq!(s.cells.len(), n.len(), "{} full form", s.node);
            assert!(s.cells.iter().all(|c| !matches!(c.kind, CellKind::Super)));
        }
    }

    #[test]
    fn compact_form_is_never_larger_than_full() {
        let tree = sample_tree(200, 2);
        let spec = QuerySpec::Knn {
            center: Point::new(0.3, 0.7),
            k: 2,
        };
        let log = logged_query(&tree, &spec);
        let full = build_shipments(log.clone(), &tree, FormMode::Full);
        let compact = build_shipments(log, &tree, FormMode::COMPACT);
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
        let tree = sample_tree(250, 3);
        let spec = QuerySpec::Knn {
            center: Point::new(0.6, 0.4),
            k: 1,
        };
        let log = logged_query(&tree, &spec);
        let total = |m: FormMode| {
            build_shipments(log.clone(), &tree, m)
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
        let tree = sample_tree(150, 4);
        let spec = QuerySpec::Range {
            window: Rect::centered_square(Point::new(0.5, 0.5), 0.3),
        };
        let log = logged_query(&tree, &spec);
        for s in build_shipments(log, &tree, FormMode::COMPACT) {
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
        let tree = sample_tree(200, 5);
        let spec = QuerySpec::Range {
            window: Rect::centered_square(Point::new(0.2, 0.2), 0.2),
        };
        let log = logged_query(&tree, &spec);
        for s in build_shipments(log, &tree, FormMode::COMPACT) {
            let union = Rect::union_all(s.cells.iter().map(|c| c.mbr)).unwrap();
            let node_mbr = tree.node(s.node).mbr().unwrap();
            assert_eq!(union, node_mbr, "{}", s.node);
        }
    }
}
