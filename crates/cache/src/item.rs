//! Cache items and their §5.2 metadata.

use crate::node_view::CachedNodeView;
use pc_geom::Rect;
use pc_rtree::{NodeId, ObjectId, SpatialObject};

/// Identity of a cached item: an index node's partial view, or an object.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ItemKey {
    Node(NodeId),
    Object(ObjectId),
}

impl std::fmt::Display for ItemKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ItemKey::Node(n) => write!(f, "{n}"),
            ItemKey::Object(o) => write!(f, "{o}"),
        }
    }
}

/// Per-item metadata, following the paper's §5.2 list: (1) physical address
/// (the map key), (2) size, (3) time of insertion "in terms of the sequence
/// id of the query", (4) number of hit queries, (5) parent item id, (6)
/// number of cached children (here the children list itself, which several
/// policies need anyway).
#[derive(Clone, Copy, Debug)]
pub struct ItemMeta {
    pub size: u64,
    /// Query sequence id at insertion.
    pub t_insert: u64,
    /// Queries that accessed this item.
    pub hits: u64,
    /// Query sequence id of the most recent access (LRU/MRU).
    pub last_access: u64,
    /// A node's parent; an object's leaf, shipped or read (`ProactiveCache::absorb`).
    pub parent: Option<ItemKey>,
}

/// Item payload.
#[derive(Clone, Debug)]
pub enum ItemData {
    Node(CachedNodeView),
    Object(SpatialObject),
}

/// A cached item: metadata, payload, and the cached-children list that
/// makes the §5 hierarchy explicit.
#[derive(Clone, Debug)]
pub struct Item {
    pub meta: ItemMeta,
    pub data: ItemData,
    pub children: Vec<ItemKey>,
}

impl Item {
    /// A hierarchy leaf has no cached children — the only kind of item any
    /// policy evicts directly (Lemma 5.4 shows GRD2 never picks anything
    /// else, and leaf-only eviction keeps the §5 cascade constraint free).
    #[inline]
    pub fn is_hierarchy_leaf(&self) -> bool {
        self.children.is_empty()
    }

    /// What FAR ranks by: a node view's root cell (absorb caches no node
    /// shipped without one; merges only add cells), or the object's MBR.
    #[expect(clippy::expect_used, reason = "absorb keeps no rootless node")]
    pub fn mbr(&self) -> Rect {
        match &self.data {
            ItemData::Node(view) => view.root_mbr().expect("a cached node has its root cell"),
            ItemData::Object(obj) => obj.mbr,
        }
    }

    /// The paper's practical access-probability estimate:
    /// `prob = #hit_queries / (T − time_of_insertion)` (§5.2), with the
    /// denominator clamped so an item inserted by the current query has
    /// `prob = hits`.
    #[inline]
    pub fn prob(&self, now: u64) -> f64 {
        self.meta.hits as f64 / (now.saturating_sub(self.meta.t_insert)).max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_geom::Point;

    fn obj_item(hits: u64, t_insert: u64) -> Item {
        Item {
            meta: ItemMeta {
                size: 100,
                t_insert,
                hits,
                last_access: t_insert,
                parent: None,
            },
            data: ItemData::Object(SpatialObject {
                id: ObjectId(0),
                mbr: Rect::from_point(Point::ORIGIN),
                size_bytes: 100,
            }),
            children: Vec::new(),
        }
    }

    #[test]
    fn prob_decays_with_age() {
        let item = obj_item(2, 10);
        assert_eq!(item.prob(10), 2.0); // just inserted: denominator clamps to 1
        assert_eq!(item.prob(12), 1.0);
        assert_eq!(item.prob(30), 0.1);
    }

    #[test]
    fn leaf_detection_follows_children() {
        let mut item = obj_item(1, 0);
        assert!(item.is_hierarchy_leaf());
        item.children.push(ItemKey::Object(ObjectId(9)));
        assert!(!item.is_hierarchy_leaf());
    }
}
