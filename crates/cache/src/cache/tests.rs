//! Unit tests for the cache: absorption, hierarchy maintenance, byte
//! accounting and victim selection per policy.

use super::*;
use pc_geom::Rect;
use pc_rtree::bpt::Code;
use pc_rtree::proto::{CellRecord, NodeShipment, ServerReply};
use pc_rtree::SpatialObject;

fn cell(code: Code, x: f64, kind: CellKind) -> CellRecord {
    CellRecord {
        code,
        mbr: Rect::from_coords(x, 0.0, x + 0.05, 0.05),
        kind,
    }
}

fn n(i: u32) -> NodeId {
    NodeId(i)
}
fn o(i: u32) -> ObjectId {
    ObjectId(i)
}

/// A two-level reply: root node 0 with entries to leaves 1 and 2; leaf 1
/// holds objects 10 and 11, leaf 2 holds object 12. Objects 10..12 are
/// transmitted with 1000-byte payloads.
fn sample_reply() -> ServerReply {
    let c0 = Code::ROOT.child(false);
    let c1 = Code::ROOT.child(true);
    ServerReply {
        confirmed: vec![],
        objects: vec![
            SpatialObject {
                id: o(10),
                mbr: Rect::from_coords(0.0, 0.0, 0.01, 0.01),
                size_bytes: 1000,
            },
            SpatialObject {
                id: o(11),
                mbr: Rect::from_coords(0.1, 0.0, 0.11, 0.01),
                size_bytes: 1000,
            },
            SpatialObject {
                id: o(12),
                mbr: Rect::from_coords(0.5, 0.0, 0.51, 0.01),
                size_bytes: 1000,
            },
        ],
        pairs: vec![],
        index: vec![
            NodeShipment {
                node: n(0),
                level: 1,
                parent: None,
                cells: vec![
                    cell(c0, 0.0, CellKind::Node(n(1))),
                    cell(c1, 0.5, CellKind::Node(n(2))),
                ],
            },
            NodeShipment {
                node: n(1),
                level: 0,
                parent: Some(n(0)),
                cells: vec![
                    cell(c0, 0.0, CellKind::Object(o(10))),
                    cell(c1, 0.1, CellKind::Object(o(11))),
                ],
            },
            NodeShipment {
                node: n(2),
                level: 0,
                parent: Some(n(0)),
                cells: vec![cell(Code::ROOT, 0.5, CellKind::Object(o(12)))],
            },
        ],
        expansions: 0,
    }
}

fn big_cache(policy: ReplacementPolicy) -> ProactiveCache {
    ProactiveCache::new(1 << 20, policy, Catalog::empty())
}

#[test]
fn absorb_builds_hierarchy_and_accounts_bytes() {
    let mut c = big_cache(ReplacementPolicy::Grd3);
    let out = c.absorb(&sample_reply(), 1, Point::ORIGIN);
    c.validate().unwrap();
    assert_eq!(out.skipped_objects, 0);
    assert_eq!(out.evicted_items, 0);
    assert_eq!(c.len(), 6); // 3 node items + 3 objects
    assert!(c.contains_object(o(10)));
    assert!(c.contains_object(o(12)));
    assert!(!c.contains_object(o(99)));
    // Hierarchy: root has leaves 1,2 as children; leaf 1 has two objects.
    let root = c.get(ItemKey::Node(n(0))).unwrap();
    assert_eq!(root.children.len(), 2);
    let leaf1 = c.get(ItemKey::Node(n(1))).unwrap();
    assert_eq!(leaf1.children.len(), 2);
    assert_eq!(leaf1.meta.parent, Some(ItemKey::Node(n(0))));
    let stats = c.stats();
    assert_eq!(stats.object_items, 3);
    assert_eq!(stats.node_items, 3);
    assert_eq!(stats.object_bytes, 3 * (OBJECT_HEADER_BYTES + 1000));
    assert_eq!(stats.used_bytes, c.used_bytes());
}

#[test]
fn absorb_is_idempotent_for_objects() {
    let mut c = big_cache(ReplacementPolicy::Grd3);
    c.absorb(&sample_reply(), 1, Point::ORIGIN);
    let used = c.used_bytes();
    c.absorb(&sample_reply(), 2, Point::ORIGIN);
    c.validate().unwrap();
    assert_eq!(c.used_bytes(), used, "re-absorbing must not double count");
    assert_eq!(c.len(), 6);
}

#[test]
fn a_shipment_without_cells_is_skipped() {
    // The codec decodes a shipment with no cells; for a node the cache has
    // never seen, it carries nothing to cache (and no MBR to cache it by).
    let mut reply = sample_reply();
    reply.index.push(NodeShipment {
        node: n(3),
        level: 0,
        parent: Some(n(0)),
        cells: vec![],
    });
    let mut c = big_cache(ReplacementPolicy::Grd3);
    let out = c.absorb(&reply, 1, Point::ORIGIN);
    c.validate().unwrap();
    assert!(c.get(ItemKey::Node(n(3))).is_none());
    assert_eq!(c.len(), 6, "the rest of the reply is absorbed");
    assert_eq!(out.inserted_bytes, c.used_bytes());
}

#[test]
fn a_shipment_the_view_declines_caches_nothing() {
    // 2¹⁶ object cells, one more than a view's 16-bit column holds (no
    // BPT ships that many): node 2's view declines them. A fresh node is
    // left uncached, and its object with it; a cached one stays as it was.
    let over = NodeShipment {
        node: n(2),
        level: 0,
        parent: Some(n(0)),
        cells: (0..1u32 << 16)
            .map(|i| {
                let code = (0..16).fold(Code::ROOT, |c, d| c.child(i >> d & 1 == 1));
                cell(code, 0.5, CellKind::Object(o(12 + i)))
            })
            .collect(),
    };
    let mut reply = sample_reply();
    reply.index[2] = over.clone();
    let mut c = big_cache(ReplacementPolicy::Grd3);
    let out = c.absorb(&reply, 1, Point::ORIGIN);
    c.validate().unwrap();
    assert!(c.node_view(n(2)).is_none());
    assert!(!c.contains_object(o(12)));
    assert_eq!(out.skipped_objects, 1);
    assert_eq!(c.len(), 4, "the rest of the reply is absorbed");

    let mut c = big_cache(ReplacementPolicy::Grd3);
    c.absorb(&sample_reply(), 1, Point::ORIGIN);
    let used = c.used_bytes();
    let mut reply = sample_reply();
    reply.index = vec![over];
    reply.objects.clear();
    assert_eq!(c.absorb(&reply, 2, Point::ORIGIN).inserted_bytes, 0);
    c.validate().unwrap();
    assert_eq!(c.used_bytes(), used);
    assert_eq!(
        c.node_view(n(2))
            .unwrap()
            .object_entries()
            .collect::<Vec<_>>(),
        [o(12)]
    );
}

#[test]
fn touch_updates_hits_and_recency() {
    let mut c = big_cache(ReplacementPolicy::Lru);
    c.absorb(&sample_reply(), 1, Point::ORIGIN);
    let before = c.get(ItemKey::Object(o(10))).unwrap().meta.hits;
    c.touch(ItemKey::Object(o(10)), 5);
    let item = c.get(ItemKey::Object(o(10))).unwrap();
    assert_eq!(item.meta.hits, before + 1);
    assert_eq!(item.meta.last_access, 5);
    // Touching a non-existent item is a no-op.
    c.touch(ItemKey::Object(o(77)), 6);
    c.validate().unwrap();
}

#[test]
fn capacity_is_enforced_and_structure_stays_valid() {
    for policy in ReplacementPolicy::ALL {
        // Room for roughly two of the three objects plus index.
        let mut c = ProactiveCache::new(2600, policy, Catalog::empty());
        c.absorb(&sample_reply(), 1, Point::new(0.0, 0.0));
        assert!(
            c.used_bytes() <= c.capacity(),
            "{policy}: {} > {}",
            c.used_bytes(),
            c.capacity()
        );
        c.validate().unwrap_or_else(|e| panic!("{policy}: {e}"));
    }
}

#[test]
fn lru_evicts_least_recently_used_object() {
    let mut c = big_cache(ReplacementPolicy::Lru);
    c.absorb(&sample_reply(), 1, Point::ORIGIN);
    // Touch 10 and 12 later; object 11 is the LRU leaf.
    c.touch(ItemKey::Object(o(10)), 7);
    c.touch(ItemKey::Object(o(12)), 8);
    // Shrink capacity to force one eviction.
    c.capacity = c.used_bytes() - 1;
    c.enforce_capacity(9, Point::ORIGIN);
    c.validate().unwrap();
    assert!(!c.contains_object(o(11)), "LRU victim should be object 11");
    assert!(c.contains_object(o(10)));
    assert!(c.contains_object(o(12)));
}

#[test]
fn mru_evicts_most_recently_used_object() {
    let mut c = big_cache(ReplacementPolicy::Mru);
    c.absorb(&sample_reply(), 1, Point::ORIGIN);
    c.touch(ItemKey::Object(o(11)), 7);
    c.capacity = c.used_bytes() - 1;
    c.enforce_capacity(9, Point::ORIGIN);
    c.validate().unwrap();
    assert!(!c.contains_object(o(11)), "MRU victim should be object 11");
}

#[test]
fn far_evicts_farthest_object() {
    let mut c = big_cache(ReplacementPolicy::Far);
    c.absorb(&sample_reply(), 1, Point::ORIGIN);
    c.capacity = c.used_bytes() - 1;
    // Client sits at x=0: object 12 (x=0.5) is farthest.
    c.enforce_capacity(9, Point::new(0.0, 0.0));
    c.validate().unwrap();
    assert!(!c.contains_object(o(12)), "FAR victim should be object 12");
    assert!(c.contains_object(o(10)));
}

#[test]
fn grd3_evicts_lowest_prob_first() {
    let mut c = big_cache(ReplacementPolicy::Grd3);
    c.absorb(&sample_reply(), 1, Point::ORIGIN);
    // Give objects 10 and 11 extra hits; object 12 keeps prob = 1/(T-1).
    for t in 2..6 {
        c.touch(ItemKey::Object(o(10)), t);
        c.touch(ItemKey::Object(o(11)), t);
    }
    c.capacity = c.used_bytes() - 1;
    c.enforce_capacity(10, Point::ORIGIN);
    c.validate().unwrap();
    assert!(
        !c.contains_object(o(12)),
        "lowest-prob object must go first"
    );
    assert!(c.contains_object(o(10)));
    assert!(c.contains_object(o(11)));
}

#[test]
fn grd3_cascades_bottom_up_until_fit() {
    let mut c = big_cache(ReplacementPolicy::Grd3);
    c.absorb(&sample_reply(), 1, Point::ORIGIN);
    // Keep barely more than the index: all objects must go, then possibly
    // childless leaves.
    c.capacity = 500;
    c.enforce_capacity(10, Point::ORIGIN);
    c.validate().unwrap();
    assert!(!c.contains_object(o(10)));
    assert!(!c.contains_object(o(11)));
    assert!(!c.contains_object(o(12)));
    assert!(c.used_bytes() <= 500);
}

#[test]
fn node_with_cached_children_is_never_evicted_before_them() {
    // With any policy, evicting leaves first means a leaf node item can
    // only disappear after its objects are gone.
    for policy in ReplacementPolicy::ALL {
        let mut c = big_cache(policy);
        c.absorb(&sample_reply(), 1, Point::new(0.2, 0.2));
        for cap in [3000u64, 2000, 1000, 400, 100] {
            c.capacity = cap;
            c.enforce_capacity(5, Point::new(0.2, 0.2));
            c.validate()
                .unwrap_or_else(|e| panic!("{policy}@{cap}: {e}"));
            // Invariant: any cached object's leaf view is still cached.
            for key in c.keys().collect::<Vec<_>>() {
                if let ItemKey::Object(obj) = key {
                    let parent = c.get(key).unwrap().meta.parent;
                    if let Some(pk) = parent {
                        assert!(c.get(pk).is_some(), "{policy}: orphaned {obj}");
                    }
                }
            }
        }
    }
}

#[test]
fn grd3_b_swap_keeps_the_single_valuable_item() {
    // Construct the pathological knapsack case of Definition 5.1 step (6):
    // one huge, moderately-probable object and several small, fresher ones.
    let big = SpatialObject {
        id: o(50),
        mbr: Rect::from_coords(0.0, 0.0, 0.01, 0.01),
        size_bytes: 10_000,
    };
    let c0 = Code::ROOT.child(false);
    let c1 = Code::ROOT.child(true);
    let reply = ServerReply {
        confirmed: vec![],
        objects: vec![
            big,
            SpatialObject {
                id: o(51),
                mbr: Rect::from_coords(0.1, 0.0, 0.11, 0.01),
                size_bytes: 600,
            },
            SpatialObject {
                id: o(52),
                mbr: Rect::from_coords(0.2, 0.0, 0.21, 0.01),
                size_bytes: 600,
            },
        ],
        pairs: vec![],
        index: vec![NodeShipment {
            node: n(0),
            level: 0,
            parent: None,
            cells: vec![
                cell(c0, 0.0, CellKind::Object(o(50))),
                cell(c1.child(false), 0.1, CellKind::Object(o(51))),
                cell(c1.child(true), 0.2, CellKind::Object(o(52))),
            ],
        }],
        expansions: 0,
    };
    let mut c = ProactiveCache::new(1 << 20, ReplacementPolicy::Grd3, Catalog::empty());
    c.absorb(&reply, 1, Point::ORIGIN);
    // Age the cache so the big object has the *lowest* prob but the largest
    // benefit: hits(small) high and recent, hits(big) low.
    for t in 2..20 {
        c.touch(ItemKey::Object(o(51)), t);
        c.touch(ItemKey::Object(o(52)), t);
    }
    // Big object: prob = 1/19; benefit ≈ 10040/19 ≈ 528.
    // Small objects: prob ≈ 1; benefit ≈ 640 each... make benefit of B
    // dominate by shrinking the smalls' probability via aging instead:
    // re-check at a much later T where smalls decayed too.
    let now = 2000;
    // smalls: 19/1999 * 640 ≈ 6.1 each; big: 1/1999 * 10040 ≈ 5.0 — close;
    // push big's hits up a little but keep it the first victim by prob.
    c.touch(ItemKey::Object(o(50)), 25);
    // prob(big) = 2/1999 ≈ .001, benefit ≈ 10.0 > Σ smalls ≈ 12.2? Not yet;
    // touch big once more.
    c.touch(ItemKey::Object(o(50)), 26);
    // prob(big) = 3/1999 ≈ .0015 (still the minimum), benefit ≈ 15.1 >
    // 12.2 ⇒ B-swap fires after big is evicted first.
    c.capacity = 11_000;
    let (_evicted, _) = c.enforce_capacity(now, Point::ORIGIN);
    c.validate().unwrap();
    assert!(
        c.contains_object(o(50)),
        "B-swap must keep the high-benefit item"
    );
    assert!(!c.contains_object(o(51)));
    assert!(!c.contains_object(o(52)));
    assert!(c.used_bytes() <= c.capacity());
}

/// Step (6) weighs B against the benefit of everything left, and that sum
/// must not depend on the order the item map iterates in, which is its own
/// per instance. Left after B goes are nodes 0 and 1 and object 2. Each
/// node's benefit is under half an ulp of object 2's, the two together are
/// over it: the sum reads object 2's benefit X when object 2 comes before
/// a node, and X + ulp when both nodes come first. B's benefit is X + ulp,
/// so a cache summing in map order B-swaps in one order and keeps the rest
/// in the other.
#[test]
fn grd3_b_swap_does_not_depend_on_the_map_order() {
    let object = |id, size_bytes| SpatialObject {
        id: o(id),
        mbr: Rect::from_coords(0.0, 0.0, 0.01, 0.01),
        size_bytes,
    };
    let reply = ServerReply {
        confirmed: vec![],
        // 128 and 64 bytes cached.
        objects: vec![object(1, 88), object(2, 24)],
        pairs: vec![],
        index: vec![
            // 56 bytes cached.
            NodeShipment {
                node: n(0),
                level: 1,
                parent: None,
                cells: vec![cell(Code::ROOT, 0.0, CellKind::Node(n(1)))],
            },
            // 96 bytes cached.
            NodeShipment {
                node: n(1),
                level: 0,
                parent: Some(n(0)),
                cells: vec![
                    cell(Code::ROOT.child(false), 0.0, CellKind::Object(o(1))),
                    cell(Code::ROOT.child(true), 0.0, CellKind::Object(o(2))),
                ],
            },
        ],
        expansions: 0,
    };
    // (hits, age) at `now`, so every benefit hits / age · size is exact:
    // object 2: 1 / 1 · 64 = 64 = X, whose ulp is 2^-46; object 1 (B, the
    // lower prob): (2^52 + 1) / 2^53 · 128 = X + ulp; node 0: 56 / 2^54 =
    // 0.22 ulp; node 1: 96 / 2^54 = 0.375 ulp.
    let now = 1 + (1u64 << 54);
    let stats = [
        (ItemKey::Node(n(0)), 1, 1 << 54),
        (ItemKey::Node(n(1)), 1, 1 << 54),
        (ItemKey::Object(o(1)), (1 << 52) + 1, 1 << 53),
        (ItemKey::Object(o(2)), 1, 1),
    ];
    let mut answers = std::collections::HashSet::new();
    for _ in 0..64 {
        let mut c = big_cache(ReplacementPolicy::Grd3);
        c.absorb(&reply, 1, Point::ORIGIN);
        for (key, hits, age) in stats {
            let meta = &mut c.items.get_mut(&key).unwrap().meta;
            (meta.hits, meta.t_insert) = (hits, now - age);
        }
        // Evicting B alone fits.
        c.capacity = 300;
        c.enforce_capacity(now, Point::ORIGIN);
        c.validate().unwrap();
        let mut kept: Vec<ItemKey> = c.keys().collect();
        kept.sort();
        answers.insert((c.took_bswap(), kept));
    }
    assert_eq!(answers.len(), 1, "{answers:?}");
}

#[test]
fn invalidate_node_drops_the_whole_subtree() {
    let mut c = big_cache(ReplacementPolicy::Grd3);
    c.absorb(&sample_reply(), 1, Point::ORIGIN);
    let before = c.used_bytes();
    // Invalidate leaf 1: its two objects go with it.
    let (items, bytes) = c.invalidate_node(n(1));
    assert_eq!(items, 3);
    assert!(bytes > 0);
    assert_eq!(c.used_bytes(), before - bytes);
    assert!(!c.contains_object(o(10)));
    assert!(!c.contains_object(o(11)));
    assert!(c.contains_object(o(12)), "sibling subtree untouched");
    c.validate().unwrap();
    // Idempotent on missing nodes.
    assert_eq!(c.invalidate_node(n(1)), (0, 0));
    assert_eq!(c.invalidate_node(n(99)), (0, 0));
}

#[test]
fn shallow_invalidation_orphans_children_and_readopts() {
    let mut c = big_cache(ReplacementPolicy::Grd3);
    c.absorb(&sample_reply(), 1, Point::ORIGIN);
    let before = c.used_bytes();
    // Shallow-drop the root (a cluster's routing layer changed): only the
    // root view goes; both leaf subtrees survive as orphans.
    let (items, bytes) = c.invalidate_node_shallow(n(0));
    assert_eq!(items, 1);
    assert!(bytes > 0);
    assert_eq!(c.used_bytes(), before - bytes);
    c.validate().unwrap();
    assert!(c.get(ItemKey::Node(n(0))).is_none());
    assert!(c.get(ItemKey::Node(n(1))).unwrap().meta.parent.is_none());
    assert!(c.contains_object(o(10)), "leaf contents survive");
    assert!(c.contains_object(o(12)));
    // Idempotent on missing nodes.
    assert_eq!(c.invalidate_node_shallow(n(0)), (0, 0));
    // When the (new) root layout ships, the orphans are adopted back.
    c.absorb(
        &ServerReply {
            confirmed: vec![],
            objects: vec![],
            pairs: vec![],
            index: vec![sample_reply().index[0].clone()],
            expansions: 0,
        },
        2,
        Point::ORIGIN,
    );
    c.validate().unwrap();
    assert_eq!(
        c.get(ItemKey::Node(n(1))).unwrap().meta.parent,
        Some(ItemKey::Node(n(0)))
    );
    assert_eq!(c.get(ItemKey::Node(n(0))).unwrap().children.len(), 2);
}

#[test]
fn clear_empties_the_cache_and_stays_usable() {
    let mut c = big_cache(ReplacementPolicy::Grd3);
    c.absorb(&sample_reply(), 1, Point::ORIGIN);
    let before = c.used_bytes();
    assert!(before > 0);
    let (items, bytes) = c.full_refresh(Catalog::empty());
    assert_eq!(items, 6);
    assert_eq!(bytes, before);
    assert!(c.is_empty());
    assert_eq!(c.used_bytes(), 0);
    c.validate().unwrap();
    // Clearing twice is a harmless no-op, and the cache absorbs again.
    assert_eq!(c.full_refresh(Catalog::empty()), (0, 0));
    c.absorb(&sample_reply(), 2, Point::ORIGIN);
    assert_eq!(c.used_bytes(), before);
    c.validate().unwrap();
}

#[test]
fn invalidating_the_root_empties_the_cache() {
    let mut c = big_cache(ReplacementPolicy::Grd3);
    c.absorb(&sample_reply(), 1, Point::ORIGIN);
    let (items, _) = c.invalidate_node(n(0));
    assert_eq!(items, 6);
    assert!(c.is_empty());
    assert_eq!(c.used_bytes(), 0);
    c.validate().unwrap();
}

#[test]
fn reabsorbing_after_invalidation_adopts_orphans() {
    let mut c = big_cache(ReplacementPolicy::Grd3);
    c.absorb(&sample_reply(), 1, Point::ORIGIN);
    // Drop the root only — impossible through the protocol (cascade), so
    // emulate the orphan state the updates extension can produce by
    // invalidating and re-shipping just the root.
    let root_shipment = sample_reply().index[0].clone();
    // Invalidate the root subtree except... cascade removes everything, so
    // rebuild: absorb leaves-only replies to create orphans.
    c.invalidate_node(n(0));
    let mut leaves_only = sample_reply();
    leaves_only.index.remove(0); // leaf shipments reference parent n0
    c.absorb(&leaves_only, 2, Point::ORIGIN);
    c.validate().unwrap();
    // Orphans: leaves cached without parent.
    assert!(c.get(ItemKey::Node(n(1))).unwrap().meta.parent.is_none());
    // Now the root arrives: orphans must be adopted.
    c.absorb(
        &ServerReply {
            confirmed: vec![],
            objects: vec![],
            pairs: vec![],
            index: vec![root_shipment],
            expansions: 0,
        },
        3,
        Point::ORIGIN,
    );
    c.validate().unwrap();
    assert_eq!(
        c.get(ItemKey::Node(n(1))).unwrap().meta.parent,
        Some(ItemKey::Node(n(0)))
    );
    let root = c.get(ItemKey::Node(n(0))).unwrap();
    assert_eq!(root.children.len(), 2, "both leaves adopted");
}

#[test]
fn stats_ratio_tracks_index_share() {
    let mut c = ProactiveCache::new(10_000, ReplacementPolicy::Grd3, Catalog::empty());
    c.absorb(&sample_reply(), 1, Point::ORIGIN);
    let s = c.stats();
    assert!(s.index_bytes > 0);
    assert!(s.index_to_cache_ratio() > 0.0);
    assert!(s.index_to_cache_ratio() < 1.0);
    assert_eq!(s.index_bytes + s.object_bytes, s.used_bytes);
}
