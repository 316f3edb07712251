//! Crate-level property tests: the R-tree, the BPTs and the generic engine
//! must satisfy their contracts on *arbitrary* inputs, not just the
//! hand-picked unit-test data.

use crate::bpt::{Bpt, BptCellKind, BptScratch, Code, SplitPolicy};
use crate::engine::tests::PartialView;
use crate::engine::{execute, resume, Expansion, IndexView, NoopTracer};
use crate::proto::{
    CellKind, CellRecord, CellRef, HeapEntry, NodeShipment, QuerySpec, RemainderQuery, Request,
    Response, ServerReply, Side, VersionedReply, CONFIRM_BYTES, ENTRY_BYTES, EPOCH_BYTES,
    HEAP_ENTRY_BYTES, HEAP_PAIR_BYTES, INVALIDATION_BYTES, OBJECT_HEADER_BYTES, PAIR_BYTES,
    QUERY_DESC_BYTES, SHIPMENT_HEADER_BYTES,
};
use crate::tree::{RTree, RTreeConfig};
use crate::{naive, query, ChildRef, NodeId, ObjectId, ObjectStore, SpatialObject};
use pc_geom::{Point, Rect};
use proptest::prelude::*;

fn arb_objects(max: usize) -> impl Strategy<Value = Vec<SpatialObject>> {
    prop::collection::vec(
        (
            0.0f64..1.0,
            0.0f64..1.0,
            0.0f64..0.03,
            0.0f64..0.03,
            1u32..5000,
        ),
        2..max,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (x, y, w, h, size))| SpatialObject {
                id: ObjectId(i as u32),
                mbr: Rect::from_coords(x, y, (x + w).min(1.0), (y + h).min(1.0)),
                size_bytes: size,
            })
            .collect()
    })
}

fn build(objects: &[SpatialObject]) -> (ObjectStore, RTree) {
    let tree = RTree::bulk_load(RTreeConfig::small(), objects);
    (ObjectStore::new(objects.to_vec()), tree)
}

/// Arbitrary remainder heaps: a mix of single/pair entries over cell and
/// object sides (geometry is irrelevant for wire sizing).
fn arb_heap() -> impl Strategy<Value = Vec<(f64, HeapEntry)>> {
    prop::collection::vec(
        (
            0.0f64..1.0,
            any::<bool>(),
            any::<bool>(),
            0u32..64,
            0u32..64,
        ),
        0..24,
    )
    .prop_map(|raw| {
        let side = |is_obj: bool, id: u32| {
            if is_obj {
                Side::Obj {
                    id: ObjectId(id),
                    mbr: Rect::UNIT,
                    cached: false,
                }
            } else {
                Side::Cell {
                    cell: CellRef::node_root(NodeId(id)),
                    mbr: Rect::UNIT,
                }
            }
        };
        raw.into_iter()
            .map(|(key, pair, obj, a, b)| {
                let entry = if pair {
                    HeapEntry::Pair(side(obj, a), side(!obj, b))
                } else {
                    HeapEntry::Single(side(obj, a))
                };
                (key, entry)
            })
            .collect()
    })
}

/// Arbitrary server replies: confirmed ids, sized payload objects, join
/// pairs and index shipments with varying cell counts.
fn arb_reply() -> impl Strategy<Value = ServerReply> {
    (
        prop::collection::vec(0u32..1000, 0..10),
        prop::collection::vec(1u32..5000, 0..10),
        0usize..6,
        prop::collection::vec(0usize..20, 0..8),
    )
        .prop_map(|(confirmed, sizes, n_pairs, cell_counts)| ServerReply {
            confirmed: confirmed.into_iter().map(ObjectId).collect(),
            objects: sizes
                .into_iter()
                .enumerate()
                .map(|(i, size_bytes)| SpatialObject {
                    id: ObjectId(i as u32),
                    mbr: Rect::UNIT,
                    size_bytes,
                })
                .collect(),
            pairs: (0..n_pairs)
                .map(|i| (ObjectId(i as u32), ObjectId(i as u32 + 1)))
                .collect(),
            index: cell_counts
                .into_iter()
                .enumerate()
                .map(|(i, n)| NodeShipment {
                    node: NodeId(i as u32),
                    level: 1,
                    parent: None,
                    cells: vec![
                        CellRecord {
                            code: Code::ROOT,
                            mbr: Rect::UNIT,
                            kind: CellKind::Super,
                        };
                        n
                    ],
                })
                .collect(),
            expansions: 0,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn tree_structure_valid_for_any_input(objects in arb_objects(120)) {
        let tree = RTree::bulk_load(RTreeConfig::small(), &objects);
        tree.validate(objects.len(), false).unwrap();
        // And dynamically built too.
        let mut dynamic = RTree::new(RTreeConfig::small());
        for o in &objects {
            dynamic.insert(o);
        }
        dynamic.validate(objects.len(), true).unwrap();
    }

    #[test]
    fn range_query_matches_naive(objects in arb_objects(150),
                                 cx in 0.0f64..1.0, cy in 0.0f64..1.0,
                                 side in 0.01f64..0.6) {
        let (store, tree) = build(&objects);
        let w = Rect::centered_square(Point::new(cx, cy), side);
        let mut got = query::range_query(&tree, &w);
        got.sort_unstable();
        prop_assert_eq!(&got, &naive::range_naive(&store, &w));
        // Engine agrees as well.
        let view = &tree;
        let out = execute(view, &QuerySpec::Range { window: w }, &mut NoopTracer);
        let mut eng: Vec<ObjectId> = out.results.iter().map(|(id, _)| *id).collect();
        eng.sort_unstable();
        prop_assert_eq!(eng, got);
    }

    #[test]
    fn knn_matches_naive(objects in arb_objects(150),
                         cx in 0.0f64..1.0, cy in 0.0f64..1.0, k in 1usize..12) {
        let (store, tree) = build(&objects);
        let p = Point::new(cx, cy);
        let got = query::knn_query(&tree, &p, k);
        let want = naive::knn_naive(&store, &p, k);
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            prop_assert!((g.1 - w.1).abs() < 1e-12);
        }
        let view = &tree;
        let out = execute(view, &QuerySpec::Knn { center: p, k: k as u32 }, &mut NoopTracer);
        prop_assert_eq!(out.results.len(), want.len());
    }

    #[test]
    fn join_matches_naive(objects in arb_objects(80), dist in 0.0f64..0.1) {
        let (store, tree) = build(&objects);
        let mut got = query::distance_self_join(&tree, dist);
        got.sort_unstable();
        prop_assert_eq!(&got, &naive::join_naive(&store, dist));
        let view = &tree;
        let out = execute(view, &QuerySpec::Join { dist }, &mut NoopTracer);
        let mut eng = out.result_pairs;
        eng.sort_unstable();
        prop_assert_eq!(eng, got);
    }

    #[test]
    fn two_stage_equals_direct_under_arbitrary_views(
        objects in arb_objects(100),
        node_bits in prop::collection::vec(any::<bool>(), 64),
        obj_bits in prop::collection::vec(any::<bool>(), 100),
        cx in 0.0f64..1.0, cy in 0.0f64..1.0,
        which in 0u8..3, k in 1u32..8, side in 0.02f64..0.4, dist in 0.0f64..0.05,
    ) {
        let (store, tree) = build(&objects);
        // A partial view driven by the bits: node bits striped across the
        // slab, one object bit per id.
        let view = PartialView {
            full: &tree,
            visible: (0..512).filter(|i| node_bits[i % 64]).map(|i| NodeId(i as u32)).collect(),
            have_objects: (0..obj_bits.len())
                .filter(|&i| obj_bits[i])
                .map(|i| ObjectId(i as u32))
                .collect(),
        };
        let full = &tree;
        let spec = match which {
            0 => QuerySpec::Range { window: Rect::centered_square(Point::new(cx, cy), side) },
            1 => QuerySpec::Knn { center: Point::new(cx, cy), k },
            _ => QuerySpec::Join { dist },
        };
        let local = execute(&view, &spec, &mut NoopTracer);
        let mut ids: Vec<ObjectId> = local.results.iter().map(|(id, _)| *id).collect();
        let mut pairs = local.result_pairs.clone();
        if let Some(rq) = &local.remainder {
            let remote = resume(full, rq, &mut NoopTracer);
            prop_assert!(remote.remainder.is_none());
            ids.extend(remote.results.iter().map(|(id, _)| *id));
            pairs.extend(remote.result_pairs.iter().copied());
        }
        ids.sort_unstable();
        ids.dedup();
        pairs.sort_unstable();
        pairs.dedup();
        match spec {
            QuerySpec::Range { window } => {
                prop_assert_eq!(ids, naive::range_naive(&store, &window));
            }
            QuerySpec::Knn { center, k } => {
                let want = naive::knn_naive(&store, &center, k as usize);
                prop_assert_eq!(ids.len(), want.len());
                let mut got_d: Vec<f64> =
                    ids.iter().map(|id| store.get(*id).mbr.min_dist(&center)).collect();
                got_d.sort_by(f64::total_cmp);
                for (g, (_, w)) in got_d.iter().zip(&want) {
                    prop_assert!((g - w).abs() < 1e-12);
                }
            }
            QuerySpec::Join { dist } => {
                prop_assert_eq!(pairs, naive::join_naive(&store, dist));
            }
        }
    }

    #[test]
    fn iterative_kernels_match_oracles_after_arbitrary_updates(
        objects in arb_objects(100),
        ops in prop::collection::vec(
            (any::<bool>(), 0u32..200, 0.0f64..1.0, 0.0f64..1.0), 0..40),
        cx in 0.0f64..1.0, cy in 0.0f64..1.0,
        side in 0.02f64..0.5, k in 1usize..10, dist in 0.0f64..0.08,
    ) {
        // Served executor ≡ plain-tree reference ≡ brute force, on trees
        // shaped by arbitrary update sequences. Inserted points and the
        // query point snap to a 1/8 grid, so equal coordinates, equal
        // distances and zero-distance pairs are the common case, not luck.
        let snap = |v: f64| (v * 8.0).floor() / 8.0;
        let mut tree = RTree::bulk_load(RTreeConfig::small(), &objects);
        let mut store = ObjectStore::new(objects);
        for (insert, pick, x, y) in ops {
            let live = store.iter_live().count();
            if insert {
                let id = store.push(Rect::from_point(Point::new(snap(x), snap(y))), 64);
                tree.insert(&store.get(id));
            } else if live > 0 {
                let o = store.iter_live().nth(pick as usize % live).unwrap();
                prop_assert!(tree.delete(o.id, &o.mbr));
                store.mark_dead(o.id);
            }
        }
        tree.validate(store.iter_live().count(), false).unwrap();
        let served = |spec: QuerySpec| {
            let out = execute(&tree, &spec, &mut NoopTracer);
            assert!(out.remainder.is_none());
            let mut ids: Vec<ObjectId> = out.results.iter().map(|(id, _)| *id).collect();
            let mut pairs = out.result_pairs;
            if !matches!(spec, QuerySpec::Knn { .. }) {
                ids.sort_unstable();
                pairs.sort_unstable();
            }
            (ids, pairs)
        };

        let window = Rect::centered_square(Point::new(snap(cx), snap(cy)), side);
        let want = naive::range_naive(&store, &window);
        let mut reference = query::range_query(&tree, &window);
        reference.sort_unstable();
        prop_assert_eq!(&served(QuerySpec::Range { window }).0, &want);
        prop_assert_eq!(&reference, &want);

        // kNN: the three break distance ties differently (pop sequence vs
        // object id), so compare what a tie cannot change — the distances,
        // exactly — and that each id is a distinct live object at the
        // distance it was returned for.
        let center = Point::new(snap(cx), snap(cy));
        let want: Vec<f64> = naive::knn_naive(&store, &center, k).iter().map(|n| n.1).collect();
        let reference = query::knn_query(&tree, &center, k);
        for (id, d) in &reference {
            prop_assert_eq!(store.get(*id).mbr.min_dist(&center), *d);
        }
        for mut ids in [
            served(QuerySpec::Knn { center, k: k as u32 }).0,
            reference.iter().map(|n| n.0).collect(),
        ] {
            let got: Vec<f64> = ids.iter().map(|id| store.get(*id).mbr.min_dist(&center)).collect();
            prop_assert_eq!(&got, &want);
            prop_assert!(ids.iter().all(|id| store.is_live(*id)));
            ids.sort_unstable();
            ids.dedup();
            prop_assert_eq!(ids.len(), want.len()); // no object returned twice
        }

        let want = naive::join_naive(&store, dist);
        prop_assert_eq!(&served(QuerySpec::Join { dist }).1, &want);
        prop_assert_eq!(&query::distance_self_join(&tree, dist), &want);
    }

    #[test]
    fn full_view_expansion_is_the_bpt_structure(
        objects in arb_objects(120),
        delete_bits in prop::collection::vec(any::<bool>(), 120),
    ) {
        // Deletes leave under-full nodes, a shrunk root and detached husks
        // in the slab; an all-deleted tree is one empty root node.
        let mut tree = RTree::bulk_load(RTreeConfig::small(), &objects);
        for (o, del) in objects.iter().zip(&delete_bits) {
            if *del {
                prop_assert!(tree.delete(o.id, &o.mbr));
            }
        }
        let view = &tree;
        let mut stack = vec![CellRef::node_root(tree.root())];
        while let Some(cell) = stack.pop() {
            let node = tree.node(cell.node);
            let bpt = node.bpt();
            let want = match (bpt.children(cell.code, node), bpt.find(cell.code, node).map(|c| c.kind)) {
                // Two children iff the BPT splits here, in its order.
                (Some(pair), _) => Expansion::Split(pair.map(|(code, c)| Side::Cell {
                    cell: CellRef { node: cell.node, code },
                    mbr: c.mbr,
                })),
                // One iff it is a leaf cell: the entry it stands for.
                (None, Some(BptCellKind::Leaf { entry_idx })) => {
                    let entry = node.entry(entry_idx as usize);
                    Expansion::Entry(match entry.child {
                        ChildRef::Node(n) => Side::Cell { cell: CellRef::node_root(n), mbr: entry.mbr },
                        ChildRef::Object(id) => Side::Obj { id, mbr: entry.mbr, cached: false },
                    })
                }
                // None only for an empty node.
                _ => {
                    prop_assert!(bpt.is_empty() && node.is_empty());
                    Expansion::Empty
                }
            };
            let got = view.expand(cell);
            prop_assert_eq!(got, want);
            stack.extend(got.children().unwrap().iter().filter_map(|side| match side {
                Side::Cell { cell, .. } => Some(*cell),
                Side::Obj { .. } => None,
            }));
        }
        // What the index does not have is missing, not a panic.
        let past_slab = CellRef::node_root(NodeId(tree.slab_len() as u32));
        prop_assert_eq!(view.expand(past_slab), Expansion::Missing);
        prop_assert_eq!(view.expand(CellRef::node_root(NodeId(u32::MAX))), Expansion::Missing);
        if !tree.node(tree.root()).bpt().is_empty() {
            let mut deep = Code::ROOT;
            for _ in 0..30 {
                deep = deep.child(true);
            }
            let no_such_code = CellRef { node: tree.root(), code: deep };
            prop_assert_eq!(view.expand(no_such_code), Expansion::Missing);
        }
    }

    #[test]
    fn parallel_bpt_build_equals_the_per_node_loop(
        objects in arb_objects(160),
        shape in 0usize..3,
    ) {
        // `objects` tiled side by side 0 times, once, or up to 9 000 of
        // them: a tree of one empty node, of a handful (down to fewer than
        // the 7 workers below), or of more than one 1024-slot chunk.
        let tiles = [0, 1, 9_000 / objects.len() + 1][shape];
        let tiled: Vec<SpatialObject> = (0..tiles)
            .flat_map(|t| objects.iter().map(move |o| (t, o)))
            .enumerate()
            .map(|(i, (t, o))| SpatialObject {
                id: ObjectId(i as u32),
                mbr: Rect::from_coords(
                    o.mbr.min.x + t as f64,
                    o.mbr.min.y,
                    o.mbr.max.x + t as f64,
                    o.mbr.max.y,
                ),
                size_bytes: o.size_bytes,
            })
            .collect();
        let tree = RTree::bulk_load(RTreeConfig::small(), &tiled);
        prop_assert!(shape < 2 || tree.slab_len() > crate::CHUNK_LEN);
        for policy in [SplitPolicy::RStar, SplitPolicy::Midpoint] {
            let looped: Vec<Bpt> = (0..tree.slab_len())
                .map(|i| {
                    let node = tree.node(NodeId(i as u32));
                    let mbrs: Vec<Rect> = node.entries().map(|e| e.mbr).collect();
                    Bpt::build_with(&mbrs, policy)
                })
                .collect();
            let trees = [1usize, 2, 3, 7, 0].map(|workers| {
                let mut rebuilt = tree.clone();
                match workers {
                    0 => rebuilt.rebuild_bpts(policy),
                    _ => rebuilt.rebuild_bpts_on(policy, workers),
                }
                rebuilt
            });
            for rebuilt in &trees {
                prop_assert_eq!(rebuilt.slab_len(), looped.len());
                for (i, want) in looped.iter().enumerate() {
                    prop_assert_eq!(rebuilt.node(NodeId(i as u32)).bpt(), want);
                }
            }
        }
    }

    #[test]
    fn bpt_build_ignores_what_its_scratch_held(
        small in arb_objects(12),
        large in arb_objects(110),
        midpoint in any::<bool>(),
    ) {
        let policy = if midpoint { SplitPolicy::Midpoint } else { SplitPolicy::RStar };
        let mbrs = |objs: &[SpatialObject]| objs.iter().map(|o| o.mbr).collect::<Vec<Rect>>();
        let mut scratch = BptScratch::default();
        let large_first = Bpt::build_in(&mbrs(&large), policy, &mut scratch);
        // The scratch now holds a larger node's orderings and ids.
        let reused = Bpt::build_in(&mbrs(&small), policy, &mut scratch);
        prop_assert_eq!(&reused, &Bpt::build_with(&mbrs(&small), policy));
        prop_assert_eq!(large_first, Bpt::build_with(&mbrs(&large), policy));
    }

    #[test]
    fn chunked_slab_clones_share_and_stay_immutable(
        objects in arb_objects(120),
        ops in prop::collection::vec(
            (any::<bool>(), 0u32..200, 0.0f64..1.0, 0.0f64..1.0), 1..24),
    ) {
        // A cloned tree is a persistent snapshot: the clone shares *every*
        // chunk and slot with the original, later updates to the working
        // copy copy at most the slots they dirty (plus their chunk spines),
        // and the snapshot's query results and BPTs never change.
        let mut tree = RTree::bulk_load(RTreeConfig::small(), &objects);
        let base = tree.clone();
        let slots = tree.slots();
        prop_assert_eq!(base.slots().shared_slots(slots), slots.len());
        prop_assert_eq!(base.slots().shared_chunks(slots), slots.chunk_count());

        let before = query::range_query(&base, &Rect::UNIT);
        let bpts = |tree: &RTree| -> Vec<Bpt> { tree.slots().iter().map(|n| n.bpt().clone()).collect() };
        let before_bpts = bpts(&base);
        let mut live = objects.clone();
        let mut next_id = objects.len() as u32;
        for (insert, pick, x, y) in ops {
            if insert {
                let o = SpatialObject {
                    id: ObjectId(next_id),
                    mbr: Rect::from_point(Point::new(x, y)),
                    size_bytes: 64,
                };
                next_id += 1;
                tree.insert(&o);
                live.push(o);
            } else if !live.is_empty() {
                let o = live.swap_remove(pick as usize % live.len());
                prop_assert!(tree.delete(o.id, &o.mbr));
            }
        }

        // Accounting stays consistent: every copied chunk spine is explained
        // by a dirtied slot in it, except the tail chunk which growth alone
        // can clone.
        let copied_slots = base.slab_len() - base.slots().shared_slots(tree.slots());
        let copied_chunks = base.slots().chunk_count() - base.slots().shared_chunks(tree.slots());
        prop_assert!(copied_chunks <= copied_slots + 1);

        // The snapshot is untouched by everything above.
        base.validate(objects.len(), false).unwrap();
        prop_assert_eq!(query::range_query(&base, &Rect::UNIT), before);
        prop_assert_eq!(bpts(&base), before_bpts);
    }

    #[test]
    fn bpt_codes_are_navigable(objects in arb_objects(100)) {
        let (_, tree) = build(&objects);
        for id in tree.node_ids() {
            let node = tree.node(id);
            let bpt = node.bpt();
            let mut leaves = Vec::new();
            bpt.leaf_cells(node, |code, entry_idx, mbr| leaves.push((code, entry_idx, mbr)));
            prop_assert_eq!(leaves.len(), node.len());
            // Every leaf cell's code resolves back to itself: the entry's
            // own MBR, read from the node.
            for (code, entry_idx, mbr) in leaves {
                let found = bpt.find(code, node).unwrap();
                prop_assert_eq!(found.kind, BptCellKind::Leaf { entry_idx });
                prop_assert_eq!(found.mbr, mbr);
                prop_assert_eq!(mbr, node.mbr_at(entry_idx as usize));
                // And every ancestor covers it.
                let mut c = code;
                while let Some(p) = c.parent() {
                    prop_assert!(bpt.find(p, node).unwrap().mbr.contains_rect(&mbr));
                    c = p;
                }
            }
        }
    }

    #[test]
    fn deletion_preserves_query_correctness(
        objects in arb_objects(80),
        delete_bits in prop::collection::vec(any::<bool>(), 80),
    ) {
        let mut tree = RTree::bulk_load(RTreeConfig::small(), &objects);
        let mut survivors = Vec::new();
        for (o, del) in objects.iter().zip(delete_bits.iter().chain(std::iter::repeat(&false))) {
            if *del {
                prop_assert!(tree.delete(o.id, &o.mbr));
            } else {
                survivors.push(*o);
            }
        }
        tree.validate(survivors.len(), false).unwrap();
        let mut got = query::range_query(&tree, &Rect::UNIT);
        got.sort_unstable();
        let mut want: Vec<ObjectId> = survivors.iter().map(|o| o.id).collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn code_child_parent_roundtrip(bits in prop::collection::vec(any::<bool>(), 0..30)) {
        let mut code = Code::ROOT;
        for &b in &bits {
            code = code.child(b);
        }
        prop_assert_eq!(code.depth() as usize, bits.len());
        for (i, &b) in bits.iter().enumerate() {
            prop_assert_eq!(code.bit(i as u8), b);
        }
        let mut back = code;
        for _ in 0..bits.len() {
            back = back.parent().unwrap();
        }
        prop_assert!(back.is_root());
        prop_assert!(back.is_prefix_of(code));
    }

    #[test]
    fn request_envelope_wire_bytes_sum_their_parts(heap in arb_heap(), epoch in 0u64..100) {
        let rq = RemainderQuery {
            spec: QuerySpec::Join { dist: 0.01 },
            already_found: 0,
            heap,
        };
        let per_entry: u64 = rq
            .heap
            .iter()
            .map(|(_, e)| match e {
                HeapEntry::Single(_) => HEAP_ENTRY_BYTES,
                HeapEntry::Pair(..) => HEAP_PAIR_BYTES,
            })
            .sum();
        prop_assert_eq!(
            Request::Remainder(rq.clone()).wire_bytes(),
            QUERY_DESC_BYTES + per_entry
        );
        prop_assert_eq!(
            Request::RemainderVersioned { query: rq, epoch }.wire_bytes(),
            QUERY_DESC_BYTES + per_entry + EPOCH_BYTES
        );
    }

    #[test]
    fn response_envelope_wire_bytes_sum_their_parts(
        reply in arb_reply(),
        n_invalidate in 0usize..12,
        epoch in 0u64..100,
    ) {
        let parts = reply.confirmed.len() as u64 * CONFIRM_BYTES
            + reply
                .objects
                .iter()
                .map(|o| OBJECT_HEADER_BYTES + o.size_bytes as u64)
                .sum::<u64>()
            + reply.pairs.len() as u64 * PAIR_BYTES
            + reply
                .index
                .iter()
                .map(|s| SHIPMENT_HEADER_BYTES + s.cells.len() as u64 * ENTRY_BYTES)
                .sum::<u64>();
        prop_assert_eq!(Response::Remainder(reply.clone()).wire_bytes(), parts);
        let invalidate: Vec<NodeId> = (0..n_invalidate).map(|i| NodeId(i as u32)).collect();
        prop_assert_eq!(
            Response::Versioned(VersionedReply::Fresh {
                reply,
                invalidate: invalidate.clone(),
                epoch,
            })
            .wire_bytes(),
            parts + n_invalidate as u64 * INVALIDATION_BYTES + EPOCH_BYTES
        );
        prop_assert_eq!(
            Response::Versioned(VersionedReply::Stale { invalidate, epoch }).wire_bytes(),
            n_invalidate as u64 * INVALIDATION_BYTES + EPOCH_BYTES
        );
    }
}
