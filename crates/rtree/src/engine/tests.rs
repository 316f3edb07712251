//! Engine correctness: the generic processor must agree with the plain
//! recursive algorithms and the brute-force oracle on a full view, and the
//! two-stage client/server pipeline (partial view → remainder → resume)
//! must reconstruct exactly the direct answer for every query type.

use super::*;
use crate::bpt::BptStore;
use crate::naive;
use crate::query;
use crate::tree::{RTree, RTreeConfig};
use crate::view::FullView;
use crate::{ObjectStore, SpatialObject};
use pc_geom::Point;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn dataset(n: usize, seed: u64) -> (ObjectStore, RTree, BptStore) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let objects: Vec<SpatialObject> = (0..n)
        .map(|i| {
            let x: f64 = rng.random_range(0.0..1.0);
            let y: f64 = rng.random_range(0.0..1.0);
            let w: f64 = rng.random_range(0.0..0.02);
            let h: f64 = rng.random_range(0.0..0.02);
            SpatialObject {
                id: ObjectId(i as u32),
                mbr: Rect::from_coords(x, y, (x + w).min(1.0), (y + h).min(1.0)),
                size_bytes: 100,
            }
        })
        .collect();
    let tree = RTree::bulk_load(RTreeConfig::small(), &objects);
    let bpts = BptStore::build(&tree);
    (ObjectStore::new(objects), tree, bpts)
}

/// A partial view for tests: only `visible` nodes expand; objects report
/// the `cached` flag from `have_objects`. This mimics the client cache
/// without depending on the cache crate.
pub(crate) struct PartialView<'a> {
    pub full: FullView<'a>,
    pub visible: HashSet<NodeId>,
    pub have_objects: HashSet<ObjectId>,
}

impl IndexView for PartialView<'_> {
    fn root(&self) -> Option<(Rect, CellRef)> {
        self.full.root()
    }

    fn expand(&self, cell: CellRef) -> Expansion {
        if !self.visible.contains(&cell.node) {
            return Expansion::Missing;
        }
        self.full.expand(cell).map(|side| match side {
            Side::Obj { id, mbr, .. } => Side::Obj {
                id,
                mbr,
                cached: self.have_objects.contains(&id),
            },
            cell => cell,
        })
    }

    fn authoritative(&self) -> bool {
        false
    }
}

fn random_partial<'a>(
    tree: &'a RTree,
    bpts: &'a BptStore,
    store: &ObjectStore,
    frac_nodes: f64,
    frac_objs: f64,
    rng: &mut SmallRng,
) -> PartialView<'a> {
    let visible = tree
        .node_ids()
        .into_iter()
        .filter(|_| rng.random_bool(frac_nodes))
        .collect();
    let have_objects = store
        .iter()
        .filter(|_| rng.random_bool(frac_objs))
        .map(|o| o.id)
        .collect();
    PartialView {
        full: FullView::new(tree, bpts),
        visible,
        have_objects,
    }
}

// -------------------------------------------------------------------
// Full-view equivalence
// -------------------------------------------------------------------

#[test]
fn full_view_range_matches_plain_and_naive() {
    let (store, tree, bpts) = dataset(300, 10);
    let view = FullView::new(&tree, &bpts);
    let mut rng = SmallRng::seed_from_u64(1);
    for _ in 0..40 {
        let w = Rect::centered_square(
            Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)),
            rng.random_range(0.01..0.4),
        );
        let spec = QuerySpec::Range { window: w };
        let out = execute(&view, &spec, &mut NoopTracer);
        assert!(out.remainder.is_none(), "authoritative view cannot miss");
        let mut got: Vec<ObjectId> = out.results.iter().map(|(id, _)| *id).collect();
        got.sort_unstable();
        let mut plain = query::range_query(&tree, &w);
        plain.sort_unstable();
        assert_eq!(got, plain);
        assert_eq!(got, naive::range_naive(&store, &w));
    }
}

#[test]
fn full_view_knn_matches_naive() {
    let (store, tree, bpts) = dataset(250, 11);
    let view = FullView::new(&tree, &bpts);
    let mut rng = SmallRng::seed_from_u64(2);
    for _ in 0..40 {
        let p = Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0));
        let k = rng.random_range(1..10u32);
        let spec = QuerySpec::Knn { center: p, k };
        let out = execute(&view, &spec, &mut NoopTracer);
        assert!(out.remainder.is_none());
        let want = naive::knn_naive(&store, &p, k as usize);
        assert_eq!(out.results.len(), want.len());
        for ((id, _), (_, wd)) in out.results.iter().zip(&want) {
            let d = store.get(*id).mbr.min_dist(&p);
            assert!((d - wd).abs() < 1e-12, "distance mismatch at {id}");
        }
    }
}

#[test]
fn full_view_join_matches_naive() {
    let (store, tree, bpts) = dataset(120, 12);
    let view = FullView::new(&tree, &bpts);
    for dist in [0.0, 0.02, 0.08] {
        let spec = QuerySpec::Join { dist };
        let out = execute(&view, &spec, &mut NoopTracer);
        assert!(out.remainder.is_none());
        let mut got = out.result_pairs.clone();
        got.sort_unstable();
        assert_eq!(got, naive::join_naive(&store, dist), "dist {dist}");
    }
}

#[test]
fn knn_results_pop_in_distance_order() {
    let (store, tree, bpts) = dataset(200, 13);
    let view = FullView::new(&tree, &bpts);
    let p = Point::new(0.4, 0.6);
    let out = execute(&view, &QuerySpec::Knn { center: p, k: 20 }, &mut NoopTracer);
    let dists: Vec<f64> = out
        .results
        .iter()
        .map(|(id, _)| store.get(*id).mbr.min_dist(&p))
        .collect();
    for w in dists.windows(2) {
        assert!(w[0] <= w[1] + 1e-12);
    }
}

#[test]
fn empty_tree_yields_empty_outcomes() {
    let tree = RTree::new(RTreeConfig::small());
    let bpts = BptStore::build(&tree);
    let view = FullView::new(&tree, &bpts);
    assert_eq!(
        view.expand(CellRef::node_root(tree.root())),
        Expansion::Empty
    );
    for spec in [
        QuerySpec::Range { window: Rect::UNIT },
        QuerySpec::Knn {
            center: Point::ORIGIN,
            k: 3,
        },
        QuerySpec::Join { dist: 0.5 },
    ] {
        let out = execute(&view, &spec, &mut NoopTracer);
        assert!(out.results.is_empty());
        assert!(out.result_pairs.is_empty());
        assert!(out.remainder.is_none());
    }
}

// -------------------------------------------------------------------
// Two-stage pipeline equivalence (the core §3.2/§3.3 invariant)
// -------------------------------------------------------------------

/// Runs a query through a partial view, resumes the remainder on the full
/// view, and returns the union of confirmed results plus server pairs.
fn two_stage(
    partial: &PartialView<'_>,
    full: &FullView<'_>,
    spec: &QuerySpec,
) -> (Vec<ObjectId>, Vec<(ObjectId, ObjectId)>) {
    let local = execute(partial, spec, &mut NoopTracer);
    let mut ids: Vec<ObjectId> = local.results.iter().map(|(id, _)| *id).collect();
    let mut pairs = local.result_pairs.clone();
    if let Some(rq) = &local.remainder {
        let remote = resume(full, rq, &mut NoopTracer);
        assert!(remote.remainder.is_none(), "server must finish");
        ids.extend(remote.results.iter().map(|(id, _)| *id));
        pairs.extend(remote.result_pairs.iter().copied());
    }
    ids.sort_unstable();
    ids.dedup();
    pairs.sort_unstable();
    pairs.dedup();
    (ids, pairs)
}

#[test]
fn two_stage_range_equals_direct() {
    let (store, tree, bpts) = dataset(300, 20);
    let full = FullView::new(&tree, &bpts);
    let mut rng = SmallRng::seed_from_u64(21);
    for round in 0..60 {
        let partial = random_partial(&tree, &bpts, &store, 0.5, 0.4, &mut rng);
        let w = Rect::centered_square(
            Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)),
            rng.random_range(0.02..0.35),
        );
        let spec = QuerySpec::Range { window: w };
        let (ids, _) = two_stage(&partial, &full, &spec);
        assert_eq!(ids, naive::range_naive(&store, &w), "round {round}");
    }
}

#[test]
fn two_stage_knn_equals_direct() {
    let (store, tree, bpts) = dataset(300, 22);
    let full = FullView::new(&tree, &bpts);
    let mut rng = SmallRng::seed_from_u64(23);
    for round in 0..60 {
        let partial = random_partial(&tree, &bpts, &store, 0.6, 0.5, &mut rng);
        let p = Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0));
        let k = rng.random_range(1..9u32);
        let spec = QuerySpec::Knn { center: p, k };
        let (ids, _) = two_stage(&partial, &full, &spec);
        let want = naive::knn_naive(&store, &p, k as usize);
        assert_eq!(ids.len(), want.len(), "round {round}");
        // Compare distance multisets (ties may swap ids between stages).
        let mut got_d: Vec<f64> = ids
            .iter()
            .map(|id| store.get(*id).mbr.min_dist(&p))
            .collect();
        got_d.sort_by(f64::total_cmp);
        for (g, (_, wd)) in got_d.iter().zip(&want) {
            assert!((g - wd).abs() < 1e-12, "round {round}");
        }
    }
}

#[test]
fn two_stage_join_equals_direct() {
    let (store, tree, bpts) = dataset(150, 24);
    let full = FullView::new(&tree, &bpts);
    let mut rng = SmallRng::seed_from_u64(25);
    for round in 0..25 {
        let partial = random_partial(&tree, &bpts, &store, 0.55, 0.5, &mut rng);
        let dist = rng.random_range(0.0..0.08);
        let spec = QuerySpec::Join { dist };
        let (_, pairs) = two_stage(&partial, &full, &spec);
        assert_eq!(pairs, naive::join_naive(&store, dist), "round {round}");
    }
}

#[test]
fn cold_cache_sends_everything_to_server() {
    let (store, tree, bpts) = dataset(100, 26);
    let full = FullView::new(&tree, &bpts);
    let partial = PartialView {
        full: FullView::new(&tree, &bpts),
        visible: Default::default(),
        have_objects: Default::default(),
    };
    let w = Rect::centered_square(Point::new(0.5, 0.5), 0.4);
    let spec = QuerySpec::Range { window: w };
    let local = execute(&partial, &spec, &mut NoopTracer);
    assert!(local.results.is_empty());
    let rq = local
        .remainder
        .expect("cold cache must produce a remainder");
    assert_eq!(rq.heap.len(), 1, "only the root entry");
    let remote = resume(&full, &rq, &mut NoopTracer);
    let mut ids: Vec<ObjectId> = remote.results.iter().map(|(i, _)| *i).collect();
    ids.sort_unstable();
    assert_eq!(ids, naive::range_naive(&store, &w));
}

#[test]
fn fully_cached_view_answers_locally() {
    let (store, tree, bpts) = dataset(150, 27);
    let partial = PartialView {
        full: FullView::new(&tree, &bpts),
        visible: tree.node_ids().into_iter().collect(),
        have_objects: store.iter().map(|o| o.id).collect(),
    };
    let w = Rect::centered_square(Point::new(0.3, 0.3), 0.2);
    let out = execute(&partial, &QuerySpec::Range { window: w }, &mut NoopTracer);
    assert!(out.remainder.is_none(), "everything cached, nothing to ask");
    let mut ids: Vec<ObjectId> = out.results.iter().map(|(i, _)| *i).collect();
    ids.sort_unstable();
    assert_eq!(ids, naive::range_naive(&store, &w));
}

#[test]
fn knn_blocked_objects_are_confirmed_without_retransmission() {
    // Blocked objects travel in H as present (cached=true) leaf entries;
    // when the server confirms them as results it must preserve the flag so
    // no payload is retransmitted (Example 3.1 / Example 1.3).
    let (store, tree, bpts) = dataset(200, 28);
    let full = FullView::new(&tree, &bpts);
    let mut rng = SmallRng::seed_from_u64(29);
    let mut confirmed_without_bytes = 0usize;
    for _ in 0..40 {
        let mut visible: std::collections::HashSet<NodeId> = tree.node_ids().into_iter().collect();
        let ids = tree.node_ids();
        let victim = ids[rng.random_range(1..ids.len())];
        visible.remove(&victim);
        let partial = PartialView {
            full: FullView::new(&tree, &bpts),
            visible,
            have_objects: store.iter().map(|o| o.id).collect(),
        };
        let p = Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0));
        let spec = QuerySpec::Knn { center: p, k: 5 };
        let local = execute(&partial, &spec, &mut NoopTracer);
        if let Some(rq) = &local.remainder {
            let cached_in_heap: std::collections::HashSet<ObjectId> = rq
                .heap
                .iter()
                .filter_map(|(_, e)| match e {
                    HeapEntry::Single(Side::Obj {
                        id, cached: true, ..
                    }) => Some(*id),
                    _ => None,
                })
                .collect();
            let remote = resume(&full, rq, &mut NoopTracer);
            for &(id, cached) in &remote.results {
                if cached_in_heap.contains(&id) {
                    assert!(cached, "blocked object {id} needlessly retransmitted");
                    confirmed_without_bytes += 1;
                }
            }
        }
    }
    assert!(
        confirmed_without_bytes > 0,
        "blocked-confirmation path never exercised"
    );
}

#[test]
fn knn_remainder_is_pruned_after_kth_leaf() {
    let (store, tree, bpts) = dataset(400, 30);
    let mut rng = SmallRng::seed_from_u64(31);
    let mut saw_pruned = false;
    for _ in 0..40 {
        let partial = random_partial(&tree, &bpts, &store, 0.7, 0.6, &mut rng);
        let p = Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0));
        let spec = QuerySpec::Knn { center: p, k: 4 };
        let out = execute(&partial, &spec, &mut NoopTracer);
        if let Some(rq) = &out.remainder {
            let leaf_keys: Vec<f64> = rq
                .heap
                .iter()
                .filter(|(_, e)| e.is_leaf())
                .map(|(k, _)| *k)
                .collect();
            let need = 4usize.saturating_sub(rq.already_found as usize);
            if leaf_keys.len() >= need && need > 0 {
                let mut sorted = leaf_keys.clone();
                sorted.sort_by(f64::total_cmp);
                let cutoff = sorted[need - 1];
                for (k, _) in &rq.heap {
                    assert!(*k <= cutoff + 1e-12, "unpruned entry beyond cutoff");
                }
                saw_pruned = true;
            }
        }
    }
    assert!(saw_pruned, "pruning path never exercised");
}

// -------------------------------------------------------------------
// Access log / compact-form frontier properties
// -------------------------------------------------------------------

#[test]
fn access_log_frontier_is_an_antichain_covering_touched_nodes() {
    let (_, tree, bpts) = dataset(300, 40);
    let view = FullView::new(&tree, &bpts);
    let mut log = AccessLog::default();
    let spec = QuerySpec::Knn {
        center: Point::new(0.5, 0.5),
        k: 7,
    };
    let _ = execute(&view, &spec, &mut log);
    assert!(!log.shipped_nodes().is_empty());
    for node in log.shipped_nodes() {
        let frontier = log.frontier(node);
        assert!(!frontier.is_empty(), "{node} shipped but empty frontier");
        for i in 0..frontier.len() {
            for j in 0..frontier.len() {
                if i != j {
                    assert!(
                        !frontier[i].is_prefix_of(frontier[j]),
                        "{node}: frontier not an antichain"
                    );
                }
            }
        }
    }
}

/// Order-independent fingerprint of an access log: (cells touched, super
/// entries expanded, nodes shipped, FNV-1a over the sorted trace).
fn log_digest(log: &AccessLog) -> (usize, usize, usize, u64) {
    let mut nodes: Vec<_> = log.nodes.iter().collect();
    nodes.sort_by_key(|(id, _)| **id);
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        for byte in v.to_le_bytes() {
            hash = (hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let (mut touched, mut expanded) = (0, 0);
    for (id, acc) in nodes {
        mix(id.0 as u64);
        mix(acc.any_expansion as u64);
        for (tag, set) in [(1u64, &acc.touched), (2, &acc.expanded_internal)] {
            let mut codes: Vec<_> = set.iter().map(|c| c.raw()).collect();
            codes.sort_unstable();
            for (bits, len) in codes {
                mix(tag << 40 | (len as u64) << 32 | bits as u64);
            }
        }
        touched += acc.touched.len();
        expanded += acc.expanded_internal.len();
    }
    (touched, expanded, log.shipped_nodes().len(), hash)
}

#[test]
fn cold_resume_access_log_matches_the_recorded_trace() {
    // The trace decides what index a reply ships, so it is pinned: these
    // digests of three cold remainders `{Q, [root]}` were recorded at the
    // commit before `Expansion` became fixed-arity, and must not move.
    let (_, tree, bpts) = dataset(600, 77);
    let view = FullView::new(&tree, &bpts);
    let (mbr, cell) = view.root().unwrap();
    let root = Side::Cell { cell, mbr };
    let cold = |spec: QuerySpec| {
        let entry = if spec.is_join() {
            HeapEntry::Pair(root, root)
        } else {
            HeapEntry::Single(root)
        };
        let rq = RemainderQuery {
            spec,
            already_found: 0,
            heap: vec![(0.0, entry)],
        };
        let mut log = AccessLog::default();
        let out = resume(&view, &rq, &mut log);
        assert!(out.remainder.is_none());
        (out.expansions, log_digest(&log))
    };
    let window = Rect::centered_square(Point::new(0.4, 0.6), 0.2);
    let center = Point::new(0.7, 0.2);
    assert_eq!(
        cold(QuerySpec::Range { window }),
        (100, (137, 61, 15, 8505422665968033972))
    );
    assert_eq!(
        cold(QuerySpec::Knn { center, k: 9 }),
        (45, (66, 29, 8, 10548061020285097763))
    );
    assert_eq!(
        cold(QuerySpec::Join { dist: 0.01 }),
        (3233, (1293, 599, 95, 9204763061743563968))
    );
}

#[test]
fn expansion_count_bounded_by_twice_plain_node_accesses() {
    // §4.2: "the new algorithm in the worst case … doubles the processing
    // time" — BPT navigation at most doubles the per-node work. We verify
    // the engine's expansion count against the plain recursion's node
    // accesses with a generous structural bound.
    let (_, tree, bpts) = dataset(500, 41);
    let view = FullView::new(&tree, &bpts);
    let w = Rect::centered_square(Point::new(0.5, 0.5), 0.3);
    let out = execute(&view, &QuerySpec::Range { window: w }, &mut NoopTracer);
    // Plain node accesses: count nodes whose MBR intersects the window.
    let plain_nodes = tree
        .node_ids()
        .iter()
        .filter(|&&n| {
            tree.node(n)
                .mbr()
                .map(|m| m.intersects(&w))
                .unwrap_or(false)
        })
        .count() as u64;
    // Each accessed node contributes ≤ 2N-1 BPT cells vs N entries plainly:
    // expansions ≤ 2 * (total entries in accessed nodes) is implied by
    // ≤ (2 * max_fan) per node.
    let bound = plain_nodes * 2 * tree.config().max_entries as u64 + 2;
    assert!(
        out.expansions <= bound,
        "expansions {} exceed bound {bound}",
        out.expansions
    );
}
