//! Plain R-tree query algorithms (§3.1): range search, best-first kNN
//! (Hjaltason & Samet \[11\]) and the RJ distance join (Brinkhoff et al.
//! \[3\]) — the **reference** the served executor is checked against.
//!
//! No served request runs this module: every query a server, cluster or
//! client answers goes through [`crate::engine`] over an
//! [`IndexView`](crate::engine::IndexView). These three functions know
//! nothing of BPTs, views or remainders; they walk the plain tree, so the
//! test suites compare the engine against them and both against the
//! brute-force oracle in [`crate::naive`] — a bug would have to be
//! introduced three times to go unnoticed.
//!
//! They are **iterative** (explicit stacks, no recursion — pathological
//! tree depth cannot blow the call stack) and scan the struct-of-arrays MBR
//! columns of [`crate::Node`] directly: window qualification, `MINDIST` and
//! rect-pair pruning each run over four contiguous `f64` lanes with
//! non-short-circuiting combines, the shape the compiler autovectorizes.

use crate::tree::RTree;
use crate::{ChildRef, NodeId, ObjectId};
use pc_geom::{Point, Rect};
use std::collections::BinaryHeap;

#[derive(Clone, Debug, PartialEq)]
enum HiItem {
    Node(NodeId),
    Obj(ObjectId),
}

/// kNN heap entry: `(distance, tie-break seq, payload)`, min-ordered on
/// distance then seq so `BinaryHeap` pops nearest-first deterministically.
#[derive(Clone, Debug)]
struct Hi(f64, u64, HiItem);

impl PartialEq for Hi {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0 && self.1 == other.1
    }
}
impl Eq for Hi {}
impl PartialOrd for Hi {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Hi {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.0.total_cmp(&self.0).then(other.1.cmp(&self.1))
    }
}

/// All objects whose MBR intersects `window`, in unspecified order.
pub fn range_query(tree: &RTree, window: &Rect) -> Vec<ObjectId> {
    let mut out = Vec::new();
    let mut stack = vec![tree.root()];
    while let Some(id) = stack.pop() {
        let node = tree.node(id);
        let (min_x, min_y, max_x, max_y) = node.mbr_cols();
        let children = node.children();
        for i in 0..children.len() {
            // Non-short-circuiting `&`: all four lane compares issue
            // unconditionally, which keeps the qualification branch-light.
            let hit = (min_x[i] <= window.max.x)
                & (window.min.x <= max_x[i])
                & (min_y[i] <= window.max.y)
                & (window.min.y <= max_y[i]);
            if hit {
                match children[i] {
                    ChildRef::Node(c) => stack.push(c),
                    ChildRef::Object(o) => out.push(o),
                }
            }
        }
    }
    out
}

/// The `k` nearest objects to `center` with their distances, closest first.
/// Object distance is `MINDIST` to the object's MBR (exact for the point
/// data of the NE-like dataset; the conventional measure for extended
/// objects). Ties are broken by object id for determinism.
pub fn knn_query(tree: &RTree, center: &Point, k: usize) -> Vec<(ObjectId, f64)> {
    let mut out = Vec::new();
    if k == 0 || tree.object_count() == 0 {
        return out;
    }
    let mut heap = BinaryHeap::new();
    let mut seq = 0u64;
    heap.push(Hi(0.0, seq, HiItem::Node(tree.root())));
    while let Some(Hi(d, _, item)) = heap.pop() {
        match item {
            HiItem::Node(n) => {
                let node = tree.node(n);
                let (min_x, min_y, max_x, max_y) = node.mbr_cols();
                let children = node.children();
                for i in 0..children.len() {
                    seq += 1;
                    // MINDIST over the columns — bit-identical to
                    // `Rect::min_dist`.
                    let dx = (min_x[i] - center.x).max(0.0).max(center.x - max_x[i]);
                    let dy = (min_y[i] - center.y).max(0.0).max(center.y - max_y[i]);
                    let dist = (dx * dx + dy * dy).sqrt();
                    match children[i] {
                        ChildRef::Node(c) => heap.push(Hi(dist, seq, HiItem::Node(c))),
                        // Tie-break object pops by id so equal-distance
                        // results are deterministic.
                        ChildRef::Object(o) => heap.push(Hi(dist, o.0 as u64, HiItem::Obj(o))),
                    }
                }
            }
            HiItem::Obj(o) => {
                out.push((o, d));
                if out.len() == k {
                    break;
                }
            }
        }
    }
    out
}

/// Distance self-join: all canonical pairs `(a, b)` with `a < b` whose MBR
/// distance is at most `dist`, sorted for deterministic comparison.
pub fn distance_self_join(tree: &RTree, dist: f64) -> Vec<(ObjectId, ObjectId)> {
    let mut out = Vec::new();
    if tree.object_count() == 0 {
        return out;
    }
    let mut pairs = vec![(tree.root(), tree.root())];
    while let Some((a, b)) = pairs.pop() {
        let na = tree.node(a);
        let nb = tree.node(b);
        let same = a == b;
        let (a_min_x, a_min_y, a_max_x, a_max_y) = na.mbr_cols();
        let (b_min_x, b_min_y, b_max_x, b_max_y) = nb.mbr_cols();
        for i in 0..na.len() {
            // Same-node pairs scan the upper triangle only (j >= i), which
            // yields each candidate pair exactly once with no dedup pass.
            let j0 = if same { i } else { 0 };
            for j in j0..nb.len() {
                // Rect-pair MINDIST over the columns — bit-identical to
                // `Rect::min_dist_rect`.
                let dx = (a_min_x[i] - b_max_x[j])
                    .max(0.0)
                    .max(b_min_x[j] - a_max_x[i]);
                let dy = (a_min_y[i] - b_max_y[j])
                    .max(0.0)
                    .max(b_min_y[j] - a_max_y[i]);
                if (dx * dx + dy * dy).sqrt() > dist {
                    continue;
                }
                match (na.child_at(i), nb.child_at(j)) {
                    (ChildRef::Node(ca), ChildRef::Node(cb)) => pairs.push((ca, cb)),
                    (ChildRef::Object(oa), ChildRef::Object(ob)) => {
                        if oa != ob {
                            out.push(if oa < ob { (oa, ob) } else { (ob, oa) });
                        }
                    }
                    // Balanced tree + lockstep descent: levels always match.
                    _ => unreachable!("mixed node/object pair in balanced self-join"),
                }
            }
        }
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive;
    use crate::tree::RTreeConfig;
    use crate::{ObjectStore, SpatialObject};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn dataset(n: usize, seed: u64) -> (ObjectStore, RTree) {
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
        (ObjectStore::new(objects), tree)
    }

    #[test]
    fn range_matches_naive() {
        let (store, tree) = dataset(400, 1);
        let mut rng = SmallRng::seed_from_u64(99);
        for _ in 0..50 {
            let cx: f64 = rng.random_range(0.0..1.0);
            let cy: f64 = rng.random_range(0.0..1.0);
            let s: f64 = rng.random_range(0.01..0.3);
            let w = Rect::centered_square(Point::new(cx, cy), s);
            let mut got = range_query(&tree, &w);
            got.sort_unstable();
            assert_eq!(got, naive::range_naive(&store, &w));
        }
    }

    #[test]
    fn knn_matches_naive() {
        let (store, tree) = dataset(300, 2);
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..50 {
            let p = Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0));
            let k = rng.random_range(1..12usize);
            let got = knn_query(&tree, &p, k);
            let want = naive::knn_naive(&store, &p, k);
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                // Distances must agree exactly; ids may differ only on ties.
                assert!((g.1 - w.1).abs() < 1e-12, "dist mismatch {g:?} vs {w:?}");
            }
        }
    }

    #[test]
    fn knn_distances_are_nondecreasing() {
        let (_, tree) = dataset(200, 3);
        let got = knn_query(&tree, &Point::new(0.5, 0.5), 25);
        for w in got.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn knn_k_zero_and_k_beyond_n() {
        let (_, tree) = dataset(10, 4);
        assert!(knn_query(&tree, &Point::ORIGIN, 0).is_empty());
        assert_eq!(knn_query(&tree, &Point::ORIGIN, 50).len(), 10);
    }

    #[test]
    fn join_matches_naive() {
        for seed in [5u64, 6, 7] {
            let (store, tree) = dataset(150, seed);
            for dist in [0.0, 0.01, 0.05, 0.15] {
                let got = distance_self_join(&tree, dist);
                let want = naive::join_naive(&store, dist);
                assert_eq!(got, want, "seed {seed} dist {dist}");
            }
        }
    }

    #[test]
    fn join_has_no_self_or_mirror_pairs() {
        let (_, tree) = dataset(120, 8);
        let got = distance_self_join(&tree, 0.1);
        let set: std::collections::HashSet<_> = got.iter().collect();
        assert_eq!(set.len(), got.len(), "duplicate pairs");
        for (a, b) in &got {
            assert!(a < b, "non-canonical pair ({a}, {b})");
        }
    }

    #[test]
    fn queries_on_empty_tree() {
        let tree = RTree::new(RTreeConfig::small());
        assert!(range_query(&tree, &Rect::UNIT).is_empty());
        assert!(knn_query(&tree, &Point::ORIGIN, 5).is_empty());
        assert!(distance_self_join(&tree, 0.5).is_empty());
    }

    #[test]
    fn iterative_kernels_survive_pathological_depth() {
        // Regression for the recursion hazard: a 50 000-level single-entry
        // chain ran the old recursive kernels out of stack (50k frames need
        // megabytes). The iterative reference and the served executor both
        // traverse it inside a 64 KiB thread stack — heap-allocated
        // traversal state, O(1) stack frames.
        use crate::bpt::BptStore;
        use crate::engine::{execute, NoopTracer};
        use crate::proto::QuerySpec;
        use crate::view::FullView;
        let tree = RTree::degenerate_chain(RTreeConfig::small(), 50_000);
        let bpts = BptStore::build(&tree);
        let handle = std::thread::Builder::new()
            .name("tiny-stack-query".into())
            .stack_size(64 * 1024)
            .spawn(move || {
                assert_eq!(range_query(&tree, &Rect::UNIT), vec![ObjectId(0)]);
                let nn = knn_query(&tree, &Point::ORIGIN, 1);
                assert_eq!(nn.len(), 1);
                assert_eq!(nn[0].0, ObjectId(0));
                let pairs = distance_self_join(&tree, 1.0);
                assert!(pairs.is_empty(), "a single object joins with nothing");

                let view = FullView::new(&tree, &bpts);
                let window = Rect::UNIT;
                let out = execute(&view, &QuerySpec::Range { window }, &mut NoopTracer);
                assert_eq!(out.results, vec![(ObjectId(0), false)]);
                let center = Point::ORIGIN;
                let out = execute(&view, &QuerySpec::Knn { center, k: 1 }, &mut NoopTracer);
                assert_eq!(out.results, vec![(ObjectId(0), false)]);
                let out = execute(&view, &QuerySpec::Join { dist: 1.0 }, &mut NoopTracer);
                assert!(out.result_pairs.is_empty());
            })
            .expect("spawn tiny-stack thread");
        handle
            .join()
            .expect("deep-tree traversal must not overflow");
    }
}
