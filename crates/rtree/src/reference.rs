//! The BPT layer this crate shipped before the dense one, kept as the
//! reference the dense layer is held equal to: a cell arena that stores
//! every leaf MBR ([`ArenaBpt`]) built with an R* split that sorts an index
//! vector through `rects[i]` on every comparison ([`rstar_split`]).
//!
//! BPT shapes decide which cells a reply ships, and in what order — both on
//! the wire — so "same tree" here means bit-identical: every code resolves
//! to the same `(MBR bits, kind)`, the height agrees, `descend` emits the
//! same sequence for every depth, and the split returns the same two index
//! lists. The inputs lean on what a sort-based kernel can get wrong: ties
//! (duplicates, coordinates snapped to a coarse grid, `-0.0` vs `0.0`),
//! point data and single-axis degenerate data (the by-upper pass the dense
//! kernel skips).
//!
//! Beside it, for the same reason, the STR bulk load that sorted whole
//! `(Rect, ChildRef)` items through a `partial_cmp` comparator
//! ([`str_bulk_load`]): node ids are slab positions and every BPT hangs off
//! a node's entry order, so the key-sorted packer must emit the same nodes
//! in the same order.
//!
//! And the storage layouts from before a point was stored once: the node
//! with four always-full MBR columns ([`FourColumnNode`]), and a plain
//! `Vec<SpatialObject>` for the columnar [`ObjectStore`]. Every reader
//! takes coordinates by bits, so both are held equal bit for bit, over
//! points, rectangles and `-0.0`/`0.0` corners.

use crate::bpt::{Bpt, BptCellKind, Code, SplitPolicy};
use crate::split::{self, SplitScratch};
use crate::{
    ChildRef, Entry, Node, NodeId, ObjectId, ObjectStore, RTree, RTreeConfig, SpatialObject,
    StoreSpares, CHUNK_LEN,
};
use pc_geom::{Point, Rect};
use proptest::prelude::*;

/// The index-sort R* split: candidate orderings are index vectors sorted
/// through `rects[a]`, both directions of both axes always evaluated.
fn rstar_split(rects: &[Rect], m: usize) -> (Vec<usize>, Vec<usize>) {
    let n = rects.len();
    assert!(m >= 1 && 2 * m <= n, "invalid split bounds: n={n}, m={m}");
    let sort_key = |r: &Rect, axis: usize, by_upper: bool| match (axis, by_upper) {
        (0, false) => r.min.x,
        (0, true) => r.max.x,
        (1, false) => r.min.y,
        (_, _) => r.max.y,
    };
    let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    let mut best: Option<(Vec<usize>, usize)> = None;
    for axis in 0..2usize {
        for by_upper in [false, true] {
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by(|&a, &b| {
                sort_key(&rects[a], axis, by_upper)
                    .partial_cmp(&sort_key(&rects[b], axis, by_upper))
                    .unwrap()
            });
            let mut prefix = Vec::with_capacity(n);
            let mut acc = rects[order[0]];
            prefix.push(acc);
            for &i in &order[1..] {
                acc = acc.union(&rects[i]);
                prefix.push(acc);
            }
            let mut suffix = vec![rects[order[n - 1]]; n];
            for i in (0..n - 1).rev() {
                suffix[i] = rects[order[i]].union(&suffix[i + 1]);
            }
            let mut margin_sum = 0.0;
            let mut local_best = (f64::INFINITY, f64::INFINITY, 0usize);
            for k in m..=n - m {
                let (g1, g2) = (prefix[k - 1], suffix[k]);
                margin_sum += g1.margin() + g2.margin();
                let overlap = g1.overlap_area(&g2);
                let area = g1.area() + g2.area();
                if (overlap, area) < (local_best.0, local_best.1) {
                    local_best = (overlap, area, k);
                }
            }
            let key = (margin_sum, local_best.0, local_best.1);
            if key < best_key {
                best_key = key;
                best = Some((order, local_best.2));
            }
        }
    }
    let (order, k) = best.expect("split must find a distribution");
    let (l, r) = order.split_at(k);
    (l.to_vec(), r.to_vec())
}

/// The index-sort median cut.
fn midpoint_split(rects: &[Rect]) -> (Vec<usize>, Vec<usize>) {
    let bbox = Rect::union_all(rects.iter().copied()).expect("non-empty subset");
    let horizontal = bbox.width() >= bbox.height();
    let key = |i: usize| {
        let c = rects[i].center();
        if horizontal {
            c.x
        } else {
            c.y
        }
    };
    let mut order: Vec<usize> = (0..rects.len()).collect();
    order.sort_by(|&a, &b| key(a).partial_cmp(&key(b)).unwrap());
    let (l, r) = order.split_at(rects.len() / 2);
    (l.to_vec(), r.to_vec())
}

/// The comparator STR bulk load: every level's `(MBR, child)` items are
/// materialised and stably sorted by centre x, then slab by slab by centre
/// y. Returns the nodes in slab (id) order as `(level, entries)`; the last
/// is the root.
fn str_bulk_load(cap: usize, objects: &[SpatialObject]) -> Vec<(u16, Vec<(Rect, ChildRef)>)> {
    let mut nodes: Vec<(u16, Vec<(Rect, ChildRef)>)> = Vec::new();
    let mut items: Vec<(Rect, ChildRef)> = objects
        .iter()
        .map(|o| (o.mbr, ChildRef::Object(o.id)))
        .collect();
    for level in 0.. {
        let first = nodes.len();
        let page_count = items.len().div_ceil(cap);
        let slab_count = (page_count as f64).sqrt().ceil() as usize;
        let slab_size = items.len().div_ceil(slab_count);
        items.sort_by(|a, b| a.0.center().x.partial_cmp(&b.0.center().x).unwrap());
        for slab in items.chunks_mut(slab_size.max(1)) {
            slab.sort_by(|a, b| a.0.center().y.partial_cmp(&b.0.center().y).unwrap());
            nodes.extend(slab.chunks(cap).map(|tile| (level, tile.to_vec())));
        }
        if nodes.len() - first == 1 {
            break;
        }
        items = (first..nodes.len())
            .map(|id| {
                let entries = nodes[id].1.iter().map(|&(mbr, child)| Entry { mbr, child });
                let mbr = Node::with_entries(None, level, entries).mbr();
                (
                    mbr.expect("packed node non-empty"),
                    ChildRef::Node(NodeId(id as u32)),
                )
            })
            .collect();
    }
    nodes
}

#[derive(Clone, Copy)]
enum ArenaKind {
    Internal { left: usize, right: usize },
    Leaf { entry_idx: u16 },
}

/// The cell-arena BPT: `2N − 1` cells, each storing its MBR — leaves
/// included — with internal cells pointing at arena indices.
struct ArenaBpt {
    cells: Vec<(Rect, ArenaKind)>,
    height: u8,
}

impl ArenaBpt {
    fn build(mbrs: &[Rect], policy: SplitPolicy) -> ArenaBpt {
        let mut bpt = ArenaBpt {
            cells: Vec::new(),
            height: 0,
        };
        if !mbrs.is_empty() {
            bpt.cells.push((mbrs[0], ArenaKind::Leaf { entry_idx: 0 }));
            let ids: Vec<u16> = (0..mbrs.len() as u16).collect();
            bpt.build_rec(0, ids, mbrs, 0, policy);
        }
        bpt
    }

    fn build_rec(
        &mut self,
        at: usize,
        ids: Vec<u16>,
        mbrs: &[Rect],
        depth: u8,
        policy: SplitPolicy,
    ) {
        self.height = self.height.max(depth);
        if let [entry_idx] = ids[..] {
            self.cells[at] = (mbrs[entry_idx as usize], ArenaKind::Leaf { entry_idx });
            return;
        }
        let subset: Vec<Rect> = ids.iter().map(|&i| mbrs[i as usize]).collect();
        let (l, r) = match policy {
            SplitPolicy::RStar => {
                let m = ((subset.len() as f64 * 0.35).floor() as usize).max(1);
                rstar_split(&subset, m)
            }
            SplitPolicy::Midpoint => midpoint_split(&subset),
        };
        let pick = |side: &[usize]| side.iter().map(|&i| ids[i]).collect::<Vec<u16>>();
        let left = self.cells.len();
        self.cells.push(self.cells[at]);
        let right = self.cells.len();
        self.cells.push(self.cells[at]);
        self.build_rec(left, pick(&l), mbrs, depth + 1, policy);
        self.build_rec(right, pick(&r), mbrs, depth + 1, policy);
        let mbr = self.cells[left].0.union(&self.cells[right].0);
        self.cells[at] = (mbr, ArenaKind::Internal { left, right });
    }

    fn find_idx(&self, code: Code) -> Option<usize> {
        if self.cells.is_empty() {
            return None;
        }
        let mut at = 0usize;
        for i in 0..code.depth() {
            match self.cells[at].1 {
                ArenaKind::Internal { left, right } => at = if code.bit(i) { right } else { left },
                ArenaKind::Leaf { .. } => return None,
            }
        }
        Some(at)
    }

    /// The explicit-stack walk whose pop order (right before left) became
    /// shipment cell order.
    fn descend(&self, code: Code, d: u8) -> Vec<(Code, CellBits)> {
        let mut out = Vec::new();
        let Some(at) = self.find_idx(code) else {
            return out;
        };
        let mut stack = vec![(code, at, 0u8)];
        while let Some((c, i, depth)) = stack.pop() {
            match self.cells[i].1 {
                ArenaKind::Internal { left, right } if depth < d => {
                    stack.push((c.child(false), left, depth + 1));
                    stack.push((c.child(true), right, depth + 1));
                }
                _ => out.push((c, self.bits(i))),
            }
        }
        out
    }

    fn bits(&self, at: usize) -> CellBits {
        let (mbr, kind) = self.cells[at];
        let entry = match kind {
            ArenaKind::Internal { .. } => None,
            ArenaKind::Leaf { entry_idx } => Some(entry_idx),
        };
        (rect_bits(&mbr), entry)
    }
}

/// A cell as compared: MBR coordinate bits (so `-0.0 ≠ 0.0`) and the entry
/// index of a leaf, `None` for a super entry.
type CellBits = ([u64; 4], Option<u16>);

fn rect_bits(r: &Rect) -> [u64; 4] {
    [r.min.x, r.min.y, r.max.x, r.max.y].map(f64::to_bits)
}

fn dense_bits(mbr: Rect, kind: BptCellKind) -> CellBits {
    let entry = match kind {
        BptCellKind::Internal => None,
        BptCellKind::Leaf { entry_idx } => Some(entry_idx),
    };
    (rect_bits(&mbr), entry)
}

/// Rect sets of every flavour the module docs list; `shape` picks one.
fn arb_rects(max: usize) -> impl Strategy<Value = Vec<Rect>> {
    let raw = (0.0f64..1.0, 0.0f64..1.0, 0.0f64..0.2, 0.0f64..0.2);
    (0u8..6, prop::collection::vec(raw, 0..max)).prop_map(|(shape, raw)| {
        // Coarse snapping with signed zeros: below 0.3 is ±0.0 (sign from
        // the mantissa's low bit), above 0.7 is 1.0, between is one decimal.
        let snap = |c: f64| {
            if c < 0.3 {
                if c.to_bits() & 1 == 1 {
                    -0.0
                } else {
                    0.0
                }
            } else if c > 0.7 {
                1.0
            } else {
                (c * 10.0).round() / 10.0
            }
        };
        raw.into_iter()
            .map(|(x, y, w, h)| {
                let (x0, y0, x1, y1) = match shape {
                    0 => (x, y, x + w, y + h),
                    // Duplicates: a 4×4 grid of identical squares.
                    1 => {
                        let (x, y) = ((x * 4.0).floor() / 4.0, (y * 4.0).floor() / 4.0);
                        (x, y, x + 0.1, y + 0.1)
                    }
                    2 => (x, y, x, y),
                    3 => (x, y, x, y + h),
                    4 => (x, y, x + w, y),
                    // Tie-heavy: every coordinate snapped, corners ordered
                    // by IEEE comparison so ±0.0 survive on either side.
                    _ => {
                        let (a, b, c, d) = (snap(x), snap(y), snap(x + 4.0 * w), snap(y + 4.0 * h));
                        let (x0, x1) = if a <= c { (a, c) } else { (c, a) };
                        let (y0, y1) = if b <= d { (b, d) } else { (d, b) };
                        (x0, y0, x1, y1)
                    }
                };
                // A literal, not `Rect::new`: `min`/`max` normalisation
                // would pick one zero's sign.
                Rect {
                    min: Point::new(x0, y0),
                    max: Point::new(x1, y1),
                }
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn dense_rstar_split_returns_the_index_sort_lists(
        rects in arb_rects(110),
        m_frac in 0.0f64..0.5,
    ) {
        prop_assume!(rects.len() >= 2);
        let m = ((rects.len() as f64 * m_frac) as usize).clamp(1, rects.len() / 2);
        // A reused scratch, dirtied by a split of another size first.
        let mut scratch = SplitScratch::default();
        let _ = split::rstar_split(&rects[..2], 1, &mut scratch);
        let (l, r) = split::rstar_split(&rects, m, &mut scratch);
        let (want_l, want_r) = rstar_split(&rects, m);
        prop_assert_eq!(l, &want_l[..]);
        prop_assert_eq!(r, &want_r[..]);

        let (l, r) = split::midpoint_split(&rects, &mut scratch);
        let (want_l, want_r) = midpoint_split(&rects);
        prop_assert_eq!(l, &want_l[..]);
        prop_assert_eq!(r, &want_r[..]);
    }

    #[test]
    fn key_sorted_bulk_load_packs_the_comparator_sorts_nodes(
        rects in arb_rects(300),
        ties in 0u8..3,
    ) {
        prop_assume!(!rects.is_empty());
        // On top of the shapes above: every centre x equal, or the cloud
        // stretched over the unit square's edges and clamped back the way
        // the generators' `clamp01` piles real ties onto 0 and 1.
        let clamp = |c: f64| ((c - 0.5) * 3.0 + 0.5).clamp(0.0, 1.0);
        let objects: Vec<SpatialObject> = rects
            .iter()
            .enumerate()
            .map(|(i, r)| SpatialObject {
                // Ids that are not positions, as a cluster shard's are not.
                id: ObjectId(7 * i as u32 + 3),
                mbr: match ties {
                    0 => *r,
                    1 => Rect {
                        min: Point::new(rects[0].min.x, r.min.y),
                        max: Point::new(rects[0].max.x, r.max.y),
                    },
                    _ => Rect {
                        min: Point::new(clamp(r.min.x), clamp(r.min.y)),
                        max: Point::new(clamp(r.max.x), clamp(r.max.y)),
                    },
                },
                size_bytes: 1,
            })
            .collect();
        let cfg = RTreeConfig::small();
        let tree = RTree::bulk_load(cfg, &objects);
        let want = str_bulk_load(cfg.max_entries, &objects);

        prop_assert_eq!(tree.slab_len(), want.len());
        prop_assert_eq!(tree.root(), NodeId(want.len() as u32 - 1));
        prop_assert_eq!(tree.height(), want[want.len() - 1].0 + 1);
        let mut parents = vec![None; want.len()];
        for (id, (level, entries)) in want.iter().enumerate() {
            let node = tree.node(NodeId(id as u32));
            prop_assert_eq!(node.level, *level);
            // The raw columns: `Node::entries` re-normalises corners, which
            // may flip a zero's sign.
            let (x0, y0, x1, y1) = node.mbr_cols();
            let got: Vec<_> = (0..node.len())
                .map(|i| ([x0[i], y0[i], x1[i], y1[i]].map(f64::to_bits), node.child_at(i)))
                .collect();
            let entries: Vec<_> = entries.iter().map(|(mbr, child)| (rect_bits(mbr), *child)).collect();
            for (_, child) in &entries {
                if let ChildRef::Node(child) = child {
                    parents[child.0 as usize] = Some(NodeId(id as u32));
                }
            }
            prop_assert_eq!((id, got), (id, entries));
        }
        for (id, parent) in parents.into_iter().enumerate() {
            prop_assert_eq!((id, tree.node(NodeId(id as u32)).parent), (id, parent));
        }
    }

    #[test]
    fn dense_bpt_is_the_cell_arena_bpt(
        rects in arb_rects(110),
        midpoint in any::<bool>(),
    ) {
        let policy = if midpoint { SplitPolicy::Midpoint } else { SplitPolicy::RStar };
        let dense = Bpt::build_with(&rects, policy);
        let arena = ArenaBpt::build(&rects, policy);
        prop_assert_eq!(dense.height(), arena.height);
        prop_assert_eq!(dense.cell_count(), arena.cells.len());
        prop_assert_eq!(dense.is_empty(), arena.cells.is_empty());

        // Every code of the arena — and one digit past each leaf, plus the
        // root of an empty tree — resolves identically.
        let mut codes = vec![Code::ROOT];
        let mut next = 0;
        while next < codes.len() {
            let code = codes[next];
            next += 1;
            let want = arena.find_idx(code).map(|at| arena.bits(at));
            let got = dense.find(code, &rects[..]).map(|c| dense_bits(c.mbr, c.kind));
            prop_assert_eq!(got, want);
            let kids = dense.children(code, &rects[..]);
            match want {
                Some((_, None)) => {
                    let [(c0, l), (c1, r)] = kids.expect("a super entry has children");
                    prop_assert_eq!((c0, c1), (code.child(false), code.child(true)));
                    prop_assert_eq!(Some(dense_bits(l.mbr, l.kind)), arena.find_idx(c0).map(|at| arena.bits(at)));
                    prop_assert_eq!(Some(dense_bits(r.mbr, r.kind)), arena.find_idx(c1).map(|at| arena.bits(at)));
                    codes.extend([c0, c1]);
                }
                Some((_, Some(_))) => {
                    prop_assert!(kids.is_none());
                    prop_assert!(dense.find(code.child(true), &rects[..]).is_none());
                }
                None => prop_assert!(kids.is_none()),
            }
        }

        // `descend` emits the same sequence from every code at every depth
        // (one past the height, and the "all leaves" depth, included).
        for &code in &codes {
            for d in (0..=arena.height + 1).chain([u8::MAX]) {
                let mut got = Vec::new();
                dense.descend(code, d, &rects[..], |c, cell| got.push((c, dense_bits(cell.mbr, cell.kind))));
                prop_assert_eq!((code, d, got), (code, d, arena.descend(code, d)));
            }
        }
        let mut leaves = Vec::new();
        dense.leaf_cells(&rects[..], |c, entry_idx, mbr| leaves.push((c, (rect_bits(&mbr), Some(entry_idx)))));
        prop_assert_eq!(leaves, arena.descend(Code::ROOT, u8::MAX));
    }
}

/// The node layout before a point was stored once: four MBR columns that
/// are always full length and a [`ChildRef`] per entry. [`Node`] is held to
/// it step for step by `aliased_node_is_the_four_column_node`.
#[derive(Default)]
struct FourColumnNode {
    min_x: Vec<f64>,
    min_y: Vec<f64>,
    max_x: Vec<f64>,
    max_y: Vec<f64>,
    children: Vec<ChildRef>,
}

impl FourColumnNode {
    fn entry(&self, i: usize) -> Entry {
        Entry {
            mbr: Rect::from_coords(self.min_x[i], self.min_y[i], self.max_x[i], self.max_y[i]),
            child: self.children[i],
        }
    }

    fn push(&mut self, e: Entry) {
        self.min_x.push(e.mbr.min.x);
        self.min_y.push(e.mbr.min.y);
        self.max_x.push(e.mbr.max.x);
        self.max_y.push(e.mbr.max.y);
        self.children.push(e.child);
    }

    fn set_mbr_at(&mut self, i: usize, mbr: Rect) {
        self.min_x[i] = mbr.min.x;
        self.min_y[i] = mbr.min.y;
        self.max_x[i] = mbr.max.x;
        self.max_y[i] = mbr.max.y;
    }

    fn retain_entries(&mut self, mut keep: impl FnMut(&Entry) -> bool) {
        let keep: Vec<bool> = (0..self.children.len())
            .map(|i| keep(&self.entry(i)))
            .collect();
        fn filter<T>(column: &mut Vec<T>, keep: &[bool]) {
            let mut flags = keep.iter();
            column.retain(|_| flags.next() == Some(&true));
        }
        filter(&mut self.min_x, &keep);
        filter(&mut self.min_y, &keep);
        filter(&mut self.max_x, &keep);
        filter(&mut self.max_y, &keep);
        filter(&mut self.children, &keep);
    }

    fn take_entries(&mut self) -> Vec<Entry> {
        let out = (0..self.children.len()).map(|i| self.entry(i)).collect();
        *self = FourColumnNode::default();
        out
    }

    fn mbr(&self) -> Option<Rect> {
        let n = self.children.len();
        (n > 0).then(|| {
            let min = |c: &[f64]| c.iter().fold(f64::INFINITY, |a, &b| a.min(b));
            let max = |c: &[f64]| c.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
            Rect::from_coords(
                min(&self.min_x),
                min(&self.min_y),
                max(&self.max_x),
                max(&self.max_y),
            )
        })
    }
}

/// Points, rectangles and `-0.0`/`0.0` corners: `(kind, x, y, w, h)`
/// becomes a point, a rectangle, a signed-zero pair on one axis (not a
/// point), or a point at a signed zero. Literal corners: `Rect::new`
/// would pick one zero's sign.
fn mixed_rect((kind, x, y, w, h): (u8, f64, f64, f64, f64)) -> Rect {
    let zero = if x < 0.5 { -0.0 } else { 0.0 };
    let (x0, y0, x1, y1) = match kind % 4 {
        0 => (x, y, x, y),
        1 => (x, y, x + w, y + h),
        2 if y < 0.5 => (-0.0, y, 0.0, y),
        2 => (x, -0.0, x, 0.0),
        _ => (zero, y, zero, y),
    };
    Rect {
        min: Point::new(x0, y0),
        max: Point::new(x1, y1),
    }
}

fn arb_mixed_rect() -> impl Strategy<Value = Rect> {
    (0u8..4, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..0.1, 0.0f64..0.1).prop_map(mixed_rect)
}

fn is_point_bits(r: &Rect) -> bool {
    let [x0, y0, x1, y1] = rect_bits(r);
    x0 == x1 && y0 == y1
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// One step sequence driven through a [`Node`] and the four-column
    /// reference: after every step both hold the same entries, the same
    /// column bits and the same MBR bits, and the node's max columns are
    /// empty exactly when every entry is a point, bitwise.
    #[test]
    fn aliased_node_is_the_four_column_node(
        leaf in any::<bool>(),
        steps in prop::collection::vec((0u8..8, arb_mixed_rect(), 0usize..64, 0u32..3), 1..80),
    ) {
        let level = if leaf { 0 } else { 1 };
        let child = |id: u32| if leaf { ChildRef::Object(ObjectId(id)) } else { ChildRef::Node(NodeId(id)) };
        let mut node = Node::new(None, level);
        let mut want = FourColumnNode::default();
        // A retired node of the other flavour for copies to land in.
        let mut spare = Node::new(None, level);
        spare.push(Entry { mbr: Rect::UNIT, child: child(u32::MAX) });
        let mut next_id = 0u32;
        for (step, (op, mbr, at, salt)) in steps.into_iter().enumerate() {
            let len = node.len();
            match op {
                // Pushes weigh most, so nodes grow past a few entries.
                0..=2 => {
                    let e = Entry { mbr, child: child(next_id) };
                    next_id += 1;
                    node.push(e);
                    want.push(e);
                }
                3 | 4 if len > 0 => {
                    node.set_mbr_at(at % len, mbr);
                    want.set_mbr_at(at % len, mbr);
                }
                5 => {
                    let keep = |e: &Entry| match e.child {
                        ChildRef::Object(ObjectId(id)) | ChildRef::Node(NodeId(id)) => id % 3 != salt,
                    };
                    node.retain_entries(keep);
                    want.retain_entries(keep);
                }
                6 => {
                    let (got, taken) = (node.take_entries(), want.take_entries());
                    let bits = |es: &[Entry]| es.iter().map(|e| (rect_bits(&e.mbr), e.child)).collect::<Vec<_>>();
                    prop_assert_eq!(bits(&got), bits(&taken));
                    prop_assert!(node.is_empty() && node.is_aliased());
                    // Half the time the entries go back, reversed.
                    if salt != 0 {
                        node.set_entries(got.into_iter().rev());
                        taken.into_iter().rev().for_each(|e| want.push(e));
                    }
                }
                _ => {
                    let columns = len + at % 4;
                    let mut copy = std::mem::take(&mut spare);
                    copy.copy_from(&node, columns, salt % 2 == 0);
                    prop_assert!(copy.min_x.capacity() == columns.max(len));
                    prop_assert!(copy.max_x.capacity() == if node.is_aliased() { 0 } else { columns.max(len) });
                    spare = std::mem::replace(&mut node, copy);
                }
            }
            let n = want.children.len();
            prop_assert_eq!(node.len(), n);
            let got: Vec<_> = node.entries().map(|e| (rect_bits(&e.mbr), e.child)).collect();
            let entries: Vec<_> = (0..n).map(|i| want.entry(i)).map(|e| (rect_bits(&e.mbr), e.child)).collect();
            prop_assert_eq!((step, got), (step, entries));
            let (x0, y0, x1, y1) = node.mbr_cols();
            let bits = |c: &[f64]| c.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(
                [bits(x0), bits(y0), bits(x1), bits(y1)],
                [bits(&want.min_x), bits(&want.min_y), bits(&want.max_x), bits(&want.max_y)]
            );
            prop_assert_eq!(node.mbr().map(|r| rect_bits(&r)), want.mbr().map(|r| rect_bits(&r)));
            let points = (0..n).all(|i| {
                want.min_x[i].to_bits() == want.max_x[i].to_bits()
                    && want.min_y[i].to_bits() == want.max_y[i].to_bits()
            });
            prop_assert_eq!((step, node.is_aliased()), (step, points));
            prop_assert!(node.max_x.is_empty() || node.max_x.len() == n);
            prop_assert_eq!(node.max_x.len(), node.max_y.len());
            if !node.is_aliased() {
                prop_assert!(node.max_x.capacity() >= n);
            }
        }
    }

    /// An [`ObjectStore`] against a plain `Vec<SpatialObject>` model,
    /// across clones: pushes, relocations and tombstones — half of them
    /// through lent spares — on any of the clones leave every clone equal
    /// to its model bit for bit, copy only the segments they land in, and
    /// keep the max-corner column empty while every object is a point.
    #[test]
    fn columnar_store_is_the_object_vector(
        base in 1usize..2600,
        steps in prop::collection::vec(
            (0u8..6, arb_mixed_rect(), 0usize..4096, 0usize..8, any::<bool>()),
            1..48,
        ),
    ) {
        let point = |i: usize| Rect::from_point(Point::new(i as f64 / base as f64, 0.5));
        let objects: Vec<SpatialObject> = (0..base)
            .map(|i| SpatialObject { id: ObjectId(i as u32), mbr: point(i), size_bytes: 7 * i as u32 })
            .collect();
        let mut worlds = vec![(ObjectStore::new(objects.clone()), objects, vec![false; base])];
        let mut spares = StoreSpares::default();
        for (step, (op, mbr, at, which, spared)) in steps.into_iter().enumerate() {
            let k = which % worlds.len();
            let before = worlds[k].0.clone();
            let (store, model, dead) = &mut worlds[k];
            let id = ObjectId((at % model.len()) as u32);
            let mut edit = |edit: &mut dyn FnMut(&mut ObjectStore)| {
                if spared {
                    store.with_spares(&mut spares, |s| edit(s));
                } else {
                    edit(store);
                }
            };
            // The one segment index an edit may copy, in every column.
            let touched = match op {
                0 | 1 => {
                    let size = at as u32;
                    edit(&mut |s| { s.push(mbr, size); });
                    model.push(SpatialObject { id: ObjectId(model.len() as u32), mbr, size_bytes: size });
                    dead.push(false);
                    model.len() - 1
                }
                2 | 3 => {
                    edit(&mut |s| s.set_mbr(id, mbr));
                    model[id.0 as usize].mbr = mbr;
                    id.0 as usize
                }
                4 => {
                    edit(&mut |s| s.mark_dead(id));
                    dead[id.0 as usize] = true;
                    id.0 as usize
                }
                _ => {
                    let clone = worlds[k].clone();
                    worlds.push(clone);
                    usize::MAX
                }
            };
            // Every segment a column had stays shared but the one the edit
            // lands in (a max column this step fills in had none).
            let store = &worlds[k].0;
            if touched != usize::MAX {
                let segment = touched / CHUNK_LEN;
                for (count, shared) in [
                    (before.mins().chunk_count(), before.mins().shared_chunks(store.mins())),
                    (before.sizes().chunk_count(), before.sizes().shared_chunks(store.sizes())),
                    (before.maxes().chunk_count(), before.maxes().shared_chunks(store.maxes())),
                ] {
                    let copied = count - shared;
                    prop_assert!(copied <= usize::from(segment < count), "step {step}: {copied} copied");
                }
            }
            for (store, model, dead) in &worlds {
                prop_assert_eq!(store.len(), model.len());
                let got: Vec<_> = store.iter().map(|o| (o.id, rect_bits(&o.mbr), o.size_bytes)).collect();
                let want: Vec<_> = model.iter().map(|o| (o.id, rect_bits(&o.mbr), o.size_bytes)).collect();
                prop_assert_eq!((step, got), (step, want));
                let live: Vec<bool> = (0..model.len()).map(|i| store.is_live(ObjectId(i as u32))).collect();
                prop_assert_eq!(live, dead.iter().map(|d| !d).collect::<Vec<_>>());
                prop_assert_eq!(store.live_count(), dead.iter().filter(|d| !**d).count());
                prop_assert_eq!(store.total_bytes(), model.iter().map(|o| o.size_bytes as u64).sum::<u64>());
                if store.maxes().is_empty() {
                    prop_assert!(model.iter().all(|o| is_point_bits(&o.mbr)));
                } else {
                    prop_assert_eq!(store.maxes().len(), model.len());
                }
            }
        }
    }
}
