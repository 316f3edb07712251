//! The R* split algorithm (Beckmann et al.), shared by dynamic node splits
//! and by binary-partition-tree construction (§4.2 uses "the R-tree node
//! splitting algorithm to assure minimal overlap between the MBRs of the
//! two subsets").
//!
//! A BPT build runs one split per super entry and a publish rebuilds the
//! BPT of every node it dirtied, so this kernel is the write path's inner
//! loop. Each candidate ordering is sorted as integers that carry the key
//! and the rect index together ([`pack`]), extracted once per ordering —
//! no comparison reaches back through `rects[i]` — and an ordering that
//! cannot win is not evaluated at all:
//!
//! * **The degenerate-axis rule.** On an axis where every rectangle of the
//!   subset has `min == max` (point data: both axes), the by-upper keys
//!   compare exactly like the by-lower keys, so the ordering, its group
//!   MBRs and its `(margin, overlap, area)` score are the by-lower pass's —
//!   which was evaluated first and which only a *strictly* smaller score
//!   displaces. The by-upper pass is skipped.
//! * **Two rectangles** have one distribution, scored the same under every
//!   ordering: the first ordering (by lower x) stands, no table is built.
//!
//! Both shortcuts return the split the full evaluation returns, bit for
//! bit. Ties are part of the contract (BPT shapes decide shipped forms,
//! which are on the wire): equal keys keep ascending index order, `-0.0`
//! and `0.0` are equal keys, and `reference::rstar_split` — the index-sort
//! kernel this one replaced, kept under `cfg(test)` — must return the same
//! two index lists on every input.

use pc_geom::Rect;

/// Working memory of a split: the candidate ordering, the best ordering so
/// far, the tail MBR table and the winning index list. A BPT build runs one
/// split per super entry (~100 per 4 KB node), so the caller keeps one of
/// these per thread and every split after the first allocates nothing here.
#[derive(Default)]
pub(crate) struct SplitScratch {
    /// The ordering being evaluated, as [`pack`]ed elements.
    keyed: Vec<u128>,
    /// The best ordering so far (swapped with `keyed` when beaten).
    best: Vec<u128>,
    /// MBRs of the ordering's tails (see `rstar_split`).
    tails: Vec<Rect>,
    /// The winning ordering as plain indices — what the caller borrows.
    order: Vec<usize>,
}

/// The order-preserving integer image of a sort key: unsigned comparison
/// of the images is IEEE comparison of the keys. `-0.0` is folded onto
/// `0.0` first: IEEE comparison calls them equal. NaN has no place in the
/// order; callers that can meet one check before they get here.
pub(crate) fn key_bits(key: f64) -> u64 {
    debug_assert!(!key.is_nan(), "MBR coordinates are never NaN");
    let bits = (key + 0.0).to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// One element of a candidate ordering: the sort key's [`key_bits`] in the
/// high 64 bits, the rect's index in the low 32 — so a plain integer sort
/// orders by key with equal keys in ascending index order, which is what a
/// stable sort of the index vector by key produces.
fn pack(key: f64, idx: usize) -> u128 {
    debug_assert!(idx <= u32::MAX as usize);
    (key_bits(key) as u128) << 32 | idx as u32 as u128
}

/// The rect index of a [`pack`]ed element.
fn idx_of(keyed: u128) -> usize {
    keyed as u32 as usize
}

/// Copies the index column of `keyed` into `order` and cuts it at `k`.
fn cut<'s>(keyed: &[u128], order: &'s mut Vec<usize>, k: usize) -> (&'s [usize], &'s [usize]) {
    order.clear();
    order.extend(keyed.iter().map(|&e| idx_of(e)));
    order.split_at(k)
}

/// Splits `rects` into two index groups, each of size at least `m`, using
/// the R* heuristic: pick the axis (and sort direction) with minimum total
/// margin over all candidate distributions, then within it the distribution
/// with minimum overlap, ties broken by minimum combined area. The groups
/// borrow `scratch` and are valid until its next use.
///
/// # Panics
/// Panics unless `1 <= m` and `2 * m <= rects.len()`.
pub(crate) fn rstar_split<'s>(
    rects: &[Rect],
    m: usize,
    scratch: &'s mut SplitScratch,
) -> (&'s [usize], &'s [usize]) {
    let n = rects.len();
    assert!(m >= 1 && 2 * m <= n, "invalid split bounds: n={n}, m={m}");
    let SplitScratch {
        keyed,
        best,
        tails,
        order,
    } = scratch;

    if n == 2 {
        // Half the splits of a BPT build. Two rects have one distribution,
        // which scores the same under every ordering, so the first ordering
        // — by lower x, ties in index order — keeps the strict `<`.
        order.clear();
        order.extend(if rects[1].min.x < rects[0].min.x {
            [1, 0]
        } else {
            [0, 1]
        });
        return order.split_at(1);
    }

    // Best candidate over all (axis, sort-direction) orderings, compared by
    // (total margin, overlap, area) lexicographically.
    let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    let mut best_k = None;

    for axis in 0..2usize {
        let mut degenerate = true;
        for by_upper in [false, true] {
            if by_upper && degenerate {
                // The by-lower pass of this axis already stands for it
                // (module docs: the degenerate-axis rule).
                continue;
            }
            keyed.clear();
            keyed.extend(rects.iter().enumerate().map(|(i, r)| {
                let (lo, hi) = if axis == 0 {
                    (r.min.x, r.max.x)
                } else {
                    (r.min.y, r.max.y)
                };
                degenerate &= lo == hi;
                pack(if by_upper { hi } else { lo }, i)
            }));
            keyed.sort_unstable();

            // Distribution `k` puts the first `k` rects of the ordering in
            // one group and the rest in the other, `m <= k <= n - m`: a
            // table of tail MBRs and a running head MBR make each O(1).
            let rect = |i: usize| &rects[idx_of(keyed[i])];
            tails.clear();
            let mut tail = *rect(n - 1);
            tails.push(tail);
            for i in (m..n - 1).rev() {
                tail = rect(i).union(&tail);
                tails.push(tail);
            }
            let mut head = *rect(0);
            for i in 1..m {
                head = head.union(rect(i));
            }

            let mut margin_sum = 0.0;
            let mut local_best = (f64::INFINITY, f64::INFINITY, 0usize); // (overlap, area, k)
            for k in m..=n - m {
                // `tails[j]` covers the last `j + 1` rects.
                let (g1, g2) = (head, tails[n - 1 - k]);
                margin_sum += g1.margin() + g2.margin();
                let overlap = g1.overlap_area(&g2);
                let area = g1.area() + g2.area();
                if (overlap, area) < (local_best.0, local_best.1) {
                    local_best = (overlap, area, k);
                }
                head = head.union(rect(k));
            }
            let key = (margin_sum, local_best.0, local_best.1);
            if key < best_key {
                best_key = key;
                best_k = Some(local_best.2);
                std::mem::swap(keyed, best);
            }
        }
    }

    let k = best_k.expect("split must find a distribution");
    cut(best, order, k)
}

/// Median cut along the longer axis of the set's bounding box — the naïve
/// control the BPT split ablation compares [`rstar_split`] against. Same
/// borrowing contract.
pub(crate) fn midpoint_split<'s>(
    rects: &[Rect],
    scratch: &'s mut SplitScratch,
) -> (&'s [usize], &'s [usize]) {
    let bbox = Rect::union_all(rects.iter().copied()).expect("non-empty subset");
    let horizontal = bbox.width() >= bbox.height();
    let SplitScratch { keyed, order, .. } = scratch;
    keyed.clear();
    keyed.extend(rects.iter().enumerate().map(|(i, r)| {
        let c = r.center();
        pack(if horizontal { c.x } else { c.y }, i)
    }));
    keyed.sort_unstable();
    cut(keyed, order, rects.len() / 2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rects_grid(n: usize) -> Vec<Rect> {
        (0..n)
            .map(|i| {
                let x = (i % 10) as f64 * 0.1;
                let y = (i / 10) as f64 * 0.1;
                Rect::from_coords(x, y, x + 0.05, y + 0.05)
            })
            .collect()
    }

    #[test]
    fn packed_keys_sort_like_ieee_comparison_then_index() {
        let keys = [
            f64::NEG_INFINITY,
            -1.5,
            -f64::MIN_POSITIVE,
            0.0,
            f64::MIN_POSITIVE,
            1.0,
            f64::INFINITY,
        ];
        for (i, &a) in keys.iter().enumerate() {
            for &b in &keys[i + 1..] {
                assert!(pack(a, 9) < pack(b, 0), "{a} must sort before {b}");
            }
            assert!(pack(a, 0) < pack(a, 1));
        }
        // The two zeros are one key: the index alone orders them.
        assert!(pack(0.0, 0) < pack(-0.0, 1) && pack(-0.0, 0) < pack(0.0, 1));
        assert_eq!(idx_of(pack(-0.0, 77)), 77);
    }

    #[test]
    fn split_is_a_partition() {
        let rects = rects_grid(20);
        let mut scratch = SplitScratch::default();
        let (l, r) = rstar_split(&rects, 5, &mut scratch);
        assert_eq!(l.len() + r.len(), 20);
        let mut all: Vec<usize> = l.iter().chain(r.iter()).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..20).collect::<Vec<_>>());
        assert!(l.len() >= 5 && r.len() >= 5);
    }

    #[test]
    fn split_separates_two_clusters() {
        // Two far-apart clusters must end up in different groups.
        let mut rects = Vec::new();
        for i in 0..5 {
            let d = i as f64 * 0.01;
            rects.push(Rect::from_coords(d, d, d + 0.01, d + 0.01));
        }
        for i in 0..5 {
            let d = 0.9 + i as f64 * 0.01;
            rects.push(Rect::from_coords(d, d, d + 0.01, d + 0.01));
        }
        let mut scratch = SplitScratch::default();
        let (l, r) = rstar_split(&rects, 2, &mut scratch);
        let lset: std::collections::HashSet<_> = l.iter().copied().collect();
        let l_is_low = (0..5).all(|i| lset.contains(&i)) && l.len() == 5;
        let r_is_low = (0..5).all(|i| !lset.contains(&i)) && r.len() == 5;
        assert!(l_is_low || r_is_low, "clusters were mixed: {l:?} / {r:?}");
    }

    #[test]
    fn split_minimum_group_size_respected() {
        let rects = rects_grid(7);
        let mut scratch = SplitScratch::default();
        let (l, r) = rstar_split(&rects, 3, &mut scratch);
        assert!(l.len() >= 3 && r.len() >= 3);
        assert_eq!(l.len() + r.len(), 7);
    }

    #[test]
    fn split_two_items() {
        let rects = vec![
            Rect::from_coords(0.0, 0.0, 0.1, 0.1),
            Rect::from_coords(0.8, 0.8, 0.9, 0.9),
        ];
        let mut scratch = SplitScratch::default();
        let (l, r) = rstar_split(&rects, 1, &mut scratch);
        assert_eq!(l.len(), 1);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn split_zero_area_rects() {
        // Degenerate (point) rectangles must not break the heuristic.
        let rects: Vec<Rect> = (0..6)
            .map(|i| Rect::from_point(pc_geom::Point::new(i as f64 * 0.1, 0.5)))
            .collect();
        let mut scratch = SplitScratch::default();
        let (l, r) = rstar_split(&rects, 2, &mut scratch);
        assert_eq!(l.len() + r.len(), 6);
        assert!(l.len() >= 2 && r.len() >= 2);
    }

    #[test]
    #[should_panic(expected = "invalid split bounds")]
    fn split_rejects_undersized_input() {
        let rects = vec![Rect::from_coords(0.0, 0.0, 0.1, 0.1)];
        rstar_split(&rects, 1, &mut SplitScratch::default());
    }
}
