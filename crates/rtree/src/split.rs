//! The R* split algorithm (Beckmann et al.), shared by dynamic node splits
//! and by binary-partition-tree construction (§4.2 uses "the R-tree node
//! splitting algorithm to assure minimal overlap between the MBRs of the
//! two subsets").

use pc_geom::Rect;

/// Working memory of [`rstar_split`]: the candidate ordering, the best
/// ordering so far and the prefix/suffix MBR tables. A BPT build runs one
/// split per super entry (~100 per 4 KB node), so the caller keeps one of
/// these per thread and every split after the first allocates nothing
/// here.
#[derive(Default)]
pub(crate) struct SplitScratch {
    order: Vec<usize>,
    best: Vec<usize>,
    prefix: Vec<Rect>,
    suffix: Vec<Rect>,
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
        order,
        best,
        prefix,
        suffix,
    } = scratch;

    // Best candidate over all (axis, sort-direction) orderings, compared by
    // (total margin, overlap, area) lexicographically.
    let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    let mut best_k = None;

    for axis in 0..2usize {
        for by_upper in [false, true] {
            order.clear();
            order.extend(0..n);
            order.sort_by(|&a, &b| {
                sort_key(&rects[a], axis, by_upper)
                    .partial_cmp(&sort_key(&rects[b], axis, by_upper))
                    .unwrap()
            });

            // Prefix/suffix MBRs make every distribution O(1).
            prefix.clear();
            let mut acc = rects[order[0]];
            prefix.push(acc);
            for &i in &order[1..] {
                acc = acc.union(&rects[i]);
                prefix.push(acc);
            }
            suffix.clear();
            suffix.resize(n, rects[order[n - 1]]);
            for i in (0..n - 1).rev() {
                suffix[i] = rects[order[i]].union(&suffix[i + 1]);
            }

            let mut margin_sum = 0.0;
            let mut local_best = (f64::INFINITY, f64::INFINITY, 0usize); // (overlap, area, k)
            for k in m..=n - m {
                let g1 = prefix[k - 1];
                let g2 = suffix[k];
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
                best_k = Some(local_best.2);
                std::mem::swap(order, best);
            }
        }
    }

    let k = best_k.expect("split must find a distribution");
    best.split_at(k)
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
    let key = |i: usize| {
        let c = rects[i].center();
        if horizontal {
            c.x
        } else {
            c.y
        }
    };
    let order = &mut scratch.order;
    order.clear();
    order.extend(0..rects.len());
    order.sort_by(|&a, &b| key(a).partial_cmp(&key(b)).unwrap());
    order.split_at(rects.len() / 2)
}

fn sort_key(r: &Rect, axis: usize, by_upper: bool) -> f64 {
    match (axis, by_upper) {
        (0, false) => r.min.x,
        (0, true) => r.max.x,
        (1, false) => r.min.y,
        (1, true) => r.max.y,
        _ => unreachable!(),
    }
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
