//! Order statistics: nearest-rank percentiles over raw timing samples and
//! quartiles over per-repetition values.

/// A nanosecond reading as a compact `u32` sample (saturating at 4.29 s,
/// two hundred times the slowest step the workloads produce).
pub fn clamp_ns(ns: u128) -> u32 {
    ns.min(u32::MAX as u128) as u32
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` of the samples at or below it. `None` when empty.
pub fn percentile_sorted<T: Copy>(sorted: &[T], p: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Sorts nanosecond samples in place and returns the `p` percentile in
/// microseconds.
pub fn percentile_us(samples_ns: &mut [u32], p: f64) -> Option<f64> {
    samples_ns.sort_unstable();
    percentile_sorted(samples_ns, p).map(|ns| ns as f64 / 1e3)
}

/// `(q1, median, q3)` exactly as Python's `statistics.quantiles(values,
/// n=4)` computes them (the "exclusive" method), so spreads reported here
/// match the ones the acceptance check derives. One value is its own
/// quartiles; `None` when empty.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => None,
        1 => Some((v[0], v[0], v[0])),
        len => {
            let m = len + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            Some((cut(1), cut(2), cut(3)))
        }
    }
}

/// The median (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).map_or(f64::NAN, |(_, median, _)| median)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 0.5), Some(50));
        assert_eq!(percentile_sorted(&v, 0.99), Some(99));
        assert_eq!(percentile_sorted(&v, 1.0), Some(100));
        assert_eq!(percentile_sorted(&v, 0.0), Some(1));
        assert_eq!(percentile_sorted(&[7u32], 0.99), Some(7));
        assert_eq!(percentile_sorted::<u32>(&[], 0.5), None);
        let mut ns = vec![3_000, 1_000, 2_000];
        assert_eq!(percentile_us(&mut ns, 0.5), Some(2.0));
    }

    /// Reference values from `statistics.quantiles(data, n=4)` in CPython.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let close = |got: (f64, f64, f64), want: (f64, f64, f64)| {
            for (g, w) in [(got.0, want.0), (got.1, want.1), (got.2, want.2)] {
                assert!((g - w).abs() < 1e-12, "{got:?} vs {want:?}");
            }
        };
        // quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        close(quartiles(&ten).unwrap(), (2.75, 5.5, 8.25));
        // quantiles([10, 30, 20], n=4) == [10.0, 20.0, 30.0]
        close(quartiles(&[10.0, 30.0, 20.0]).unwrap(), (10.0, 20.0, 30.0));
        // quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        close(quartiles(&[1.0, 2.0]).unwrap(), (0.75, 1.5, 2.25));
        // quantiles([5,1,4,2,3], n=4) == [1.5, 3.0, 4.5]
        close(
            quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]).unwrap(),
            (1.5, 3.0, 4.5),
        );
        close(quartiles(&[4.0]).unwrap(), (4.0, 4.0, 4.0));
        assert_eq!(quartiles(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(clamp_ns(u128::MAX), u32::MAX);
    }
}
