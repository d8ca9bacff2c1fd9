//! O(n) quantile selection over raw samples.
//!
//! Percentile queries over collected samples (fleet P99 medians, drop-rate
//! baselines, figure rendering) used to fully sort the sample vector —
//! O(n log n) for a single order statistic. These helpers use
//! `select_nth_unstable_by` (introselect) instead: expected O(n), at the
//! cost of reordering the input, which every caller here is free to do.
//! Histogram-backed percentiles live in [`crate::hist`]; these helpers are
//! for one-shot queries where no histogram exists.

use std::cmp::Ordering;

/// Nearest-rank index for quantile `q` over `n` samples: the 1-based
/// nearest rank `ceil(q·n)` (clamped to `[1, n]`), returned as a 0-based
/// index. This is the same convention [`crate::hist::LatencyHistogram`]
/// uses, so histogram and raw-sample percentiles agree up to bucket
/// resolution. (An earlier floor-based variant disagreed with the
/// histogram on even sample counts — e.g. the median of two samples took
/// the *larger* one here and the smaller one in the histogram.)
fn rank(n: usize, q: f64) -> usize {
    ((n as f64 * q).ceil() as usize).clamp(1, n) - 1
}

/// [`quantile_in_place`] with a caller-supplied ordering.
fn quantile_in_place_by<T, F>(xs: &mut [T], q: f64, cmp: F) -> Option<&T>
where
    F: FnMut(&T, &T) -> Ordering,
{
    if xs.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let r = rank(xs.len(), q);
    let (_, nth, _) = xs.select_nth_unstable_by(r, cmp);
    Some(&*nth)
}

/// Selects the `q`-quantile (`0.0..=1.0`, nearest-rank) of `xs` in
/// expected O(n) time, reordering `xs`. Returns `None` on an empty slice
/// or a `q` outside `[0, 1]`.
pub fn quantile_in_place<T: Ord>(xs: &mut [T], q: f64) -> Option<&T> {
    quantile_in_place_by(xs, q, T::cmp)
}

/// [`quantile_in_place`] for `f64` samples using `total_cmp` (NaNs sort
/// last), returning the value by copy.
pub fn quantile_f64_in_place(xs: &mut [f64], q: f64) -> Option<f64> {
    quantile_in_place_by(xs, q, |a, b| a.total_cmp(b)).copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_sort_then_index_on_every_rank() {
        // The golden oracle: full sort + nearest-rank index.
        let base: Vec<u64> = (0..257).map(|i: u64| i.wrapping_mul(7919) % 1000).collect();
        let mut sorted = base.clone();
        sorted.sort_unstable();
        for q in [0.0, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0] {
            let mut xs = base.clone();
            let got = *quantile_in_place(&mut xs, q).unwrap();
            assert_eq!(got, sorted[rank(base.len(), q)], "q={q}");
        }
    }

    #[test]
    fn median_rank_is_nearest_rank() {
        // Nearest-rank (1-based ceil): median index = ceil(n/2) - 1.
        for n in [1usize, 2, 3, 100, 101] {
            assert_eq!(rank(n, 0.5), n.div_ceil(2) - 1, "n={n}");
        }
        // Boundary quantiles pin the extremes for every n.
        for n in [1usize, 2, 7, 100] {
            assert_eq!(rank(n, 0.0), 0, "q=0 n={n}");
            assert_eq!(rank(n, 1.0), n - 1, "q=1 n={n}");
        }
    }

    #[test]
    fn rank_agrees_with_histogram_convention() {
        // Regression for the quantile-convention split: the histogram's
        // 1-based ceil nearest rank and this module's index must select
        // the same order statistic. n=2, q=0.5 is the smallest case the
        // old floor-based rank got wrong (it picked index 1, the larger
        // sample; the histogram picks rank 1, the smaller).
        assert_eq!(rank(2, 0.5), 0);
        let mut xs = [100u64, 100_000];
        assert_eq!(quantile_in_place(&mut xs, 0.5), Some(&100));
    }

    #[test]
    fn degenerate_inputs() {
        let mut empty: Vec<u64> = vec![];
        assert_eq!(quantile_in_place(&mut empty, 0.5), None);
        let mut one = [7u64];
        assert_eq!(quantile_in_place(&mut one, 0.0), Some(&7));
        assert_eq!(quantile_in_place(&mut one, 1.0), Some(&7));
        let mut xs = [1u64, 2, 3];
        assert_eq!(quantile_in_place(&mut xs, -0.1), None);
        assert_eq!(quantile_in_place(&mut xs, 1.1), None);
    }

    #[test]
    fn f64_handles_nan_via_total_cmp() {
        let mut xs = vec![3.0, f64::NAN, 1.0, 2.0];
        // NaN sorts last under total_cmp, so the nearest-rank median of 4
        // values is the rank-⌈2⌉ element of [1, 2, 3, NaN] = 2.0.
        assert_eq!(quantile_f64_in_place(&mut xs, 0.5), Some(2.0));
        let mut clean = vec![5.0, 1.0, 3.0];
        assert_eq!(quantile_f64_in_place(&mut clean, 0.5), Some(3.0));
    }
}
