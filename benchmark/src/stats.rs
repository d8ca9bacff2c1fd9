//! The harness's own arithmetic: percentiles with the "ten samples
//! beyond" rule, medians, and the quartile spread the acceptance rule
//! uses.

/// A percentile is reported only when at least ten samples (by weight)
/// lie beyond its rank, so a "p99" is never one or two outliers.
pub const MIN_BEYOND: u64 = 10;

/// 1-based rank of quantile `q` among `total` samples (nearest-rank).
fn rank_of(total: u64, q: f64) -> u64 {
    ((total as f64 * q).ceil() as u64).clamp(1, total.max(1))
}

/// Whether quantile `q` of `total` samples has [`MIN_BEYOND`] samples
/// beyond it.
pub fn reportable(total: u64, q: f64) -> bool {
    total > 0 && total - rank_of(total, q) >= MIN_BEYOND
}

/// Nearest-rank percentile over `(value, weight)` pairs sorted by value:
/// the smallest value whose cumulative weight reaches the rank. `None`
/// when the sample is empty or fewer than [`MIN_BEYOND`] lie beyond.
pub fn weighted_percentile(sorted: &[(f64, u64)], q: f64) -> Option<f64> {
    let total: u64 = sorted.iter().map(|s| s.1).sum();
    if !reportable(total, q) {
        return None;
    }
    let rank = rank_of(total, q);
    let mut seen = 0u64;
    for &(v, w) in sorted {
        seen += w;
        if seen >= rank {
            return Some(v);
        }
    }
    None
}

/// Latencies of one phase, in microseconds, one entry per operation.
#[derive(Debug, Default, Clone)]
pub struct LatencyLog {
    us: Vec<u32>,
}

/// What a [`LatencyLog`] reports: the sample count beside every
/// percentile, and only the percentiles the count supports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    pub n: u64,
    pub p50_ms: Option<f64>,
    pub p90_ms: Option<f64>,
    pub p99_ms: Option<f64>,
    pub max_ms: f64,
}

impl LatencyLog {
    pub fn push(&mut self, d: std::time::Duration) {
        self.us.push(d.as_micros().min(u32::MAX as u128) as u32);
    }

    pub fn len(&self) -> usize {
        self.us.len()
    }

    pub fn is_empty(&self) -> bool {
        self.us.is_empty()
    }

    pub fn merge(&mut self, other: LatencyLog) {
        self.us.extend(other.us);
    }

    /// Sorts, run-length encodes (microsecond values repeat heavily) and
    /// reads the percentiles off the weighted pairs.
    pub fn summary(&mut self) -> LatencySummary {
        self.us.sort_unstable();
        let mut runs: Vec<(f64, u64)> = Vec::new();
        for &v in &self.us {
            match runs.last_mut() {
                Some((last, w)) if *last == v as f64 => *w += 1,
                _ => runs.push((v as f64, 1)),
            }
        }
        let ms = |q| weighted_percentile(&runs, q).map(|us| us / 1e3);
        LatencySummary {
            n: self.us.len() as u64,
            p50_ms: ms(0.50),
            p90_ms: ms(0.90),
            p99_ms: ms(0.99),
            max_ms: self.us.last().map_or(0.0, |&v| v as f64 / 1e3),
        }
    }
}

/// Median of a non-empty sample (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the default "exclusive" method), so the spread printed
/// here is the one the acceptance rule computes. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        // j = i*(n+1)/4 clamped to [1, n-1]; interpolate between
        // v[j-1] and v[j] by the remainder.
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighted_percentile_walks_cumulative_weight() {
        // 100 samples: 60 × 1.0, 30 × 2.0, 10 × 9.0.
        let s = [(1.0, 60), (2.0, 30), (9.0, 10)];
        assert_eq!(weighted_percentile(&s, 0.50), Some(1.0));
        assert_eq!(weighted_percentile(&s, 0.60), Some(1.0));
        assert_eq!(weighted_percentile(&s, 0.61), Some(2.0));
        assert_eq!(weighted_percentile(&s, 0.90), Some(2.0));
        // p99 has one sample beyond it: withheld.
        assert_eq!(weighted_percentile(&s, 0.99), None);
        assert_eq!(weighted_percentile(&[], 0.5), None);
    }

    #[test]
    fn ten_beyond_rule_boundaries() {
        // p50 needs 20 samples, p90 needs 100, p99 needs 1000.
        assert!(!reportable(19, 0.5));
        assert!(reportable(20, 0.5));
        assert!(!reportable(99, 0.9));
        assert!(reportable(100, 0.9));
        assert!(!reportable(999, 0.99));
        assert!(reportable(1000, 0.99));
        // 200 fresh reads: p50 and p90, no p99.
        assert!(reportable(200, 0.9) && !reportable(200, 0.99));
    }

    #[test]
    fn latency_log_reports_count_and_supported_percentiles() {
        let mut log = LatencyLog::default();
        for i in 0..200u64 {
            log.push(std::time::Duration::from_micros(100 + i));
        }
        let s = log.summary();
        assert_eq!(s.n, 200);
        assert_eq!(s.p50_ms, Some(0.199));
        assert_eq!(s.p90_ms, Some(0.279));
        assert_eq!(s.p99_ms, None);
        assert_eq!(s.max_ms, 0.299);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        //   -> [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(median(&v), 5.5);
        assert_eq!(spread(&v), Some(1.0));
        // statistics.quantiles([3, 1], n=4) -> [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some((0.5, 3.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
