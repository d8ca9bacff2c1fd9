//! Log-bucketed latency histogram with percentile queries.
//!
//! Pingmesh aggregates hundreds of billions of RTT samples per day; the
//! paper's pipeline reports P50 / P99 / P99.9 / P99.99 per scope. Keeping
//! raw samples is out of the question, so — like every production latency
//! pipeline — we fold samples into a histogram with geometrically spaced
//! buckets. With 16 sub-buckets per octave the relative quantile error is
//! bounded by ~4.4 %, far below the natural variance of the quantities the
//! paper reports, while `merge` makes the histogram a CRDT-style aggregate
//! that can be combined across servers, windows, and scopes.
//!
//! Storage is paged by octave. The bucket layout is 38 octaves of 16
//! sub-buckets plus one overflow bucket (609 buckets), but a histogram
//! holds counts only for the octaves it has seen: one 16-count page
//! (128 B) per touched octave, found through a 39-byte octave → page
//! table. The overflow bucket has a page of its own (octave 38). RTTs of
//! one scope span a handful of octaves, so a typical histogram holds a few
//! pages instead of a dense 4,872-byte array, and an empty one holds none
//! ([`LatencyHistogram::new`] does not allocate). Pages sit in the order
//! their octaves were first touched; every reader walks the table in
//! octave order, and equality compares contents, not page order. The live
//! page count is the `pingmesh_types_histogram_pages` gauge
//! ([`crate::telemetry::HISTOGRAM_PAGES`]).

use crate::telemetry::{HISTOGRAMS_CREATED, HISTOGRAM_MERGES, HISTOGRAM_PAGES};
use crate::time::SimDuration;
use std::sync::atomic::Ordering;

/// Sub-buckets per octave (powers of two). 16 gives ≤ 2^(1/16)-1 ≈ 4.4 %
/// relative error per bucket.
const SUB: u32 = 16;
/// Number of octaves covered: 1 µs .. 2^37 µs ≈ 38 hours, comfortably
/// enclosing the 9-second SYN-retry RTTs and any hiccup we model.
const OCTAVES: u32 = 38;
/// Total bucket count (plus one overflow bucket at the end).
const BUCKETS: usize = (OCTAVES * SUB) as usize + 1;
/// Octaves that can own a page: the 38 above plus the overflow bucket's.
const PAGE_SLOTS: usize = OCTAVES as usize + 1;
/// One octave's counts.
type Page = [u64; SUB as usize];
/// Octave-table marker of an octave without a page.
const NO_PAGE: u8 = u8::MAX;

/// One RTT sample with its bucket computed, so that a record folded into
/// several histograms pays for the bucket once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    bucket: usize,
    us: u64,
}

impl Sample {
    /// Buckets `rtt`.
    pub fn new(rtt: SimDuration) -> Self {
        let us = rtt.as_micros();
        Self {
            bucket: LatencyHistogram::bucket_of(us),
            us,
        }
    }
}

/// A mergeable latency histogram over microsecond samples.
///
/// ```
/// use pingmesh_types::{LatencyHistogram, SimDuration};
///
/// let mut h = LatencyHistogram::new();
/// for us in [200u64, 250, 300, 5_000] {
///     h.record(SimDuration::from_micros(us));
/// }
/// assert_eq!(h.count(), 4);
/// let p50 = h.p50().unwrap().as_micros();
/// assert!((240..=320).contains(&p50), "log-bucketed median: {p50}");
/// assert_eq!(h.max().unwrap().as_micros(), 5_000);
/// ```
#[derive(Debug)]
pub struct LatencyHistogram {
    /// Octave → index into `pages`, or [`NO_PAGE`].
    table: [u8; PAGE_SLOTS],
    /// One page per touched octave, in first-touch order, allocated
    /// exactly (no growth slack). No page is ever all zero.
    pages: Vec<Page>,
    total: u64,
    min_us: u64,
    max_us: u64,
    sum_us: u128,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Clone for LatencyHistogram {
    fn clone(&self) -> Self {
        Self::note_pages(self.pages.len());
        Self {
            table: self.table,
            pages: self.pages.clone(),
            total: self.total,
            min_us: self.min_us,
            max_us: self.max_us,
            sum_us: self.sum_us,
        }
    }
}

impl Drop for LatencyHistogram {
    fn drop(&mut self) {
        if !self.pages.is_empty() {
            HISTOGRAM_PAGES.fetch_sub(self.pages.len() as u64, Ordering::Relaxed);
        }
    }
}

impl PartialEq for LatencyHistogram {
    fn eq(&self, other: &Self) -> bool {
        self.total == other.total
            && self.min_us == other.min_us
            && self.max_us == other.max_us
            && self.sum_us == other.sum_us
            && (0..PAGE_SLOTS).all(|o| self.page(o) == other.page(o))
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram. It allocates nothing until its first
    /// sample.
    pub fn new() -> Self {
        HISTOGRAMS_CREATED.fetch_add(1, Ordering::Relaxed);
        Self {
            table: [NO_PAGE; PAGE_SLOTS],
            pages: Vec::new(),
            total: 0,
            min_us: u64::MAX,
            max_us: 0,
            sum_us: 0,
        }
    }

    fn note_pages(n: usize) {
        if n > 0 {
            HISTOGRAM_PAGES.fetch_add(n as u64, Ordering::Relaxed);
        }
    }

    /// The page of octave `o`, if it has one.
    fn page(&self, o: usize) -> Option<&Page> {
        match self.table[o] {
            NO_PAGE => None,
            p => Some(&self.pages[p as usize]),
        }
    }

    /// The page of octave `o`, added (zeroed, at exact size) if absent.
    fn page_mut(&mut self, o: usize) -> &mut Page {
        let p = match self.table[o] {
            NO_PAGE => {
                let p = self.pages.len();
                self.pages.reserve_exact(1);
                self.pages.push([0; SUB as usize]);
                Self::note_pages(1);
                self.table[o] = p as u8;
                p
            }
            p => p as usize,
        };
        &mut self.pages[p]
    }

    /// `(bucket index, count)` of every bucket with a page, in bucket
    /// order.
    fn buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        (0..PAGE_SLOTS).flat_map(move |o| {
            self.page(o).into_iter().flat_map(move |page| {
                (0..)
                    .zip(page)
                    .map(move |(j, &c)| (o * SUB as usize + j, c))
            })
        })
    }

    fn bucket_of(us: u64) -> usize {
        if us <= 1 {
            return 0;
        }
        // floor(log2(us) * SUB) via bit tricks: octave = position of the
        // leading one; sub-bucket = next 4 bits of the mantissa, i.e.
        // floor(us·16/2^octave) − 16. Octaves below 4 hold fewer than 4
        // bits after the leading one, so the value scales *up* — the old
        // downshift-only form mapped e.g. 10 µs into the bucket whose
        // representative value is 13 µs (a 30 % error where ≤ 4.4 % is
        // promised).
        let octave = 63 - us.leading_zeros();
        let mantissa = if octave >= 4 {
            ((us >> (octave - 4)) & 0xF) as u32
        } else {
            ((us << (4 - octave)) & 0xF) as u32
        };
        let idx = (octave * SUB + mantissa) as usize;
        idx.min(BUCKETS - 1)
    }

    /// Representative value (geometric midpoint) of bucket `idx`, in µs.
    fn bucket_value(idx: usize) -> u64 {
        let octave = (idx as u32) / SUB;
        let mantissa = (idx as u32) % SUB;
        // Lower bound of the bucket: 2^octave * (1 + mantissa/16).
        let lo = (1u128 << octave) + (((1u128 << octave) * mantissa as u128) >> 4);
        // Upper bound is the next bucket's lower bound.
        let m2 = mantissa + 1;
        let hi = if m2 == SUB {
            1u128 << (octave + 1)
        } else {
            (1u128 << octave) + (((1u128 << octave) * m2 as u128) >> 4)
        };
        ((lo + hi) / 2) as u64
    }

    /// Records one RTT sample.
    pub fn record(&mut self, rtt: SimDuration) {
        self.record_n(rtt, 1);
    }

    /// Records one sample bucketed beforehand by [`Sample::new`].
    pub fn record_sample(&mut self, s: Sample) {
        self.add(s, 1);
    }

    /// Records `n` identical samples (used when replaying aggregates).
    /// Counters saturate instead of wrapping: a histogram fed more than
    /// `u64::MAX` samples pins at the ceiling rather than corrupting its
    /// quantiles (or aborting the pipeline on a debug overflow check).
    fn record_n(&mut self, rtt: SimDuration, n: u64) {
        if n == 0 {
            return;
        }
        self.add(Sample::new(rtt), n);
    }

    fn add(&mut self, Sample { bucket, us }: Sample, n: u64) {
        let c = &mut self.page_mut(bucket / SUB as usize)[bucket % SUB as usize];
        *c = c.saturating_add(n);
        self.total = self.total.saturating_add(n);
        self.min_us = self.min_us.min(us);
        self.max_us = self.max_us.max(us);
        self.sum_us = self.sum_us.saturating_add(us as u128 * n as u128);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// True if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Smallest recorded sample, if any.
    pub fn min(&self) -> Option<SimDuration> {
        (self.total > 0).then(|| SimDuration::from_micros(self.min_us))
    }

    /// Largest recorded sample, if any.
    pub fn max(&self) -> Option<SimDuration> {
        (self.total > 0).then(|| SimDuration::from_micros(self.max_us))
    }

    /// Mean of recorded samples, if any.
    pub fn mean(&self) -> Option<SimDuration> {
        (self.total > 0)
            .then(|| SimDuration::from_micros((self.sum_us / self.total as u128) as u64))
    }

    /// Quantile query. `q` in [0, 1]; e.g. `0.99` for P99. Returns the
    /// representative value of the bucket containing the q-th sample,
    /// clamped to the exact observed min/max. `None` on an empty histogram.
    pub fn quantile(&self, q: f64) -> Option<SimDuration> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target sample (1-based), ceil(q * total) with q=0 -> 1.
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (idx, c) in self.buckets() {
            // Saturating like the counts: saturated buckets may sum past
            // `u64::MAX`.
            seen = seen.saturating_add(c);
            if seen >= rank {
                let v = Self::bucket_value(idx).clamp(self.min_us, self.max_us);
                return Some(SimDuration::from_micros(v));
            }
        }
        Some(SimDuration::from_micros(self.max_us))
    }

    /// Convenience: median.
    pub fn p50(&self) -> Option<SimDuration> {
        self.quantile(0.50)
    }

    /// Convenience: 99th percentile.
    pub fn p99(&self) -> Option<SimDuration> {
        self.quantile(0.99)
    }

    /// The CDF as (latency, cumulative fraction) points over non-empty
    /// buckets — what the figure-4 plots consume.
    pub fn cdf_points(&self) -> Vec<(SimDuration, f64)> {
        let mut out = Vec::new();
        if self.total == 0 {
            return out;
        }
        let mut cum = 0u64;
        for (idx, c) in self.buckets() {
            if c == 0 {
                continue;
            }
            cum = cum.saturating_add(c);
            out.push((
                SimDuration::from_micros(Self::bucket_value(idx)),
                cum as f64 / self.total as f64,
            ));
        }
        out
    }

    /// Merges another histogram into this one, octave page by octave
    /// page. Like [`Self::record`], all counters saturate instead of
    /// overflowing, so merging shards whose totals together exceed
    /// `u64::MAX` stays well-defined.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        HISTOGRAM_MERGES.fetch_add(1, Ordering::Relaxed);
        for o in 0..PAGE_SLOTS {
            if let Some(src) = other.page(o) {
                for (a, b) in self.page_mut(o).iter_mut().zip(src) {
                    *a = a.saturating_add(*b);
                }
            }
        }
        self.total = self.total.saturating_add(other.total);
        self.min_us = self.min_us.min(other.min_us);
        self.max_us = self.max_us.max(other.max_us);
        self.sum_us = self.sum_us.saturating_add(other.sum_us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> SimDuration {
        SimDuration::from_micros(v)
    }

    #[test]
    fn empty_histogram_has_no_stats() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
    }

    #[test]
    fn single_sample_quantiles_are_exact() {
        let mut h = LatencyHistogram::new();
        h.record(us(250));
        for q in [0.0, 0.5, 0.99, 1.0] {
            let v = h.quantile(q).unwrap().as_micros();
            assert_eq!(v, 250, "q={q} gave {v}");
        }
    }

    #[test]
    fn p50_p99_with_zero_one_and_many_samples() {
        // Zero samples: both helpers are None.
        let mut h = LatencyHistogram::new();
        assert_eq!(h.p50(), None);
        assert_eq!(h.p99(), None);
        // One sample: both collapse to that sample exactly.
        h.record(us(321));
        assert_eq!(h.p50().unwrap().as_micros(), 321);
        assert_eq!(h.p99().unwrap().as_micros(), 321);
        // Many samples: p50 tracks the middle, p99 the tail, within the
        // histogram's ~4.4% bucket error.
        let mut m = LatencyHistogram::new();
        for v in 1..=10_000u64 {
            m.record(us(v));
        }
        let p50 = m.p50().unwrap().as_micros() as f64;
        let p99 = m.p99().unwrap().as_micros() as f64;
        assert!((p50 - 5_000.0).abs() / 5_000.0 < 0.05, "p50 {p50}");
        assert!((p99 - 9_900.0).abs() / 9_900.0 < 0.05, "p99 {p99}");
        assert!(p50 < p99);
    }

    #[test]
    fn quantile_relative_error_is_bounded() {
        let mut h = LatencyHistogram::new();
        // Uniform ramp 1..=100_000 µs.
        for v in 1..=100_000u64 {
            h.record(us(v));
        }
        for (q, expect) in [(0.5, 50_000.0), (0.99, 99_000.0), (0.999, 99_900.0)] {
            let got = h.quantile(q).unwrap().as_micros() as f64;
            let rel = (got - expect).abs() / expect;
            assert!(rel < 0.05, "q={q}: got {got}, expect {expect}, rel {rel}");
        }
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut all = LatencyHistogram::new();
        for v in [10u64, 100, 1_000, 10_000] {
            a.record(us(v));
            all.record(us(v));
        }
        for v in [20u64, 200, 2_000, 3_000_000] {
            b.record(us(v));
            all.record(us(v));
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn min_max_mean_track_exactly() {
        let mut h = LatencyHistogram::new();
        for v in [300u64, 100, 200] {
            h.record(us(v));
        }
        assert_eq!(h.min().unwrap().as_micros(), 100);
        assert_eq!(h.max().unwrap().as_micros(), 300);
        assert_eq!(h.mean().unwrap().as_micros(), 200);
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let mut h = LatencyHistogram::new();
        for v in [100u64, 400, 900, 3_000_000, 9_000_000] {
            h.record(us(v));
        }
        let pts = h.cdf_points();
        assert!(!pts.is_empty());
        let mut prev = 0.0;
        for &(_, f) in &pts {
            assert!(f >= prev);
            prev = f;
        }
        assert!((prev - 1.0).abs() < 1e-12);
    }

    #[test]
    fn syn_retry_rtts_land_in_distinct_buckets() {
        // The drop-rate heuristic depends on 3 s and 9 s populations being
        // separable from sub-second traffic and from each other.
        let b_fast = LatencyHistogram::bucket_of(1_500);
        let b_3s = LatencyHistogram::bucket_of(3_000_000);
        let b_9s = LatencyHistogram::bucket_of(9_000_000);
        assert!(b_fast < b_3s && b_3s < b_9s);
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record_n(us(777), 5);
        for _ in 0..5 {
            b.record(us(777));
        }
        assert_eq!(a, b);
        a.record_n(us(1), 0);
        assert_eq!(a.count(), 5);
    }

    #[test]
    fn merged_disjoint_ranges_quantiles_match_record_into_one() {
        // Satellite regression: merging histograms with disjoint min/max
        // ranges must leave `quantile`'s clamp-to-[min, max] consistent —
        // every percentile of the merged histogram equals the percentile
        // of one histogram fed both sample sets.
        let mut lo = LatencyHistogram::new();
        let mut hi = LatencyHistogram::new();
        let mut all = LatencyHistogram::new();
        for v in (100..1_000u64).step_by(7) {
            lo.record(us(v));
            all.record(us(v));
        }
        for v in (1_000_000..9_000_000u64).step_by(50_021) {
            hi.record(us(v));
            all.record(us(v));
        }
        // Merge in both orders: quantiles must not depend on direction.
        let mut merged_a = lo.clone();
        merged_a.merge(&hi);
        let mut merged_b = hi.clone();
        merged_b.merge(&lo);
        assert_eq!(merged_a, merged_b, "merge must commute");
        for i in 0..=1_000u32 {
            let q = f64::from(i) / 1_000.0;
            assert_eq!(
                merged_a.quantile(q),
                all.quantile(q),
                "q={q}: merged vs record-into-one"
            );
        }
        assert_eq!(merged_a.min(), all.min());
        assert_eq!(merged_a.max(), all.max());
    }

    #[test]
    fn totals_saturate_instead_of_overflowing() {
        // Satellite regression: `merge`/`record_n` used unchecked `+=` on
        // `total`, so two near-full histograms aborted with an arithmetic
        // overflow in debug builds (and wrapped, corrupting quantiles, in
        // release). The counters must saturate.
        let mut a = LatencyHistogram::new();
        a.record_n(us(100), u64::MAX);
        let mut b = LatencyHistogram::new();
        b.record_n(us(5_000), 10);
        a.merge(&b);
        assert_eq!(a.count(), u64::MAX, "total pins at the ceiling");
        // Quantiles stay well-defined and clamped to the observed range.
        let q1 = a.quantile(1.0).unwrap().as_micros();
        assert!((100..=5_000).contains(&q1));
        // Same-bucket saturation via record_n on an almost-full bucket.
        let mut c = LatencyHistogram::new();
        c.record_n(us(100), u64::MAX);
        c.record_n(us(100), u64::MAX);
        assert_eq!(c.count(), u64::MAX);
        assert_eq!(c.quantile(0.5).unwrap().as_micros(), 100);
    }

    #[test]
    fn quantiles_track_exact_nearest_rank_within_one_bucket() {
        // Cross-check of the two quantile conventions (satellite 1): the
        // histogram's answer must land within one bucket of the exact
        // nearest-rank order statistic from `types::quantile` on the same
        // corpus, for several corpus shapes including tiny even-length
        // ones where the old floor-based rank diverged.
        let corpora: Vec<Vec<u64>> = vec![
            vec![100, 100_000],
            vec![250, 250, 251, 90_000],
            (1..=1_000u64).collect(),
            (0..4_096u64)
                .map(|i| 1 + i.wrapping_mul(2_654_435_761) % 3_000_000)
                .collect(),
        ];
        for samples in corpora {
            let mut h = LatencyHistogram::new();
            for &v in &samples {
                h.record(us(v));
            }
            for i in 0..=100u32 {
                let q = f64::from(i) / 100.0;
                let got = h.quantile(q).unwrap().as_micros();
                let mut xs = samples.clone();
                let exact = *crate::quantile::quantile_in_place(&mut xs, q).unwrap();
                let (bg, be) = (
                    LatencyHistogram::bucket_of(got),
                    LatencyHistogram::bucket_of(exact),
                );
                assert!(
                    bg.abs_diff(be) <= 1,
                    "n={} q={q}: hist {got} (bucket {bg}) vs exact {exact} (bucket {be})",
                    samples.len()
                );
            }
        }
    }

    #[test]
    fn quantile_is_monotone_in_q() {
        let mut h = LatencyHistogram::new();
        for i in 0..2_000u64 {
            h.record(us(1 + i.wrapping_mul(7919) % 5_000_000));
        }
        let mut prev = 0u64;
        for i in 0..=1_000u32 {
            let q = f64::from(i) / 1_000.0;
            let v = h.quantile(q).unwrap().as_micros();
            assert!(v >= prev, "q={q}: {v} < {prev}");
            prev = v;
        }
    }

    /// Today's dense layout — 609 counts, always allocated — kept as the
    /// independent reference the paged histogram is checked against.
    #[derive(Debug, Clone, PartialEq)]
    struct Dense {
        counts: Vec<u64>,
        total: u64,
        min_us: u64,
        max_us: u64,
        sum_us: u128,
    }

    impl Dense {
        fn new() -> Self {
            Self {
                counts: vec![0; BUCKETS],
                total: 0,
                min_us: u64::MAX,
                max_us: 0,
                sum_us: 0,
            }
        }

        fn record_n(&mut self, rtt: SimDuration, n: u64) {
            if n == 0 {
                return;
            }
            let us = rtt.as_micros();
            let bucket = LatencyHistogram::bucket_of(us);
            self.counts[bucket] = self.counts[bucket].saturating_add(n);
            self.total = self.total.saturating_add(n);
            self.min_us = self.min_us.min(us);
            self.max_us = self.max_us.max(us);
            self.sum_us = self.sum_us.saturating_add(us as u128 * n as u128);
        }

        fn merge(&mut self, other: &Dense) {
            for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
                *a = a.saturating_add(*b);
            }
            self.total = self.total.saturating_add(other.total);
            self.min_us = self.min_us.min(other.min_us);
            self.max_us = self.max_us.max(other.max_us);
            self.sum_us = self.sum_us.saturating_add(other.sum_us);
        }

        fn quantile(&self, q: f64) -> Option<SimDuration> {
            if self.total == 0 {
                return None;
            }
            let q = q.clamp(0.0, 1.0);
            let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
            let mut seen = 0u64;
            for (idx, &c) in self.counts.iter().enumerate() {
                seen = seen.saturating_add(c);
                if seen >= rank {
                    let v = LatencyHistogram::bucket_value(idx).clamp(self.min_us, self.max_us);
                    return Some(SimDuration::from_micros(v));
                }
            }
            Some(SimDuration::from_micros(self.max_us))
        }

        fn cdf_points(&self) -> Vec<(SimDuration, f64)> {
            let mut out = Vec::new();
            if self.total == 0 {
                return out;
            }
            let mut cum = 0u64;
            for (idx, &c) in self.counts.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                cum = cum.saturating_add(c);
                out.push((
                    SimDuration::from_micros(LatencyHistogram::bucket_value(idx)),
                    cum as f64 / self.total as f64,
                ));
            }
            out
        }

        /// Octaves holding a non-zero count: the ones a page must exist for.
        fn octaves_touched(&self) -> usize {
            self.counts
                .chunks(SUB as usize)
                .filter(|c| c.iter().any(|&n| n > 0))
                .count()
        }
    }

    /// Every reader of `p` answers what the dense reference `d` answers,
    /// and `p` holds exactly one page, allocated exactly, per octave `d`
    /// has touched.
    fn assert_same(p: &LatencyHistogram, d: &Dense, step: usize) {
        assert_eq!(p.count(), d.total, "step {step}: count");
        let some = |v: u64| (d.total > 0).then(|| SimDuration::from_micros(v));
        assert_eq!(p.min(), some(d.min_us), "step {step}: min");
        assert_eq!(p.max(), some(d.max_us), "step {step}: max");
        let mean = (d.total > 0).then(|| (d.sum_us / d.total as u128) as u64);
        assert_eq!(
            p.mean(),
            mean.map(SimDuration::from_micros),
            "step {step}: mean"
        );
        for i in 0..=1_000u32 {
            let q = f64::from(i) / 1_000.0;
            assert_eq!(p.quantile(q), d.quantile(q), "step {step}: q={q}");
        }
        assert_eq!(p.cdf_points(), d.cdf_points(), "step {step}: cdf");
        assert_eq!(p.pages.len(), d.octaves_touched(), "step {step}: pages");
        assert_eq!(p.pages.capacity(), p.pages.len(), "step {step}: slack");
    }

    /// The paged layout against the dense reference: seeded `record`,
    /// `record_n` (with `u64::MAX` saturation), `merge` in both orders and
    /// `clone` over a small pool, samples from 0 µs into the overflow
    /// bucket, every reader compared after every step.
    #[test]
    fn paged_histogram_matches_the_dense_reference() {
        let mut state = 0x0c7a_5e39_u64;
        let mut draw = move |m: u64| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % m
        };
        fn sample(draw: &mut dyn FnMut(u64) -> u64) -> SimDuration {
            // Mostly data-centre RTTs (16 µs .. 16 s); a third anywhere
            // from 0 µs up to the overflow bucket's u64::MAX / 2.
            let octave = if draw(3) == 0 { draw(63) } else { 4 + draw(20) };
            let us = (1u64 << octave) + draw(1u64 << octave) - 1;
            SimDuration::from_micros(us.min(u64::MAX / 2))
        }
        const POOL: usize = 4;
        let mut paged: Vec<LatencyHistogram> = (0..POOL).map(|_| LatencyHistogram::new()).collect();
        let mut dense: Vec<Dense> = (0..POOL).map(|_| Dense::new()).collect();
        for h in &paged {
            assert_eq!(h.pages.capacity(), 0, "new() allocates nothing");
        }
        let (mut merges, mut saturated, mut overflow) = (0, 0, 0);
        for step in 0..300 {
            let i = draw(POOL as u64) as usize;
            let j = draw(POOL as u64) as usize;
            match draw(10) {
                0..=3 => {
                    let rtt = sample(&mut draw);
                    paged[i].record(rtt);
                    dense[i].record_n(rtt, 1);
                }
                4..=5 => {
                    let rtt = sample(&mut draw);
                    let n = match draw(8) {
                        0 => u64::MAX,
                        1 => 0,
                        _ => 1 + draw(1_000),
                    };
                    saturated += usize::from(n == u64::MAX);
                    paged[i].record_n(rtt, n);
                    dense[i].record_n(rtt, n);
                }
                6..=8 if i != j => {
                    // Both orders: i ∪ j and j ∪ i must agree with each
                    // other and with the reference; i keeps the result.
                    let (mut a, mut b) = (paged[i].clone(), paged[j].clone());
                    a.merge(&paged[j]);
                    b.merge(&paged[i]);
                    assert_eq!(a, b, "step {step}: merge commutes");
                    let d = dense[j].clone();
                    dense[i].merge(&d);
                    assert_same(&b, &dense[i], step);
                    paged[i] = a;
                    merges += 1;
                }
                _ => {
                    paged[i] = paged[j].clone();
                    dense[i] = dense[j].clone();
                }
            }
            overflow += usize::from(dense[i].counts[BUCKETS - 1] > 0);
            assert_same(&paged[i], &dense[i], step);
            for k in 0..POOL {
                assert_eq!(
                    paged[i] == paged[k],
                    dense[i] == dense[k],
                    "step {step}: == agrees with the reference ({i} vs {k})"
                );
            }
        }
        assert!(
            merges > 40 && saturated > 3 && overflow > 20,
            "{merges} {saturated} {overflow}"
        );
    }

    #[test]
    fn pages_follow_octaves_and_the_live_gauge() {
        use crate::telemetry::HISTOGRAM_PAGES;
        let mut h = LatencyHistogram::new();
        assert_eq!(h.pages.len(), 0);
        h.record(us(300));
        h.record(us(310));
        assert_eq!(h.pages.len(), 1, "one octave, one page");
        h.record(us(3_000_000));
        h.record(us(u64::MAX / 2));
        assert_eq!(
            h.pages.len(),
            3,
            "the overflow bucket has a page of its own"
        );
        // The gauge is process-wide and tests run in parallel, so only
        // what this test holds is known: at least its own pages.
        let copy = h.clone();
        assert!(HISTOGRAM_PAGES.load(Ordering::Relaxed) >= 6);
        assert_eq!(copy, h);
    }

    #[test]
    fn huge_samples_hit_overflow_bucket_without_panic() {
        let mut h = LatencyHistogram::new();
        h.record(us(u64::MAX / 2));
        assert_eq!(h.count(), 1);
        assert!(h.quantile(1.0).is_some());
    }
}
