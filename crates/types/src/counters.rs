//! Agent performance counters.
//!
//! Besides uploading raw records, each agent computes local aggregates and
//! exposes them as performance counters (paper §3.5): packet drop rate and
//! network latency at the 50th and 99th percentile, plus resource-usage
//! counters for the watchdog. A Perfcounter Aggregator collects these every
//! 5 minutes — a faster (if less expressive) path than the store pipeline.

use crate::hist::LatencyHistogram;
use crate::probe::ProbeOutcome;
use crate::time::SimDuration;
use serde::{Deserialize, Serialize};

/// RTTs within this band around 3 s / 9 s are classified as SYN-retry
/// signatures. The band is generous: a retried connect still pays the
/// normal path RTT (hundreds of µs) on top of the 3 s timeout, and timer
/// granularity adds slack; yet 3 s ± 1.4 s and 9 s ± 1.4 s can never
/// overlap each other or normal sub-second traffic.
const RETRY_BAND: SimDuration = SimDuration::from_millis(1_400);
/// Expected RTT of a probe whose first SYN was dropped.
const RTT_ONE_DROP: SimDuration = SimDuration::from_secs(3);
/// Expected RTT of a probe whose first two SYNs were dropped.
const RTT_TWO_DROPS: SimDuration = SimDuration::from_secs(9);

/// Classification of a successful probe's RTT for drop accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RttClass {
    /// Normal RTT (no SYN loss).
    Normal,
    /// ≈ 3 s: the first SYN was dropped.
    OneDrop,
    /// ≈ 9 s: the first and second SYNs were dropped.
    TwoDrops,
}

/// Classifies an RTT into the paper's 3 s / 9 s signature bands. Pure: the
/// `pingmesh_types_rtts_classified` gauge counts
/// [`AgentCounters::observe`]'s classifications, not the DSA fold's.
pub fn classify_rtt(rtt: SimDuration) -> RttClass {
    let in_band = |center: SimDuration| {
        let lo = center.as_micros().saturating_sub(RETRY_BAND.as_micros());
        let hi = center.as_micros() + RETRY_BAND.as_micros();
        (lo..=hi).contains(&rtt.as_micros())
    };
    if in_band(RTT_TWO_DROPS) {
        RttClass::TwoDrops
    } else if in_band(RTT_ONE_DROP) {
        RttClass::OneDrop
    } else {
        RttClass::Normal
    }
}

/// Live counters maintained by one agent. `snapshot` produces the
/// immutable [`CounterSnapshot`] the Perfcounter Aggregator collects.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AgentCounters {
    /// Probes launched.
    pub probes_sent: u64,
    /// Probes that produced an RTT.
    pub probes_succeeded: u64,
    /// Probes with the ≈3 s one-drop signature.
    pub probes_3s: u64,
    /// Probes with the ≈9 s two-drop signature.
    pub probes_9s: u64,
    /// Probes that failed (connect timeout / refused).
    pub probes_failed: u64,
    /// Records dropped because the upload path failed repeatedly.
    pub records_discarded: u64,
    /// Bytes uploaded to the store.
    pub bytes_uploaded: u64,
    /// RTT distribution of successful probes.
    pub latency: LatencyHistogram,
}

impl AgentCounters {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one probe outcome into the counters.
    pub fn observe(&mut self, outcome: ProbeOutcome) {
        self.probes_sent += 1;
        match outcome {
            ProbeOutcome::Success { rtt } => {
                self.probes_succeeded += 1;
                self.latency.record(rtt);
                crate::telemetry::RTTS_CLASSIFIED
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                match classify_rtt(rtt) {
                    RttClass::Normal => {}
                    RttClass::OneDrop => self.probes_3s += 1,
                    RttClass::TwoDrops => self.probes_9s += 1,
                }
            }
            ProbeOutcome::Timeout | ProbeOutcome::Refused => self.probes_failed += 1,
        }
    }

    /// The paper's drop-rate estimate over everything this agent has seen.
    pub fn drop_rate(&self) -> f64 {
        if self.probes_succeeded == 0 {
            return 0.0;
        }
        (self.probes_3s + self.probes_9s) as f64 / self.probes_succeeded as f64
    }

    /// Produces the exported counter snapshot.
    pub fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            probes_sent: self.probes_sent,
            probes_succeeded: self.probes_succeeded,
            probes_failed: self.probes_failed,
            drop_rate: self.drop_rate(),
            p50: self.latency.p50(),
            p99: self.latency.p99(),
            records_discarded: self.records_discarded,
            bytes_uploaded: self.bytes_uploaded,
        }
    }

    /// Resets windowed state (called after each PA collection so counters
    /// describe the last collection interval, as PA counters do).
    pub fn reset_window(&mut self) {
        *self = Self::default();
    }
}

/// Immutable exported counters, one per agent per collection interval.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    /// Probes launched in the window.
    pub probes_sent: u64,
    /// Probes that produced an RTT.
    pub probes_succeeded: u64,
    /// Probes that failed entirely.
    pub probes_failed: u64,
    /// Drop-rate estimate for the window.
    pub drop_rate: f64,
    /// Median RTT, if any traffic.
    pub p50: Option<SimDuration>,
    /// 99th-percentile RTT, if any traffic.
    pub p99: Option<SimDuration>,
    /// Records discarded due to upload failure.
    pub records_discarded: u64,
    /// Bytes uploaded.
    pub bytes_uploaded: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(us: u64) -> ProbeOutcome {
        ProbeOutcome::Success {
            rtt: SimDuration::from_micros(us),
        }
    }

    #[test]
    fn classify_rtt_bands() {
        assert_eq!(
            classify_rtt(SimDuration::from_micros(250)),
            RttClass::Normal
        );
        assert_eq!(
            classify_rtt(SimDuration::from_micros(3_000_250)),
            RttClass::OneDrop
        );
        assert_eq!(
            classify_rtt(SimDuration::from_micros(9_001_000)),
            RttClass::TwoDrops
        );
        // Band edges: 1.6s is normal, 4.3s is normal (outside 3s±1.4s).
        assert_eq!(
            classify_rtt(SimDuration::from_millis(1_599)),
            RttClass::Normal
        );
        assert_eq!(
            classify_rtt(SimDuration::from_millis(4_401)),
            RttClass::Normal
        );
    }

    #[test]
    fn classify_rtt_band_edges_are_inclusive() {
        // One-drop band is exactly [1.6 s, 4.4 s] (3 s ± 1.4 s), inclusive.
        assert_eq!(
            classify_rtt(SimDuration::from_millis(1_600)),
            RttClass::OneDrop,
            "lower edge 1.6s is in the one-drop band"
        );
        assert_eq!(
            classify_rtt(SimDuration::from_millis(4_400)),
            RttClass::OneDrop,
            "upper edge 4.4s is in the one-drop band"
        );
        // Two-drop band is exactly [7.6 s, 10.4 s] (9 s ± 1.4 s), inclusive.
        assert_eq!(
            classify_rtt(SimDuration::from_millis(7_600)),
            RttClass::TwoDrops,
            "lower edge 7.6s is in the two-drop band"
        );
        assert_eq!(
            classify_rtt(SimDuration::from_millis(10_400)),
            RttClass::TwoDrops,
            "upper edge 10.4s is in the two-drop band"
        );
        // One microsecond outside each edge falls out of the band.
        for (us, expect) in [
            (1_600_000 - 1, RttClass::Normal),
            (4_400_000 + 1, RttClass::Normal),
            (7_600_000 - 1, RttClass::Normal),
            (10_400_000 + 1, RttClass::Normal),
        ] {
            assert_eq!(
                classify_rtt(SimDuration::from_micros(us)),
                expect,
                "rtt {us}us must be outside every retry band"
            );
        }
        // The gap between the bands (4.4 s, 7.6 s) is all Normal.
        for ms in [4_401u64, 5_000, 6_000, 7_000, 7_599] {
            assert_eq!(
                classify_rtt(SimDuration::from_millis(ms)),
                RttClass::Normal,
                "{ms}ms sits in the inter-band gap"
            );
        }
    }

    #[test]
    fn observe_counts_and_drop_rate() {
        let mut c = AgentCounters::new();
        for _ in 0..9_996 {
            c.observe(ok(300));
        }
        for _ in 0..3 {
            c.observe(ok(3_000_300));
        }
        c.observe(ok(9_000_300));
        c.observe(ProbeOutcome::Timeout);
        assert_eq!(c.probes_sent, 10_001);
        assert_eq!(c.probes_succeeded, 10_000);
        assert_eq!(c.probes_failed, 1);
        assert!((c.drop_rate() - 4.0 / 10_000.0).abs() < 1e-12);
    }

    #[test]
    fn snapshot_and_reset() {
        let mut c = AgentCounters::new();
        c.observe(ok(100));
        c.observe(ok(200));
        let s = c.snapshot();
        assert_eq!(s.probes_sent, 2);
        assert!(s.p50.is_some() && s.p99.is_some());
        c.reset_window();
        assert_eq!(c.probes_sent, 0);
        assert!(c.snapshot().p50.is_none());
    }

    #[test]
    fn drop_rate_zero_without_successes() {
        let mut c = AgentCounters::new();
        c.observe(ProbeOutcome::Refused);
        assert_eq!(c.drop_rate(), 0.0);
    }
}
