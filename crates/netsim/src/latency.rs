//! Latency and loss models, with per-DC workload profiles.
//!
//! RTT is composed exactly as §2.2 of the paper describes: "application
//! processing latency, OS kernel TCP/IP stack and driver processing
//! latency, NIC introduced latency, packet transmission delay, propagation
//! delay, and queuing delay introduced by packet buffering at the switches
//! along the path". We model, per direction:
//!
//! * one **host** sample (sender stack + receiver stack + NICs),
//!   lognormal around the profile's median — this dominates P50,
//! * per-**switch** forwarding cost plus a load-scaled lognormal queuing
//!   sample — this is why inter-pod P50 exceeds intra-pod P50 by only tens
//!   of microseconds (paper Fig. 4(c): "the network does introduce tens of
//!   microsecond latency due to queuing delay. But the queuing delay is
//!   small"),
//! * rare **hiccups** (OS scheduling, GC-like stalls): "it is hard to
//!   provide low latency at three or four 9s, even when the servers and
//!   network are both light-loaded ... because the server OS is not a
//!   real-time operating system". A minor-hiccup population shapes P99.9
//!   and a major-hiccup population shapes P99.99 (1397 ms for DC1!).
//!
//! Loss is per-device-traversal Bernoulli with per-tier probabilities
//! calibrated so that the *measured* (3 s + 9 s heuristic) drop rates land
//! on the paper's Table 1 for each of the five DC presets.

use crate::rng::{chance, exponential, LogNormal};
use pingmesh_types::{QosClass, SimDuration, SimTime, SwitchTier};
use rand::rngs::SmallRng;
use serde::{Deserialize, Serialize};

/// Time-varying load multiplier applied to queuing delay (and congestion-
/// induced loss, if a scenario adds any).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LoadSchedule {
    /// Constant multiplier.
    Constant(f64),
    /// Square wave: `high` for the first `duty` fraction of every
    /// `period`, `low` otherwise. Models the periodic high-throughput data
    /// sync visible in the paper's Figure 5(a).
    Periodic {
        /// Cycle length.
        period: SimDuration,
        /// Fraction of the period spent at the high level (0..1).
        duty: f64,
        /// Multiplier during the high phase.
        high: f64,
        /// Multiplier during the low phase.
        low: f64,
    },
}

impl LoadSchedule {
    /// The schedule's multipliers, indexed by [`LoadSchedule::level`]: a
    /// periodic schedule's low then high, a constant's one level twice.
    fn levels(&self) -> [f64; 2] {
        match *self {
            LoadSchedule::Constant(k) => [k, k],
            LoadSchedule::Periodic { high, low, .. } => [low, high],
        }
    }

    /// Which of [`LoadSchedule::levels`] holds at time `t`.
    fn level(&self, t: SimTime) -> usize {
        match *self {
            LoadSchedule::Constant(_) => 0,
            LoadSchedule::Periodic { period, duty, .. } => {
                if period.as_micros() == 0 {
                    return 0;
                }
                let phase = (t.as_micros() % period.as_micros()) as f64 / period.as_micros() as f64;
                usize::from(phase < duty.clamp(0.0, 1.0))
            }
        }
    }
}

/// Per-tier, per-traversal packet drop probabilities under normal
/// conditions (excluding injected faults). `host` applies once per packet
/// per endpoint (NIC + stack of the sender or receiver).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TierDrops {
    /// Per-endpoint host/NIC drop probability.
    pub host: f64,
    /// Per-ToR-traversal drop probability.
    pub tor: f64,
    /// Per-Leaf-traversal drop probability.
    pub leaf: f64,
    /// Per-Spine-traversal drop probability.
    pub spine: f64,
    /// Per-border-router-traversal drop probability.
    pub border: f64,
}

impl TierDrops {
    /// A loss-free fabric (useful in latency-only tests).
    pub const NONE: TierDrops = TierDrops {
        host: 0.0,
        tor: 0.0,
        leaf: 0.0,
        spine: 0.0,
        border: 0.0,
    };

    /// Drop probability for one traversal of a switch at `tier`.
    pub fn for_tier(&self, tier: SwitchTier) -> f64 {
        match tier {
            SwitchTier::Tor => self.tor,
            SwitchTier::Leaf => self.leaf,
            SwitchTier::Spine => self.spine,
            SwitchTier::Border => self.border,
        }
    }
}

/// Latency/loss profile of one data center.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DcProfile {
    /// Profile name (for reports).
    pub name: String,
    /// Median of the per-direction host cost (sender + receiver stack), µs.
    pub host_median_us: f64,
    /// Lognormal shape of the host cost.
    pub host_sigma: f64,
    /// Fixed forwarding cost per switch traversal, µs.
    pub switch_base_us: f64,
    /// Median queuing delay per switch traversal at load factor 1.0, µs.
    pub queue_median_us: f64,
    /// Lognormal shape of the queuing delay.
    pub queue_sigma: f64,
    /// Base utilization of the fabric; multiplies queue medians.
    pub utilization: f64,
    /// Time-varying load on top of `utilization`.
    pub load: LoadSchedule,
    /// Probability a probe hits a minor host hiccup (shapes P99.9).
    pub hiccup_minor_prob: f64,
    /// Mean of the minor hiccup, µs (exponential).
    pub hiccup_minor_mean_us: f64,
    /// Probability a probe hits a major host hiccup (shapes P99.99).
    pub hiccup_major_prob: f64,
    /// Mean of the major hiccup, µs (exponential).
    pub hiccup_major_mean_us: f64,
    /// Hard cap on a single probe's total hiccup, µs. Real OS stalls are
    /// bounded; more importantly the cap keeps honest-latency samples out
    /// of the ≈3 s SYN-retry band the drop-rate heuristic decodes, just
    /// as production hiccups stayed well below 1.6 s at the quantiles the
    /// paper reports.
    pub hiccup_cap_us: f64,
    /// Link speed used for payload transmission delay, Gbit/s.
    pub link_gbps: f64,
    /// Median user-space cost for the peer to echo a payload, µs.
    pub echo_median_us: f64,
    /// Lognormal shape of the echo cost.
    pub echo_sigma: f64,
    /// Queuing-delay multiplier seen by low-priority (DSCP-scavenger)
    /// traffic: switches serve the low-priority queue only after the
    /// high-priority one, so its queuing delay scales up under load
    /// (§6.2 QoS monitoring exists to watch exactly this gap).
    pub qos_low_queue_factor: f64,
    /// Normal-condition loss rates.
    pub drops: TierDrops,
    /// Probability that a SYN retransmission is dropped *given* the
    /// previous attempt was randomly dropped — loss is bursty, which is
    /// why the paper counts a 9 s connect as a single drop event.
    pub burst_correlation: f64,
}

impl DcProfile {
    /// DC1 (US West) of the paper: throughput-intensive (distributed
    /// storage + MapReduce), ~90 % CPU, heavy sustained traffic. Largest
    /// hiccup tail: P99.9 ≈ 23 ms, P99.99 ≈ 1.4 s inter-pod.
    pub fn us_west() -> Self {
        Self {
            name: "DC1 (US West)".into(),
            host_median_us: 90.0,
            host_sigma: 0.74,
            switch_base_us: 1.0,
            queue_median_us: 4.0,
            queue_sigma: 1.0,
            utilization: 0.9,
            load: LoadSchedule::Constant(1.0),
            hiccup_minor_prob: 8.0e-3,
            hiccup_minor_mean_us: 8_500.0,
            hiccup_major_prob: 1.6e-4,
            hiccup_major_mean_us: 3_000_000.0,
            hiccup_cap_us: 1_400_000.0,
            link_gbps: 10.0,
            echo_median_us: 45.0,
            echo_sigma: 1.5,
            qos_low_queue_factor: 3.0,
            drops: TierDrops {
                host: 2.0e-6,
                tor: 2.55e-6,
                leaf: 1.0e-5,
                spine: 8.65e-6,
                border: 5.0e-6,
            },
            burst_correlation: 0.25,
        }
    }

    /// DC2 (US Central): latency-sensitive interactive Search; moderate
    /// CPU, low average throughput but bursty. Tail: P99.9 ≈ 11 ms,
    /// P99.99 ≈ 106 ms inter-pod.
    pub fn us_central() -> Self {
        Self {
            name: "DC2 (US Central)".into(),
            host_median_us: 90.0,
            host_sigma: 0.70,
            switch_base_us: 1.0,
            queue_median_us: 3.0,
            queue_sigma: 1.1, // bursty
            utilization: 0.4,
            load: LoadSchedule::Constant(1.0),
            hiccup_minor_prob: 6.0e-3,
            hiccup_minor_mean_us: 4_500.0,
            hiccup_major_prob: 1.4e-4,
            hiccup_major_mean_us: 60_000.0,
            hiccup_cap_us: 1_400_000.0,
            link_gbps: 10.0,
            echo_median_us: 45.0,
            echo_sigma: 1.3,
            qos_low_queue_factor: 3.0,
            drops: TierDrops {
                host: 3.0e-6,
                tor: 4.5e-6,
                leaf: 8.0e-6,
                spine: 7.15e-6,
                border: 5.0e-6,
            },
            burst_correlation: 0.25,
        }
    }

    /// DC3 (US East) of Table 1.
    fn us_east() -> Self {
        Self {
            name: "DC3 (US East)".into(),
            drops: TierDrops {
                host: 1.5e-6,
                tor: 1.79e-6,
                leaf: 4.5e-6,
                spine: 4.42e-6,
                border: 4.0e-6,
            },
            ..Self::us_central()
        }
    }

    /// DC4 (Europe) of Table 1.
    pub fn europe() -> Self {
        Self {
            name: "DC4 (Europe)".into(),
            drops: TierDrops {
                host: 2.5e-6,
                tor: 2.6e-6,
                leaf: 5.5e-6,
                spine: 5.4e-6,
                border: 4.0e-6,
            },
            ..Self::us_central()
        }
    }

    /// DC5 (Asia) of Table 1 — the cleanest fabric.
    pub fn asia() -> Self {
        Self {
            name: "DC5 (Asia)".into(),
            drops: TierDrops {
                host: 1.5e-6,
                tor: 1.91e-6,
                leaf: 3.0e-7,
                spine: 2.8e-7,
                border: 2.0e-7,
            },
            ..Self::us_central()
        }
    }

    /// A loss-free, hiccup-free profile for deterministic unit tests.
    pub fn ideal() -> Self {
        Self {
            name: "ideal".into(),
            host_median_us: 100.0,
            host_sigma: 0.0,
            switch_base_us: 1.0,
            queue_median_us: 4.0,
            queue_sigma: 0.0,
            utilization: 1.0,
            load: LoadSchedule::Constant(1.0),
            hiccup_minor_prob: 0.0,
            hiccup_minor_mean_us: 0.0,
            hiccup_major_prob: 0.0,
            hiccup_major_mean_us: 0.0,
            hiccup_cap_us: 0.0,
            link_gbps: 10.0,
            qos_low_queue_factor: 1.0,
            echo_median_us: 40.0,
            echo_sigma: 0.0,
            drops: TierDrops::NONE,
            burst_correlation: 0.0,
        }
    }

    /// The five Table-1 presets in paper order.
    pub fn table1_presets() -> Vec<DcProfile> {
        vec![
            Self::us_west(),
            Self::us_central(),
            Self::us_east(),
            Self::europe(),
            Self::asia(),
        ]
    }

    /// Per-hop serialization delay of `bytes` at the profile link speed.
    pub fn tx_delay_us(&self, bytes: u32) -> f64 {
        (bytes as f64 * 8.0) / (self.link_gbps * 1_000.0)
    }
}

/// A [`DcProfile`] ready to draw from: every lognormal's median is
/// computed once, here — the host and echo costs', and the queuing
/// delay's per QoS class and per level of the load schedule — so a
/// latency draw is one standard normal, one `exp` and one multiply.
#[derive(Debug, Clone)]
pub(crate) struct ProfileDraws {
    /// The profile drawn from.
    pub(crate) profile: DcProfile,
    host: LogNormal,
    echo: LogNormal,
    /// Queuing delay by [`LoadSchedule::level`], then QoS class (high,
    /// low): low-priority packets queue behind high-priority ones.
    queue: [[LogNormal; 2]; 2],
}

impl ProfileDraws {
    pub(crate) fn new(profile: DcProfile) -> Self {
        let queue = profile.load.levels().map(|level| {
            let load = profile.utilization * level;
            let low_load = load * profile.qos_low_queue_factor.max(1.0);
            [load, low_load]
                .map(|l| LogNormal::new(profile.queue_median_us * l, profile.queue_sigma))
        });
        Self {
            host: LogNormal::new(profile.host_median_us, profile.host_sigma),
            echo: LogNormal::new(profile.echo_median_us, profile.echo_sigma),
            queue,
            profile,
        }
    }

    /// One host-direction latency sample (sender stack + receiver stack).
    pub(crate) fn host_us(&self, rng: &mut SmallRng) -> f64 {
        self.host.sample(rng)
    }

    /// One switch-traversal latency sample at time `t` for a QoS class.
    pub(crate) fn switch_us(&self, rng: &mut SmallRng, t: SimTime, qos: QosClass) -> f64 {
        let queue = &self.queue[self.profile.load.level(t)][usize::from(qos == QosClass::Low)];
        self.profile.switch_base_us + queue.sample(rng)
    }

    /// Host hiccup contribution for one probe (usually zero).
    pub(crate) fn hiccup_us(&self, rng: &mut SmallRng) -> f64 {
        let p = &self.profile;
        let mut extra = 0.0;
        if chance(rng, p.hiccup_minor_prob) {
            extra += exponential(rng, p.hiccup_minor_mean_us);
        }
        if chance(rng, p.hiccup_major_prob) {
            extra += exponential(rng, p.hiccup_major_mean_us);
        }
        extra.min(p.hiccup_cap_us)
    }

    /// User-space echo processing sample.
    pub(crate) fn echo_us(&self, rng: &mut SmallRng) -> f64 {
        self.echo.sample(rng)
    }
}

/// One-way inter-DC propagation delays. Symmetric matrix, µs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InterDcMatrix {
    n: usize,
    one_way_us: Vec<u64>,
}

impl InterDcMatrix {
    /// Builds a matrix with a uniform default one-way delay between any
    /// two distinct DCs.
    pub fn uniform(n: usize, one_way: SimDuration) -> Self {
        let mut m = Self {
            n,
            one_way_us: vec![0; n * n],
        };
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    m.one_way_us[i * n + j] = one_way.as_micros();
                }
            }
        }
        m
    }

    /// Sets the one-way delay of a DC pair (both directions).
    pub fn set(&mut self, a: usize, b: usize, one_way: SimDuration) {
        self.one_way_us[a * self.n + b] = one_way.as_micros();
        self.one_way_us[b * self.n + a] = one_way.as_micros();
    }

    /// One-way delay between two DCs.
    pub fn one_way(&self, a: usize, b: usize) -> SimDuration {
        SimDuration::from_micros(self.one_way_us[a * self.n + b])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn load_schedule_periodic() {
        let factor = |s: &LoadSchedule, t| s.levels()[s.level(t)];
        let s = LoadSchedule::Periodic {
            period: SimDuration::from_secs(100),
            duty: 0.25,
            high: 4.0,
            low: 1.0,
        };
        assert_eq!(factor(&s, SimTime(0)), 4.0);
        assert_eq!(factor(&s, SimTime(24_999_999)), 4.0);
        assert_eq!(factor(&s, SimTime(25_000_000)), 1.0);
        assert_eq!(factor(&s, SimTime(99_000_000)), 1.0);
        // Next cycle.
        assert_eq!(factor(&s, SimTime(100_000_000)), 4.0);
        assert_eq!(factor(&LoadSchedule::Constant(2.5), SimTime(7)), 2.5);
    }

    #[test]
    fn tier_drops_lookup() {
        let d = DcProfile::us_west().drops;
        assert_eq!(d.for_tier(SwitchTier::Tor), d.tor);
        assert_eq!(d.for_tier(SwitchTier::Leaf), d.leaf);
        assert_eq!(d.for_tier(SwitchTier::Spine), d.spine);
        assert_eq!(d.for_tier(SwitchTier::Border), d.border);
    }

    #[test]
    fn table1_presets_calibration_intra_pod() {
        // Measured intra-pod drop rate ≈ 2*(2*host + tor); check each
        // preset reproduces its Table 1 column to within 3 %.
        let expect = [1.31e-5, 2.10e-5, 9.58e-6, 1.52e-5, 9.82e-6];
        for (p, e) in DcProfile::table1_presets().iter().zip(expect) {
            let rate = 2.0 * (2.0 * p.drops.host + p.drops.tor);
            assert!(
                (rate - e).abs() / e < 0.03,
                "{}: analytic {rate:e} vs paper {e:e}",
                p.name
            );
        }
    }

    #[test]
    fn table1_presets_calibration_inter_pod() {
        // Inter-pod crosses ToR×2, Leaf×2, Spine×1 per direction.
        let expect = [7.55e-5, 7.63e-5, 4.00e-5, 5.32e-5, 1.54e-5];
        for (p, e) in DcProfile::table1_presets().iter().zip(expect) {
            let d = p.drops;
            let rate = 2.0 * (2.0 * d.host + 2.0 * d.tor + 2.0 * d.leaf + d.spine);
            assert!(
                (rate - e).abs() / e < 0.03,
                "{}: analytic {rate:e} vs paper {e:e}",
                p.name
            );
        }
    }

    #[test]
    fn ideal_profile_is_deterministic() {
        let p = ProfileDraws::new(DcProfile::ideal());
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(p.host_us(&mut rng), 100.0);
        assert_eq!(p.switch_us(&mut rng, SimTime(0), QosClass::High), 5.0);
        assert_eq!(p.hiccup_us(&mut rng), 0.0);
        assert_eq!(p.echo_us(&mut rng), 40.0);
    }

    #[test]
    fn queue_medians_follow_load_level_and_qos() {
        let p = ProfileDraws::new(DcProfile {
            queue_sigma: 0.0,
            utilization: 0.5,
            qos_low_queue_factor: 3.0,
            load: LoadSchedule::Periodic {
                period: SimDuration::from_secs(100),
                duty: 0.25,
                high: 4.0,
                low: 1.0,
            },
            ..DcProfile::ideal()
        });
        let mut rng = SmallRng::seed_from_u64(1);
        let mut queue = |t, qos| p.switch_us(&mut rng, SimTime(t), qos) - 1.0;
        // 4 µs median × 0.5 utilization × the level (× 3 when low QoS).
        assert!((queue(0, QosClass::High) - 8.0).abs() < 1e-9);
        assert!((queue(0, QosClass::Low) - 24.0).abs() < 1e-9);
        assert!((queue(50_000_000, QosClass::High) - 2.0).abs() < 1e-9);
        assert!((queue(50_000_000, QosClass::Low) - 6.0).abs() < 1e-9);
        let idle = ProfileDraws::new(DcProfile {
            utilization: 0.0,
            ..DcProfile::us_west()
        });
        assert_eq!(idle.switch_us(&mut rng, SimTime(0), QosClass::Low), 1.0);
    }

    #[test]
    fn tx_delay_scales_with_size() {
        let p = DcProfile::ideal();
        assert!((p.tx_delay_us(1_000) - 0.8).abs() < 1e-9);
        assert_eq!(p.tx_delay_us(0), 0.0);
    }

    #[test]
    fn interdc_matrix() {
        let mut m = InterDcMatrix::uniform(3, SimDuration::from_millis(20));
        assert_eq!(m.one_way(0, 1).as_micros(), 20_000);
        assert_eq!(m.one_way(1, 1).as_micros(), 0);
        m.set(0, 2, SimDuration::from_millis(70));
        assert_eq!(m.one_way(2, 0).as_micros(), 70_000);
        assert_eq!(m.one_way(0, 2).as_micros(), 70_000);
    }

    #[test]
    fn hiccup_probability_is_respected() {
        let p = ProfileDraws::new(DcProfile::us_west());
        let mut rng = SmallRng::seed_from_u64(7);
        let n = 2_000_000;
        let hits = (0..n).filter(|_| p.hiccup_us(&mut rng) > 0.0).count();
        let rate = hits as f64 / n as f64;
        let expect = p.profile.hiccup_minor_prob + p.profile.hiccup_major_prob;
        assert!(
            (rate - expect).abs() / expect < 0.15,
            "rate {rate} vs {expect}"
        );
    }
}
