//! Fault injection: every switch failure mode the paper analyses.
//!
//! * **Packet black-holes** (§5.1): deterministic drops of packets matching
//!   a pattern. Type 1 matches (src IP, dst IP) pairs — modelling corrupted
//!   TCAM entries; type 2 additionally matches transport ports — modelling
//!   ECMP-related defects. Both are *silent*: the switch's visible discard
//!   counters do not move. Reloading the switch clears them.
//! * **Silent random packet drops** (§5.2): a probabilistic drop of any
//!   packet, again invisible to SNMP. Caused by fabric bit flips / linecard
//!   seating; *not* fixed by reload — the switch must be isolated and
//!   RMA'd.
//! * **FCS-style errors**: per-KB corruption probability, so bigger
//!   payloads are hit harder — the reason Pingmesh added payload probes.
//! * **Congestion drops**: probabilistic but *visible* in switch counters.
//! * **Down**: switch is off (reloading, or its podset lost power).
//!
//! Server/podset power state and switch isolation (routing removal) also
//! live here, since they are part of a scenario's fault timeline.

use pingmesh_types::{FiveTuple, PodsetId, SimDuration, SimTime, SwitchId};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashSet};

/// A single fault mode on a switch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Type-1 black-hole: packets whose (src IP, dst IP) hash falls into
    /// the corrupted fraction of the "TCAM" are dropped deterministically.
    /// `frac` is the corrupted fraction of address-pair space (0..1).
    BlackholeIp {
        /// Fraction of address-pair space affected.
        frac: f64,
    },
    /// Type-2 black-hole: like type 1 but keyed on the full five-tuple, so
    /// "Server A can talk to Server B's destination port Y using source
    /// port X, but not source port Z".
    BlackholePort {
        /// Fraction of five-tuple space affected.
        frac: f64,
    },
    /// Silent random drop of any packet with probability `prob`.
    SilentRandomDrop {
        /// Per-packet drop probability.
        prob: f64,
    },
    /// Payload-length-dependent corruption: each KB of payload is dropped
    /// with probability `per_kb_prob` (SYN-only packets are immune).
    FcsError {
        /// Per-kilobyte drop probability.
        per_kb_prob: f64,
    },
    /// Congestion drop with probability `prob`; **visible** in the
    /// switch's discard counters, unlike the silent modes.
    CongestionDrop {
        /// Per-packet drop probability.
        prob: f64,
    },
    /// Switch is down (reloading / powered off): drops everything, and the
    /// drop is attributable (a down switch is conspicuous).
    Down,
}

impl FaultKind {
    /// Whether a switch reload repairs this fault (paper: black-holes are
    /// fixed by reload; silent random drops require RMA).
    fn cleared_by_reload(&self) -> bool {
        matches!(
            self,
            FaultKind::BlackholeIp { .. } | FaultKind::BlackholePort { .. }
        )
    }
}

/// A fault with an activity window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ActiveFault {
    /// Fault mode.
    pub kind: FaultKind,
    /// Activation time.
    pub from: SimTime,
    /// Deactivation time; `None` = until repaired.
    pub until: Option<SimTime>,
}

impl ActiveFault {
    /// Whether the fault is active at `t`.
    fn active_at(&self, t: SimTime) -> bool {
        t >= self.from && self.until.is_none_or(|u| t < u)
    }
}

/// What happens to one packet at one switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Forwarded normally.
    Forward,
    /// Dropped without any trace in the switch's counters.
    DropSilent,
    /// Dropped and counted in the switch's visible discard counters.
    DropVisible,
}

/// A window during which a podset has no power (paper Fig. 8(b)).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct PodsetDownWindow {
    podset: PodsetId,
    from: SimTime,
    until: Option<SimTime>,
}

/// The deployment-wide fault state.
#[derive(Debug, Clone, Default)]
pub struct Faults {
    switch_faults: BTreeMap<SwitchId, Vec<ActiveFault>>,
    podset_down: Vec<PodsetDownWindow>,
    isolated: HashSet<SwitchId>,
}

impl Faults {
    /// No faults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs a fault on a switch.
    pub fn add_switch_fault(&mut self, sw: SwitchId, fault: ActiveFault) {
        self.switch_faults.entry(sw).or_default().push(fault);
    }

    /// Active faults on a switch at time `t`.
    pub fn faults_on(&self, sw: SwitchId, t: SimTime) -> impl Iterator<Item = &ActiveFault> {
        self.switch_faults
            .get(&sw)
            .into_iter()
            .flatten()
            .filter(move |f| f.active_at(t))
    }

    /// Simulates a switch reload at `t`: clears reload-fixable faults
    /// (black-holes) and takes the switch down for `outage`.
    pub fn reload_switch(&mut self, sw: SwitchId, t: SimTime, outage: SimDuration) {
        let list = self.switch_faults.entry(sw).or_default();
        // End black-hole faults now; keep others (silent drops survive).
        for f in list.iter_mut() {
            if f.kind.cleared_by_reload() && f.active_at(t) {
                f.until = Some(t);
            }
        }
        list.push(ActiveFault {
            kind: FaultKind::Down,
            from: t,
            until: Some(t + outage),
        });
    }

    /// Marks a switch as isolated: ECMP routes around it (it still drops
    /// whatever is addressed through it, but nothing is).
    pub fn isolate_switch(&mut self, sw: SwitchId) {
        self.isolated.insert(sw);
    }

    /// Returns an isolated switch to service.
    pub fn unisolate_switch(&mut self, sw: SwitchId) {
        self.isolated.remove(&sw);
    }

    /// Whether a switch is isolated from routing.
    pub fn is_isolated(&self, sw: SwitchId) -> bool {
        self.isolated.contains(&sw)
    }

    /// Declares a podset power-down window.
    pub fn set_podset_down(&mut self, podset: PodsetId, from: SimTime, until: Option<SimTime>) {
        self.podset_down.push(PodsetDownWindow {
            podset,
            from,
            until,
        });
    }

    /// Whether a podset is powered down at `t`.
    pub fn podset_is_down(&self, podset: PodsetId, t: SimTime) -> bool {
        self.podset_down
            .iter()
            .any(|w| w.podset == podset && t >= w.from && w.until.is_none_or(|u| t < u))
    }

    /// Per-switch salt for deterministic black-hole bucket selection, so
    /// different faulty switches black-hole different flows.
    #[inline]
    fn switch_salt(sw: SwitchId) -> u64 {
        let tier = match sw.tier {
            pingmesh_types::SwitchTier::Tor => 1u64,
            pingmesh_types::SwitchTier::Leaf => 2,
            pingmesh_types::SwitchTier::Spine => 3,
            pingmesh_types::SwitchTier::Border => 4,
        };
        (tier << 32) ^ sw.index as u64 ^ 0xD1B5_4A32_D192_ED03
    }

    #[inline]
    fn bucket(hash: u64, salt: u64) -> f64 {
        let mut z = hash ^ salt;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Deterministic part of the verdict: returns `Some(verdict)` if a
    /// deterministic fault (black-hole, down) decides the packet's fate,
    /// `None` if probabilistic faults should be consulted.
    pub fn deterministic_verdict(
        &self,
        sw: SwitchId,
        tuple: &FiveTuple,
        t: SimTime,
    ) -> Option<Verdict> {
        for f in self.faults_on(sw, t) {
            match f.kind {
                FaultKind::Down => return Some(Verdict::DropVisible),
                FaultKind::BlackholeIp { frac }
                    if Self::bucket(tuple.addr_pair_hash(), Self::switch_salt(sw)) < frac =>
                {
                    return Some(Verdict::DropSilent);
                }
                FaultKind::BlackholePort { frac }
                    if Self::bucket(tuple.ecmp_hash(), Self::switch_salt(sw)) < frac =>
                {
                    return Some(Verdict::DropSilent);
                }
                _ => {}
            }
        }
        None
    }

    /// Probabilistic drop probabilities of the active faults at `t`:
    /// `(silent_prob, visible_prob)` for a packet with `payload_bytes`.
    pub fn random_drop_probs(&self, sw: SwitchId, payload_bytes: u32, t: SimTime) -> (f64, f64) {
        let mut silent = 0.0f64;
        let mut visible = 0.0f64;
        for f in self.faults_on(sw, t) {
            match f.kind {
                FaultKind::SilentRandomDrop { prob } => silent += prob,
                FaultKind::FcsError { per_kb_prob } => {
                    let kb = (payload_bytes as f64 / 1024.0).max(0.0);
                    silent += per_kb_prob * kb;
                }
                FaultKind::CongestionDrop { prob } => visible += prob,
                _ => {}
            }
        }
        (silent.min(1.0), visible.min(1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn tuple(sp: u16) -> FiveTuple {
        FiveTuple::tcp(
            Ipv4Addr::new(10, 0, 0, 1),
            sp,
            Ipv4Addr::new(10, 0, 1, 1),
            8100,
        )
    }

    fn at(t: u64) -> SimTime {
        SimTime(t)
    }

    #[test]
    fn fault_windows() {
        let f = ActiveFault {
            kind: FaultKind::Down,
            from: at(100),
            until: Some(at(200)),
        };
        assert!(!f.active_at(at(99)));
        assert!(f.active_at(at(100)));
        assert!(f.active_at(at(199)));
        assert!(!f.active_at(at(200)));
        let open = ActiveFault {
            kind: FaultKind::Down,
            from: at(100),
            until: None,
        };
        assert!(open.active_at(at(1_000_000)));
    }

    #[test]
    fn blackhole_ip_is_deterministic_and_port_insensitive() {
        let mut faults = Faults::new();
        let sw = SwitchId::tor(3);
        faults.add_switch_fault(
            sw,
            ActiveFault {
                kind: FaultKind::BlackholeIp { frac: 0.5 },
                from: at(0),
                until: None,
            },
        );
        // All source ports of the same address pair share a fate.
        let v0 = faults.deterministic_verdict(sw, &tuple(1000), at(1));
        for sp in 1001..1100 {
            assert_eq!(faults.deterministic_verdict(sw, &tuple(sp), at(1)), v0);
        }
    }

    #[test]
    fn blackhole_port_is_port_sensitive() {
        let mut faults = Faults::new();
        let sw = SwitchId::spine(1);
        faults.add_switch_fault(
            sw,
            ActiveFault {
                kind: FaultKind::BlackholePort { frac: 0.5 },
                from: at(0),
                until: None,
            },
        );
        let verdicts: HashSet<_> = (1000..1100u16)
            .map(|sp| {
                faults
                    .deterministic_verdict(sw, &tuple(sp), at(1))
                    .is_some()
            })
            .collect();
        assert_eq!(verdicts.len(), 2, "some ports must pass, some must drop");
    }

    #[test]
    fn blackhole_fraction_controls_share_of_pairs() {
        let mut faults = Faults::new();
        let sw = SwitchId::tor(9);
        faults.add_switch_fault(
            sw,
            ActiveFault {
                kind: FaultKind::BlackholeIp { frac: 0.25 },
                from: at(0),
                until: None,
            },
        );
        let mut dropped = 0;
        let n = 4_000;
        for i in 0..n {
            let t = FiveTuple::tcp(
                Ipv4Addr::new(10, 0, (i / 256) as u8, (i % 256) as u8),
                5_000,
                Ipv4Addr::new(10, 1, 0, 1),
                8100,
            );
            if faults.deterministic_verdict(sw, &t, at(1)).is_some() {
                dropped += 1;
            }
        }
        let frac = dropped as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.05, "fraction {frac}");
    }

    #[test]
    fn reload_clears_blackholes_but_not_silent_drops() {
        let mut faults = Faults::new();
        let sw = SwitchId::tor(0);
        faults.add_switch_fault(
            sw,
            ActiveFault {
                kind: FaultKind::BlackholeIp { frac: 1.0 },
                from: at(0),
                until: None,
            },
        );
        faults.add_switch_fault(
            sw,
            ActiveFault {
                kind: FaultKind::SilentRandomDrop { prob: 0.01 },
                from: at(0),
                until: None,
            },
        );
        faults.reload_switch(sw, at(1_000), SimDuration::from_micros(500));
        // During the reload the switch is down.
        assert_eq!(
            faults.deterministic_verdict(sw, &tuple(1), at(1_200)),
            Some(Verdict::DropVisible)
        );
        // After the reload: black-hole gone, silent drop remains.
        assert_eq!(faults.deterministic_verdict(sw, &tuple(1), at(2_000)), None);
        let (silent, visible) = faults.random_drop_probs(sw, 0, at(2_000));
        assert!((silent - 0.01).abs() < 1e-12);
        assert_eq!(visible, 0.0);
    }

    #[test]
    fn fcs_scales_with_payload() {
        let mut faults = Faults::new();
        let sw = SwitchId::leaf(2);
        faults.add_switch_fault(
            sw,
            ActiveFault {
                kind: FaultKind::FcsError { per_kb_prob: 1e-3 },
                from: at(0),
                until: None,
            },
        );
        let (s0, _) = faults.random_drop_probs(sw, 0, at(1));
        let (s1, _) = faults.random_drop_probs(sw, 1024, at(1));
        let (s4, _) = faults.random_drop_probs(sw, 4096, at(1));
        assert_eq!(s0, 0.0);
        assert!((s1 - 1e-3).abs() < 1e-12);
        assert!((s4 - 4e-3).abs() < 1e-12);
    }

    #[test]
    fn congestion_is_visible() {
        let mut faults = Faults::new();
        let sw = SwitchId::leaf(0);
        faults.add_switch_fault(
            sw,
            ActiveFault {
                kind: FaultKind::CongestionDrop { prob: 0.05 },
                from: at(0),
                until: None,
            },
        );
        let (silent, visible) = faults.random_drop_probs(sw, 0, at(1));
        assert_eq!(silent, 0.0);
        assert!((visible - 0.05).abs() < 1e-12);
    }

    #[test]
    fn podset_down_windows() {
        let mut faults = Faults::new();
        faults.set_podset_down(PodsetId(2), at(100), Some(at(200)));
        assert!(!faults.podset_is_down(PodsetId(2), at(50)));
        assert!(faults.podset_is_down(PodsetId(2), at(150)));
        assert!(!faults.podset_is_down(PodsetId(2), at(250)));
        assert!(!faults.podset_is_down(PodsetId(3), at(150)));
    }

    #[test]
    fn isolation_bookkeeping() {
        let mut faults = Faults::new();
        let sw = SwitchId::spine(4);
        assert!(!faults.is_isolated(sw));
        faults.isolate_switch(sw);
        assert!(faults.is_isolated(sw));
        faults.unisolate_switch(sw);
        assert!(!faults.is_isolated(sw));
    }

    use std::collections::HashSet;
}
