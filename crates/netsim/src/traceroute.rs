//! Simulated TCP traceroute, the localization companion tool of §5.2.
//!
//! Pingmesh can tell *which tier* misbehaves but not which device; the
//! paper closes the gap with TCP traceroute: "by using Pingmesh, we could
//! figure out several source and destination pairs that experienced around
//! 1%-2% random packet drops. We then launched TCP traceroute against
//! those pairs, and finally pinpointed one Spine switch."
//!
//! The tool sends, per flow (fresh ephemeral source port → fresh ECMP
//! path), a burst of TTL-limited packets at every hop depth. A packet that
//! survives hops `1..k` elicits a TTL-expired reply from hop `k`; losing
//! replies at depth `k` while depth `k-1` answers implicates switch `k`.
//! Per-switch loss ratios across many flows localize the faulty device.

use crate::net::{CounterDelta, NetState};
use pingmesh_types::{FiveTuple, ServerId, SimTime, SwitchId};
use std::collections::BTreeMap;

/// Loss accounting for one switch across a traceroute run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HopLoss {
    /// TTL-limited packets whose fate this switch decided (they survived
    /// every switch before it).
    pub sent: u64,
    /// How many of those were lost at this switch.
    pub lost: u64,
}

impl HopLoss {
    /// Loss ratio at this switch.
    fn loss_rate(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            self.lost as f64 / self.sent as f64
        }
    }
}

/// Aggregated result of a traceroute campaign against one or more pairs.
#[derive(Debug, Clone, Default)]
pub struct TracerouteReport {
    /// Per-switch loss attribution.
    pub per_switch: BTreeMap<SwitchId, HopLoss>,
    /// Number of (flow) paths explored.
    pub flows: usize,
}

impl TracerouteReport {
    /// Merges another report into this one.
    pub fn merge(&mut self, other: &TracerouteReport) {
        for (sw, l) in &other.per_switch {
            let e = self.per_switch.entry(*sw).or_default();
            e.sent += l.sent;
            e.lost += l.lost;
        }
        self.flows += other.flows;
    }

    /// Switches whose attributed loss rate is at least `min_rate`, sorted
    /// by descending loss rate. This is the localizer's suspect list.
    pub fn suspects(&self, min_rate: f64, min_sent: u64) -> Vec<(SwitchId, f64)> {
        let mut v: Vec<(SwitchId, f64)> = self
            .per_switch
            .iter()
            .filter(|(_, l)| l.sent >= min_sent && l.loss_rate() >= min_rate)
            .map(|(sw, l)| (*sw, l.loss_rate()))
            .collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v
    }
}

/// Salt XOR-ed into the run seed before a flow's RNG is keyed, so a
/// traceroute flow never shares a stream with a probe of the same
/// five-tuple and launch time.
const TRACEROUTE_SALT: u64 = 0x7472_6163_6572_7465;

/// Runs a TCP traceroute campaign from `src` to `dst` at virtual time `t`.
///
/// * `flows` — number of distinct ephemeral source ports (ECMP paths).
/// * `probes_per_hop` — TTL-limited packets per hop depth per flow.
/// * `base_port` — first ephemeral port to use (caller varies it across
///   campaigns to explore different paths).
///
/// Each flow's packets draw from one RNG keyed on `(seed, flow
/// five-tuple, t)` (see [`NetState::keyed_rng`]), so the report is a pure
/// function of the network state and the arguments: no earlier campaign
/// or probe changes it. Discards are recorded in `counters` (forwarding
/// is not counted; traceroute volume is negligible).
#[allow(clippy::too_many_arguments)]
pub fn tcp_traceroute(
    net: &NetState,
    seed: u64,
    counters: &mut CounterDelta,
    src: ServerId,
    dst: ServerId,
    flows: u16,
    probes_per_hop: u32,
    base_port: u16,
    t: SimTime,
) -> TracerouteReport {
    let mut report = TracerouteReport::default();
    let topo = net.topology();
    let dst_port = 8_100u16;
    for f in 0..flows {
        let src_port = base_port.wrapping_add(f);
        let tuple = FiveTuple::tcp(topo.ip_of(src), src_port, topo.ip_of(dst), dst_port);
        let mut rng = NetState::keyed_rng(seed ^ TRACEROUTE_SALT, &tuple, t);
        let path = net.path_of(src, dst, &tuple);
        let switches: Vec<SwitchId> = path.switches().collect();
        report.flows += 1;
        for depth in 0..switches.len() {
            for _ in 0..probes_per_hop {
                // The packet must survive all switches before `depth`;
                // the switch at `depth` then decides its fate.
                let alive = switches
                    .iter()
                    .take(depth)
                    .all(|&sw| net.hop_survives(&mut rng, counters, sw, &tuple, 0, t));
                if !alive {
                    // Lost before reaching the measured hop; attributed to
                    // an earlier depth in that iteration — nothing to
                    // record at this one.
                    continue;
                }
                let decided_by = switches[depth];
                let e = report.per_switch.entry(decided_by).or_default();
                e.sent += 1;
                if !net.hop_survives(&mut rng, counters, decided_by, &tuple, 0, t) {
                    e.lost += 1;
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{ActiveFault, FaultKind};
    use crate::latency::DcProfile;
    use crate::net::SimNet;
    use pingmesh_topology::{DcSpec, Topology, TopologySpec};
    use pingmesh_types::{DcId, PodId, SwitchTier};
    use std::sync::Arc;

    fn net() -> SimNet {
        let topo = Arc::new(
            Topology::build(TopologySpec {
                dcs: vec![DcSpec::tiny("t")],
            })
            .unwrap(),
        );
        SimNet::new(topo, vec![DcProfile::ideal()], 7)
    }

    /// Runs one campaign at time 0 against `n`'s state and folds its
    /// counter delta back in.
    fn trace(
        n: &mut SimNet,
        src: ServerId,
        dst: ServerId,
        flows: u16,
        probes_per_hop: u32,
        base_port: u16,
    ) -> TracerouteReport {
        let mut delta = CounterDelta::new();
        let r = tcp_traceroute(
            n.state(),
            n.run_seed(),
            &mut delta,
            src,
            dst,
            flows,
            probes_per_hop,
            base_port,
            SimTime(0),
        );
        n.merge_counters(&delta);
        r
    }

    fn cross_podset_pair(net: &SimNet) -> (ServerId, ServerId) {
        let t = net.topology();
        (
            t.servers_in_pod(PodId(0)).next().unwrap(),
            t.servers_in_pod(PodId(4)).next().unwrap(),
        )
    }

    #[test]
    fn clean_network_attributes_no_loss() {
        let mut n = net();
        let (a, b) = cross_podset_pair(&n);
        let r = trace(&mut n, a, b, 16, 10, 30_000);
        assert_eq!(r.flows, 16);
        assert!(r.suspects(0.01, 1).is_empty());
        // Every attributed switch saw traffic.
        assert!(r.per_switch.values().all(|l| l.sent > 0 && l.lost == 0));
    }

    #[test]
    fn localizes_a_silently_dropping_spine() {
        let mut n = net();
        let (a, b) = cross_podset_pair(&n);
        let bad_spine = n.topology().spines_of_dc(DcId(0)).nth(1).unwrap();
        n.faults_mut().add_switch_fault(
            bad_spine,
            ActiveFault {
                kind: FaultKind::SilentRandomDrop { prob: 0.3 },
                from: SimTime(0),
                until: None,
            },
        );
        let r = trace(&mut n, a, b, 64, 20, 30_000);
        let suspects = r.suspects(0.1, 20);
        assert!(
            !suspects.is_empty(),
            "the bad spine must show up as a suspect"
        );
        assert_eq!(
            suspects[0].0, bad_spine,
            "top suspect must be the bad spine"
        );
        // No other switch should exceed the threshold.
        assert!(suspects.iter().skip(1).all(|(sw, _)| *sw == bad_spine));
    }

    #[test]
    fn merge_accumulates() {
        let mut n = net();
        let (a, b) = cross_podset_pair(&n);
        let r1 = trace(&mut n, a, b, 8, 5, 30_000);
        let r2 = trace(&mut n, a, b, 8, 5, 31_000);
        let mut merged = TracerouteReport::default();
        merged.merge(&r1);
        merged.merge(&r2);
        assert_eq!(merged.flows, 16);
        let total_sent: u64 = merged.per_switch.values().map(|l| l.sent).sum();
        let s1: u64 = r1.per_switch.values().map(|l| l.sent).sum();
        let s2: u64 = r2.per_switch.values().map(|l| l.sent).sum();
        assert_eq!(total_sent, s1 + s2);
    }

    #[test]
    fn deep_hops_see_fewer_probes_than_shallow_when_loss_is_early() {
        let mut n = net();
        let (a, b) = cross_podset_pair(&n);
        // Heavy loss at the source ToR starves deeper hops of probes.
        let tor_a = n.topology().tor_of_pod(n.topology().server(a).pod);
        n.faults_mut().add_switch_fault(
            tor_a,
            ActiveFault {
                kind: FaultKind::SilentRandomDrop { prob: 0.5 },
                from: SimTime(0),
                until: None,
            },
        );
        let r = trace(&mut n, a, b, 32, 10, 30_000);
        let tor_loss = r.per_switch[&tor_a];
        assert!(tor_loss.loss_rate() > 0.3);
        let spine_sent: u64 = r
            .per_switch
            .iter()
            .filter(|(sw, _)| sw.tier == SwitchTier::Spine)
            .map(|(_, l)| l.sent)
            .sum();
        assert!(
            spine_sent < tor_loss.sent,
            "downstream hops must see fewer probes"
        );
        // And the suspect list still ranks the ToR first.
        assert_eq!(r.suspects(0.1, 10)[0].0, tor_a);
    }

    #[test]
    fn a_campaign_does_not_depend_on_what_ran_before_it() {
        // A silently dropping spine makes every campaign draw randomness.
        let mut n = net();
        let spine = n.topology().spines_of_dc(DcId(0)).nth(1).unwrap();
        n.faults_mut().add_switch_fault(
            spine,
            ActiveFault {
                kind: FaultKind::SilentRandomDrop { prob: 0.3 },
                from: SimTime(0),
                until: None,
            },
        );
        let t = n.topology().clone();
        let first = |pod| t.servers_in_pod(PodId(pod)).next().unwrap();
        let (a, b, c, d) = (first(0), first(4), first(1), first(5));
        let campaign_a = |n: &mut SimNet| {
            let r = trace(n, a, b, 32, 10, 20_000);
            (r.per_switch, r.flows)
        };
        let campaign_b = |n: &mut SimNet| trace(n, c, d, 32, 10, 21_000);

        // A then B.
        let a1 = campaign_a(&mut n);
        campaign_b(&mut n);
        // B then A.
        campaign_b(&mut n);
        let a2 = campaign_a(&mut n);
        // A then B again, with a probe in between.
        let a3 = campaign_a(&mut n);
        let mut delta = CounterDelta::new();
        n.state().probe_keyed(
            n.run_seed(),
            &mut delta,
            a,
            t.ip_of(b),
            20_000,
            8_100,
            pingmesh_types::ProbeKind::TcpSyn,
            pingmesh_types::QosClass::High,
            SimTime(0),
        );
        n.merge_counters(&delta);
        campaign_b(&mut n);
        // And once more after all of that.
        let a4 = campaign_a(&mut n);

        assert!(
            a1.0[&spine].lost > 0,
            "the campaign must see the spine's drops"
        );
        assert_eq!(a1, a2, "B before A changed A's report");
        assert_eq!(a1, a3, "earlier campaigns changed A's report");
        assert_eq!(a1, a4, "a probe and B before A changed A's report");
    }
}
