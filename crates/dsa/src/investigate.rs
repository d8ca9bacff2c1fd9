//! Troubleshooting drill-down (paper §4.3).
//!
//! "If Pingmesh data shows it is indeed a network issue, we can further
//! get detailed data from Pingmesh, e.g., the scale of the problem (e.g.,
//! how many servers and applications are affected), the
//! source-destination server IP addresses and TCP port numbers, for
//! further investigation."
//!
//! [`investigate`] answers exactly that question for a scope and window:
//! how many servers/pods are affected, which concrete (IP:port → IP:port)
//! flows reproduce the problem, and which probes carried the evidence —
//! the hand-off package for the network on-call.

use crate::agg::PairKey;
use pingmesh_topology::Topology;
use pingmesh_types::counters::{classify_rtt, RttClass};
use pingmesh_types::{PairStats, ProbeOutcome, ProbeRecord, ServerId, SimDuration};
use std::borrow::Borrow;
use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;

/// A concrete flow an engineer can reproduce with external tools
/// (traceroute, packet capture): real addresses and ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuspectFlow {
    /// Probing server.
    pub src: ServerId,
    /// Probed server.
    pub dst: ServerId,
    /// Source address.
    pub src_ip: Ipv4Addr,
    /// Destination address.
    pub dst_ip: Ipv4Addr,
    /// An ephemeral source port that exhibited the problem.
    pub example_src_port: u16,
    /// The destination port probed.
    pub dst_port: u16,
}

/// The investigation package.
#[derive(Debug, Clone, Default)]
pub struct Investigation {
    /// Probes considered.
    pub probes: u64,
    /// Probes that showed a problem (drop signature or outright failure).
    pub bad_probes: u64,
    /// Servers that originated at least one bad probe.
    pub affected_sources: usize,
    /// Servers that received at least one bad probe.
    pub affected_destinations: usize,
    /// Pods containing an affected source.
    pub affected_pods: usize,
    /// The worst (src, dst) pairs with concrete flow details, sorted by
    /// descending badness.
    pub suspect_flows: Vec<(SuspectFlow, PairStats)>,
    /// The worst observed RTT among successful-but-slow probes.
    pub worst_rtt: Option<SimDuration>,
}

/// Drills into a window of records: keeps probes matching `filter` (e.g.
/// a DC, service, or pair restriction) and summarizes the problem's scale
/// plus the concrete flows that reproduce it.
pub fn investigate(
    records: impl IntoIterator<Item = impl Borrow<ProbeRecord>>,
    topo: &Topology,
    max_flows: usize,
    filter: impl Fn(&ProbeRecord) -> bool,
) -> Investigation {
    let mut inv = Investigation::default();
    let mut pair_stats: HashMap<PairKey, PairStats> = HashMap::new();
    let mut example_port: HashMap<PairKey, (u16, u16)> = HashMap::new();
    let mut bad_src: HashSet<ServerId> = HashSet::new();
    let mut bad_dst: HashSet<ServerId> = HashSet::new();

    for r in records {
        let r = r.borrow();
        if !filter(r) {
            continue;
        }
        inv.probes += 1;
        let key = PairKey {
            src: r.src,
            dst: r.dst,
        };
        let stats = pair_stats.entry(key).or_default();
        let bad = match r.outcome {
            ProbeOutcome::Success { rtt } => match classify_rtt(rtt) {
                RttClass::Normal => {
                    stats.ok += 1;
                    if rtt >= SimDuration::from_millis(5) {
                        inv.worst_rtt = Some(inv.worst_rtt.map_or(rtt, |w| w.max(rtt)));
                    }
                    false
                }
                RttClass::OneDrop => {
                    stats.rtt_3s += 1;
                    true
                }
                RttClass::TwoDrops => {
                    stats.rtt_9s += 1;
                    true
                }
            },
            ProbeOutcome::Timeout | ProbeOutcome::Refused => {
                stats.failed += 1;
                true
            }
        };
        if bad {
            inv.bad_probes += 1;
            bad_src.insert(r.src);
            bad_dst.insert(r.dst);
            // Remember a concrete port pair that exhibited the problem.
            example_port.entry(key).or_insert((r.src_port, r.dst_port));
        }
    }

    inv.affected_sources = bad_src.len();
    inv.affected_destinations = bad_dst.len();
    inv.affected_pods = bad_src
        .iter()
        .map(|&s| topo.server(s).pod)
        .collect::<HashSet<_>>()
        .len();

    let mut flows: Vec<(SuspectFlow, PairStats)> = pair_stats
        .into_iter()
        .filter_map(|(key, stats)| {
            let &(sp, dp) = example_port.get(&key)?;
            Some((
                SuspectFlow {
                    src: key.src,
                    dst: key.dst,
                    src_ip: topo.ip_of(key.src),
                    dst_ip: topo.ip_of(key.dst),
                    example_src_port: sp,
                    dst_port: dp,
                },
                stats,
            ))
        })
        .collect();
    flows.sort_by(|a, b| {
        let badness = |s: &PairStats| s.failed + s.rtt_3s + s.rtt_9s;
        badness(&b.1)
            .cmp(&badness(&a.1))
            .then_with(|| (a.0.src, a.0.dst).cmp(&(b.0.src, b.0.dst)))
    });
    flows.truncate(max_flows);
    inv.suspect_flows = flows;
    inv
}

#[cfg(test)]
mod tests {
    use super::*;
    use pingmesh_topology::TopologySpec;
    use pingmesh_types::{ProbeKind, QosClass, SimTime};

    fn topo() -> Topology {
        Topology::build(TopologySpec::single_tiny()).unwrap()
    }

    fn rec(topo: &Topology, src: u32, dst: u32, port: u16, outcome: ProbeOutcome) -> ProbeRecord {
        let s = topo.server(ServerId(src));
        let d = topo.server(ServerId(dst));
        ProbeRecord {
            ts: SimTime(0),
            src: ServerId(src),
            dst: ServerId(dst),
            src_pod: s.pod,
            dst_pod: d.pod,
            src_podset: s.podset,
            dst_podset: d.podset,
            src_dc: s.dc,
            dst_dc: d.dc,
            kind: ProbeKind::TcpSyn,
            qos: QosClass::High,
            src_port: port,
            dst_port: 8_100,
            outcome,
        }
    }

    fn ok(us: u64) -> ProbeOutcome {
        ProbeOutcome::Success {
            rtt: SimDuration::from_micros(us),
        }
    }

    #[test]
    fn drill_down_names_flows_and_scale() {
        let t = topo();
        let mut records = Vec::new();
        // Healthy traffic.
        for i in 0..100u16 {
            records.push(rec(&t, 0, 1, 40_000 + i, ok(250)));
        }
        // A problem pair: deterministic failures from srv2 to srv9.
        for i in 0..10u16 {
            records.push(rec(&t, 2, 9, 41_000 + i, ProbeOutcome::Timeout));
        }
        // A drop-signature pair from srv3.
        records.push(rec(&t, 3, 9, 42_000, ok(3_000_250)));

        let inv = investigate(&records, &t, 8, |_| true);
        assert_eq!(inv.probes, 111);
        assert_eq!(inv.bad_probes, 11);
        assert_eq!(inv.affected_sources, 2);
        assert_eq!(inv.affected_destinations, 1);
        // Worst pair first, with reproducible flow details.
        let (flow, stats) = &inv.suspect_flows[0];
        assert_eq!(flow.src, ServerId(2));
        assert_eq!(flow.dst, ServerId(9));
        assert_eq!(flow.src_ip, t.ip_of(ServerId(2)));
        assert_eq!(flow.example_src_port, 41_000);
        assert_eq!(flow.dst_port, 8_100);
        assert_eq!(stats.failed, 10);
    }

    #[test]
    fn chunked_drill_down_matches_contiguous() {
        let t = topo();
        let mut records = Vec::new();
        for i in 0..10u16 {
            records.push(rec(&t, 2, 9, 41_000 + i, ProbeOutcome::Timeout));
        }
        for i in 0..20u16 {
            records.push(rec(&t, 0, 1, 40_000 + i, ok(250)));
        }
        let whole = investigate(&records, &t, 8, |_| true);
        // Extents of 7 records: the scan yields several chunks, each one
        // extent expanded as it is read, and the drill-down reads the
        // records one at a time.
        let mut store = crate::CosmosStore::new(7, 1);
        let stream = crate::StreamName {
            dc: t.server(ServerId(0)).dc,
        };
        store.append(stream, &records, SimTime(0));
        let chunks = store.scan_all_window_chunks(SimTime(0), SimTime(1));
        assert!(chunks.len() > 1);
        assert!(chunks.iter().all(|c| c.len() <= 7));
        let chunked = investigate(chunks.records(), &t, 8, |_| true);
        assert_eq!(chunked.probes, whole.probes);
        assert_eq!(chunked.bad_probes, whole.bad_probes);
        assert_eq!(chunked.affected_sources, whole.affected_sources);
        assert_eq!(chunked.suspect_flows, whole.suspect_flows);
    }

    #[test]
    fn filter_scopes_the_investigation() {
        let t = topo();
        let records = vec![
            rec(&t, 0, 1, 40_000, ProbeOutcome::Timeout),
            rec(&t, 5, 9, 41_000, ProbeOutcome::Timeout),
        ];
        // Only look at probes from server 0.
        let inv = investigate(&records, &t, 8, |r| r.src == ServerId(0));
        assert_eq!(inv.probes, 1);
        assert_eq!(inv.suspect_flows.len(), 1);
        assert_eq!(inv.suspect_flows[0].0.src, ServerId(0));
    }

    #[test]
    fn healthy_window_has_no_suspects() {
        let t = topo();
        let records: Vec<ProbeRecord> = (0..50u16)
            .map(|i| rec(&t, 0, 1, 40_000 + i, ok(300)))
            .collect();
        let inv = investigate(&records, &t, 8, |_| true);
        assert_eq!(inv.bad_probes, 0);
        assert!(inv.suspect_flows.is_empty());
        assert_eq!(inv.affected_pods, 0);
    }

    #[test]
    fn max_flows_caps_the_handoff_list() {
        let t = topo();
        let mut records = Vec::new();
        for dst in 1..20u32 {
            records.push(rec(&t, 0, dst % 32, 40_000, ProbeOutcome::Timeout));
        }
        let inv = investigate(&records, &t, 5, |_| true);
        assert_eq!(inv.suspect_flows.len(), 5);
    }
}
