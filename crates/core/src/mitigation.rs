//! Simulation-side actuation for the controller's mitigation engine.
//!
//! The engine (`pingmesh_controller::mitigate`) is a pure state machine;
//! this module supplies what the orchestrator needs to drive it against
//! the simulated fabric:
//!
//! * [`MitDevice`] — the drainable-device id: a switch (taken out of
//!   ECMP via the route tables' exclusion support) or a whole podset
//!   (taken out of pinglist generation after a power-down);
//! * tier bookkeeping ([`MitDevice::tier`]) — the engine's "never
//!   drain >N% of a tier" guard needs each device's tier key and tier
//!   population, both DC-scoped (draining a quarter of *this* DC's
//!   spines, not of the world's);
//! * the verification planner — deterministic enumeration of confirmation
//!   probes whose ECMP path traverses a specific switch, used to prove a
//!   drained device healthy before it is returned to service.

use pingmesh_topology::Topology;
use pingmesh_types::{PodsetId, ServerId, SwitchId, SwitchTier};

/// A device the mitigation engine can drain in the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MitDevice {
    /// A fabric switch, drained via route-table ECMP exclusion.
    Switch(SwitchId),
    /// A whole podset (power-down), drained out of pinglist generation.
    Podset(PodsetId),
}

impl std::fmt::Display for MitDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MitDevice::Switch(s) => write!(f, "{s}"),
            MitDevice::Podset(p) => write!(f, "{p}"),
        }
    }
}

impl MitDevice {
    /// The engine's tier key and tier population for this device. The
    /// key is tier × DC (podsets are their own class), so budgets are
    /// scoped to one data center's population of that tier.
    pub fn tier(self, topo: &Topology) -> (u32, usize) {
        match self {
            MitDevice::Switch(sw) => {
                let Some(dc) = topo.dc_of_switch(sw) else {
                    return (sw.tier as u32, 0);
                };
                let size = match sw.tier {
                    SwitchTier::Tor => topo.pods_in_dc(dc).count(),
                    SwitchTier::Leaf => topo
                        .podsets_in_dc(dc)
                        .map(|ps| topo.leaf_slice_of_podset(ps).len())
                        .sum(),
                    SwitchTier::Spine => topo.spine_slice_of_dc(dc).len(),
                    SwitchTier::Border => topo.borders_of_dc(dc).count(),
                };
                (dc.0 * 8 + sw.tier as u32, size)
            }
            MitDevice::Podset(ps) => {
                let dc = topo.podset(ps).dc;
                (dc.0 * 8 + 4, topo.podsets_in_dc(dc).count())
            }
        }
    }
}

/// A planned confirmation probe: the (src, dst, src_port) of a flow
/// whose current ECMP path traverses the switch under verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedProbe {
    /// Probing server.
    pub src: ServerId,
    /// Destination server.
    pub dst: ServerId,
    /// Source port (chosen so the five-tuple hashes through the device).
    pub src_port: u16,
}

/// Destination port of confirmation probes (the agents' TCP listen port).
pub const VERIFY_DST_PORT: u16 = 8_100;
/// Source-port base of confirmation probes — outside the ranges agents
/// and traceroute campaigns use, so the keyed RNG streams never collide.
pub const VERIFY_PORT_BASE: u16 = 33_000;

/// Plans up to `want` confirmation probes through `sw`, walking a
/// deterministic enumeration of cross-pod server pairs in the switch's
/// DC and port-hunting each pair until the resolved path traverses the
/// switch. `resolve` must report the path the fabric would use *with the
/// switch back in service* — verification runs with the exclusion lifted.
///
/// The enumeration is pure topology + the resolver, so every shard
/// layout plans the identical probe set.
pub fn plan_switch_verification<F, I>(
    topo: &Topology,
    sw: SwitchId,
    want: usize,
    max_tries: usize,
    resolve: F,
) -> Vec<PlannedProbe>
where
    F: Fn(ServerId, ServerId, u16) -> I,
    I: IntoIterator<Item = SwitchId>,
{
    let Some(dc) = topo.dc_of_switch(sw) else {
        return Vec::new();
    };
    let mut plan = Vec::new();
    let mut tries = 0usize;
    let pods: Vec<_> = topo.pods_in_dc(dc).collect();
    'outer: for (pi, &pod) in pods.iter().enumerate() {
        for src in topo.servers_in_pod(pod) {
            // A couple of cross-pod peers per source, pinglist-style:
            // the same-index server of the next pods over.
            let idx = topo.server(src).index_in_pod;
            for step in 1..=2usize {
                let peer_pod = pods[(pi + step) % pods.len()];
                if peer_pod == pod {
                    continue;
                }
                let Some(dst) = topo.nth_server_of_pod(peer_pod, idx) else {
                    continue;
                };
                // Port-hunt: ECMP hashes the five-tuple, so varying the
                // source port walks the path set.
                for p in 0..8u16 {
                    if tries >= max_tries || plan.len() >= want {
                        break 'outer;
                    }
                    tries += 1;
                    let src_port = VERIFY_PORT_BASE + (plan.len() as u16) * 64 + p;
                    if resolve(src, dst, src_port).into_iter().any(|s| s == sw) {
                        plan.push(PlannedProbe { src, dst, src_port });
                        break;
                    }
                }
            }
        }
    }
    plan
}

/// Plans confirmation probes into a podset after a power-down: a healthy
/// source in each *other* podset of the DC probes the same-index servers
/// of the dark podset. Success means power is back.
pub fn plan_podset_verification(topo: &Topology, ps: PodsetId, want: usize) -> Vec<PlannedProbe> {
    let dc = topo.podset(ps).dc;
    let srcs: Vec<ServerId> = topo
        .podsets_in_dc(dc)
        .filter(|&other| other != ps)
        .filter_map(|other| {
            topo.pods_in_podset(other)
                .next()
                .and_then(|pod| topo.servers_in_pod(pod).next())
        })
        .collect();
    if srcs.is_empty() {
        return Vec::new();
    }
    let mut plan = Vec::new();
    for (i, pod) in topo.pods_in_podset(ps).enumerate() {
        for dst in topo.servers_in_pod(pod) {
            if plan.len() >= want {
                return plan;
            }
            plan.push(PlannedProbe {
                src: srcs[i % srcs.len()],
                dst,
                src_port: VERIFY_PORT_BASE + 1_000 + plan.len() as u16,
            });
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use pingmesh_topology::TopologySpec;

    fn topo() -> Topology {
        Topology::build(TopologySpec::single_tiny()).unwrap()
    }

    #[test]
    fn tier_keys_and_sizes_are_dc_scoped() {
        let t = topo();
        let spine = t.spines_of_dc(pingmesh_types::DcId(0)).next().unwrap();
        let leaf = t.leaves_of_podset(PodsetId(0)).next().unwrap();
        let (spine_key, spine_size) = MitDevice::Switch(spine).tier(&t);
        let (leaf_key, leaf_size) = MitDevice::Switch(leaf).tier(&t);
        let (podset_key, podset_size) = MitDevice::Podset(PodsetId(0)).tier(&t);
        assert_ne!(spine_key, leaf_key);
        assert_eq!(
            spine_size,
            t.spine_slice_of_dc(pingmesh_types::DcId(0)).len()
        );
        assert!(leaf_size > 0);
        assert_eq!(podset_size, 2);
        assert_ne!(podset_key, spine_key);
    }

    #[test]
    fn switch_plan_is_deterministic_and_respects_resolver() {
        let t = topo();
        let leaf = t.leaves_of_podset(PodsetId(0)).next().unwrap();
        // A resolver that routes every flow through the leaf.
        let all = |_s: ServerId, _d: ServerId, _p: u16| vec![leaf];
        let plan1 = plan_switch_verification(&t, leaf, 6, 256, all);
        let plan2 = plan_switch_verification(&t, leaf, 6, 256, all);
        assert_eq!(plan1, plan2);
        assert_eq!(plan1.len(), 6);
        // A resolver that never traverses it plans nothing.
        let none = |_s: ServerId, _d: ServerId, _p: u16| Vec::<SwitchId>::new();
        assert!(plan_switch_verification(&t, leaf, 6, 256, none).is_empty());
    }

    #[test]
    fn podset_plan_probes_from_outside_in() {
        let t = topo();
        let plan = plan_podset_verification(&t, PodsetId(0), 8);
        assert!(!plan.is_empty() && plan.len() <= 8);
        for p in &plan {
            assert_ne!(t.server(p.src).podset, PodsetId(0), "src must be outside");
            assert_eq!(t.server(p.dst).podset, PodsetId(0), "dst must be inside");
        }
    }
}
