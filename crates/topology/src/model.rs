//! The materialized topology: entity tables, containment, IP assignment.
//!
//! Built once from a [`crate::TopologySpec`]; afterwards all lookups are
//! O(1) array indexing. Entities are numbered globally and contiguously
//! (all of DC0's pods, then DC1's, …) so that ranges describe containment.

use crate::spec::TopologySpec;
use pingmesh_types::{DcId, PingmeshError, PodId, PodsetId, ServerId, SwitchId, SwitchTier};
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;
use std::ops::Range;

/// Per-server placement record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServerInfo {
    /// Pod (= ToR) the server lives under.
    pub pod: PodId,
    /// Podset containing that pod.
    pub podset: PodsetId,
    /// Data center.
    pub dc: DcId,
    /// Assigned IPv4 address.
    pub ip: Ipv4Addr,
    /// Index of the server under its ToR (0-based). The intra-DC pinglist
    /// rule "server *i* in ToRx pings server *i* in ToRy" keys on this.
    pub index_in_pod: u32,
}

/// Per-pod record.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PodInfo {
    /// Podset containing this pod.
    pub podset: PodsetId,
    /// Data center.
    pub dc: DcId,
    /// Servers in this pod (global ids, contiguous).
    pub servers: Range<u32>,
}

/// Per-podset record.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PodsetInfo {
    /// Data center.
    pub dc: DcId,
    /// Pods in this podset (global ids, contiguous).
    pub pods: Range<u32>,
    /// Leaf switches of this podset (global leaf indices, contiguous).
    pub leaves: Range<u32>,
}

/// Per-DC record.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DcInfo {
    /// Human-readable name from the spec.
    pub name: String,
    /// Podsets in this DC (global ids, contiguous).
    pub podsets: Range<u32>,
    /// Pods in this DC.
    pub pods: Range<u32>,
    /// Servers in this DC.
    pub servers: Range<u32>,
    /// Spine switches (global spine indices, contiguous).
    pub spines: Range<u32>,
    /// Border routers (global border indices, contiguous).
    pub borders: Range<u32>,
}

/// Precomputed per-tier switch-id tables backing the ECMP hot path.
///
/// The resolver needs "the leaves of podset X" / "the spines of DC Y" on
/// every single probe; materializing each tier's `SwitchId`s once at build
/// time lets those queries return immutable slices (entities are numbered
/// contiguously, so a scope is always a subrange) instead of collecting an
/// iterator per call.
#[derive(Debug, Clone, Default)]
pub struct RouteTables {
    /// All leaf switch ids, in global leaf-index order.
    leaves: Vec<SwitchId>,
    /// All spine switch ids, in global spine-index order.
    spines: Vec<SwitchId>,
    /// All border router ids, in global border-index order.
    borders: Vec<SwitchId>,
}

impl RouteTables {
    fn build(leaf_count: usize, spine_count: usize, border_count: usize) -> Self {
        Self {
            leaves: (0..leaf_count as u32).map(SwitchId::leaf).collect(),
            spines: (0..spine_count as u32).map(SwitchId::spine).collect(),
            borders: (0..border_count as u32).map(SwitchId::border).collect(),
        }
    }
}

/// The materialized deployment topology.
#[derive(Debug, Clone)]
pub struct Topology {
    spec: TopologySpec,
    dcs: Vec<DcInfo>,
    podsets: Vec<PodsetInfo>,
    pods: Vec<PodInfo>,
    servers: Vec<ServerInfo>,
    /// Podset owning each leaf (global leaf index → podset).
    leaf_podset: Vec<PodsetId>,
    /// DC owning each spine (global spine index → dc).
    spine_dc: Vec<DcId>,
    /// DC owning each border (global border index → dc).
    border_dc: Vec<DcId>,
    /// Materialized switch-id tables for allocation-free scope queries.
    routes: RouteTables,
}

impl Topology {
    /// Materializes a validated spec.
    pub fn build(spec: TopologySpec) -> Result<Self, PingmeshError> {
        let spec = spec.validate()?;
        let mut dcs = Vec::with_capacity(spec.dcs.len());
        let mut podsets = Vec::new();
        let mut pods = Vec::new();
        let mut servers = Vec::new();
        let mut leaf_podset = Vec::new();
        let mut spine_dc = Vec::new();
        let mut border_dc = Vec::new();

        for (dci, d) in spec.dcs.iter().enumerate() {
            let dc = DcId(dci as u32);
            let podset_lo = podsets.len() as u32;
            let pod_lo = pods.len() as u32;
            let server_lo = servers.len() as u32;
            let spine_lo = spine_dc.len() as u32;
            let border_lo = border_dc.len() as u32;
            let mut server_in_dc: u16 = 0;

            for _ in 0..d.podsets {
                let podset = PodsetId(podsets.len() as u32);
                let ps_pod_lo = pods.len() as u32;
                let leaf_lo = leaf_podset.len() as u32;
                for _ in 0..d.leaves_per_podset {
                    leaf_podset.push(podset);
                }
                for _ in 0..d.pods_per_podset {
                    let pod = PodId(pods.len() as u32);
                    let pod_server_lo = servers.len() as u32;
                    for idx_in_pod in 0..d.servers_per_pod {
                        let [hi, lo] = server_in_dc.to_be_bytes();
                        let ip = Ipv4Addr::new(10, dci as u8, hi, lo);
                        servers.push(ServerInfo {
                            pod,
                            podset,
                            dc,
                            ip,
                            index_in_pod: idx_in_pod,
                        });
                        server_in_dc += 1;
                    }
                    pods.push(PodInfo {
                        podset,
                        dc,
                        servers: pod_server_lo..servers.len() as u32,
                    });
                }
                podsets.push(PodsetInfo {
                    dc,
                    pods: ps_pod_lo..pods.len() as u32,
                    leaves: leaf_lo..leaf_podset.len() as u32,
                });
            }
            for _ in 0..d.spines {
                spine_dc.push(dc);
            }
            for _ in 0..d.borders {
                border_dc.push(dc);
            }
            dcs.push(DcInfo {
                name: d.name.clone(),
                podsets: podset_lo..podsets.len() as u32,
                pods: pod_lo..pods.len() as u32,
                servers: server_lo..servers.len() as u32,
                spines: spine_lo..spine_dc.len() as u32,
                borders: border_lo..border_dc.len() as u32,
            });
        }

        pingmesh_obs::registry()
            .counter("pingmesh_topology_builds_total")
            .inc();
        pingmesh_obs::emit!(Info, "topology.model", "topology_built",
            "dcs" => dcs.len() as u64,
            "podsets" => podsets.len() as u64,
            "pods" => pods.len() as u64,
            "servers" => servers.len() as u64,
        );
        let routes = RouteTables::build(leaf_podset.len(), spine_dc.len(), border_dc.len());
        Ok(Self {
            spec,
            dcs,
            podsets,
            pods,
            servers,
            leaf_podset,
            spine_dc,
            border_dc,
            routes,
        })
    }

    /// The spec this topology was built from.
    pub fn spec(&self) -> &TopologySpec {
        &self.spec
    }

    /// Number of data centers.
    pub fn dc_count(&self) -> usize {
        self.dcs.len()
    }

    /// Number of servers in the deployment.
    pub fn server_count(&self) -> usize {
        self.servers.len()
    }

    /// Number of pods (= ToR switches) in the deployment.
    pub fn pod_count(&self) -> usize {
        self.pods.len()
    }

    /// Number of podsets in the deployment.
    pub fn podset_count(&self) -> usize {
        self.podsets.len()
    }

    /// All server ids.
    pub fn servers(&self) -> impl Iterator<Item = ServerId> + '_ {
        (0..self.servers.len() as u32).map(ServerId)
    }

    /// Placement record of a server.
    pub fn server(&self, id: ServerId) -> &ServerInfo {
        &self.servers[id.index()]
    }

    /// Pod record.
    pub fn pod(&self, id: PodId) -> &PodInfo {
        &self.pods[id.index()]
    }

    /// Podset record.
    pub fn podset(&self, id: PodsetId) -> &PodsetInfo {
        &self.podsets[id.index()]
    }

    /// DC record.
    pub fn dc(&self, id: DcId) -> &DcInfo {
        &self.dcs[id.index()]
    }

    /// All DC ids.
    pub fn dcs(&self) -> impl Iterator<Item = DcId> + '_ {
        (0..self.dcs.len() as u32).map(DcId)
    }

    /// Servers under a pod, in index-in-pod order.
    pub fn servers_in_pod(&self, pod: PodId) -> impl Iterator<Item = ServerId> + '_ {
        self.pods[pod.index()].servers.clone().map(ServerId)
    }

    /// The `i`-th server under a pod, if it exists.
    pub fn nth_server_of_pod(&self, pod: PodId, i: u32) -> Option<ServerId> {
        let r = &self.pods[pod.index()].servers;
        let id = r.start.checked_add(i)?;
        (id < r.end).then_some(ServerId(id))
    }

    /// Pods of a podset.
    pub fn pods_in_podset(&self, podset: PodsetId) -> impl Iterator<Item = PodId> + '_ {
        self.podsets[podset.index()].pods.clone().map(PodId)
    }

    /// Podsets of a DC.
    pub fn podsets_in_dc(&self, dc: DcId) -> impl Iterator<Item = PodsetId> + '_ {
        self.dcs[dc.index()].podsets.clone().map(PodsetId)
    }

    /// Pods of a DC.
    pub fn pods_in_dc(&self, dc: DcId) -> impl Iterator<Item = PodId> + '_ {
        self.dcs[dc.index()].pods.clone().map(PodId)
    }

    /// Servers of a DC.
    pub fn servers_in_dc(&self, dc: DcId) -> impl Iterator<Item = ServerId> + '_ {
        self.dcs[dc.index()].servers.clone().map(ServerId)
    }

    /// The ToR switch of a pod. Pods and ToRs are 1:1; the ToR shares the
    /// pod's global index.
    pub fn tor_of_pod(&self, pod: PodId) -> SwitchId {
        SwitchId::tor(pod.0)
    }

    /// The pod served by a ToR switch.
    pub fn pod_of_tor(&self, tor: SwitchId) -> Option<PodId> {
        (tor.tier == SwitchTier::Tor && (tor.index as usize) < self.pods.len())
            .then_some(PodId(tor.index))
    }

    /// Leaf switches of a podset.
    pub fn leaves_of_podset(&self, podset: PodsetId) -> impl Iterator<Item = SwitchId> + '_ {
        self.leaf_slice_of_podset(podset).iter().copied()
    }

    /// Spine switches of a DC.
    pub fn spines_of_dc(&self, dc: DcId) -> impl Iterator<Item = SwitchId> + '_ {
        self.spine_slice_of_dc(dc).iter().copied()
    }

    /// Border routers of a DC.
    pub fn borders_of_dc(&self, dc: DcId) -> impl Iterator<Item = SwitchId> + '_ {
        self.border_slice_of_dc(dc).iter().copied()
    }

    /// Leaf switches of a podset, as a precomputed slice. Allocation-free;
    /// this is the form the ECMP resolver consumes on every probe.
    #[inline]
    pub fn leaf_slice_of_podset(&self, podset: PodsetId) -> &[SwitchId] {
        let r = &self.podsets[podset.index()].leaves;
        &self.routes.leaves[r.start as usize..r.end as usize]
    }

    /// Spine switches of a DC, as a precomputed slice.
    #[inline]
    pub fn spine_slice_of_dc(&self, dc: DcId) -> &[SwitchId] {
        let r = &self.dcs[dc.index()].spines;
        &self.routes.spines[r.start as usize..r.end as usize]
    }

    /// Border routers of a DC, as a precomputed slice.
    #[inline]
    pub fn border_slice_of_dc(&self, dc: DcId) -> &[SwitchId] {
        let r = &self.dcs[dc.index()].borders;
        &self.routes.borders[r.start as usize..r.end as usize]
    }

    /// The DC a switch belongs to.
    pub fn dc_of_switch(&self, sw: SwitchId) -> Option<DcId> {
        match sw.tier {
            SwitchTier::Tor => self.pods.get(sw.index as usize).map(|p| p.dc),
            SwitchTier::Leaf => self
                .leaf_podset
                .get(sw.index as usize)
                .map(|ps| self.podsets[ps.index()].dc),
            SwitchTier::Spine => self.spine_dc.get(sw.index as usize).copied(),
            SwitchTier::Border => self.border_dc.get(sw.index as usize).copied(),
        }
    }

    /// IP of a server.
    pub fn ip_of(&self, id: ServerId) -> Ipv4Addr {
        self.servers[id.index()].ip
    }

    /// Reverse lookup: server by IP. A server's address is
    /// `10.<dc>.<hi>.<lo>` with `<hi><lo>` its index within its DC (see
    /// [`Topology::build`]), so the lookup is a decode and a range check.
    pub fn server_by_ip(&self, ip: Ipv4Addr) -> Option<ServerId> {
        let [net, dc, hi, lo] = ip.octets();
        if net != 10 {
            return None;
        }
        let servers = &self.dcs.get(dc as usize)?.servers;
        let id = servers.start + u32::from(u16::from_be_bytes([hi, lo]));
        servers.contains(&id).then_some(ServerId(id))
    }

    /// Iterates over all switches in the deployment.
    pub fn switches(&self) -> impl Iterator<Item = SwitchId> + '_ {
        let tors = (0..self.pods.len() as u32).map(SwitchId::tor);
        let leaves = (0..self.leaf_podset.len() as u32).map(SwitchId::leaf);
        let spines = (0..self.spine_dc.len() as u32).map(SwitchId::spine);
        let borders = (0..self.border_dc.len() as u32).map(SwitchId::border);
        tors.chain(leaves).chain(spines).chain(borders)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DcSpec;

    fn two_dc_topology() -> Topology {
        Topology::build(TopologySpec {
            dcs: vec![DcSpec::tiny("west"), DcSpec::tiny("east")],
        })
        .unwrap()
    }

    #[test]
    fn entity_counts_match_spec() {
        let t = two_dc_topology();
        assert_eq!(t.dc_count(), 2);
        assert_eq!(t.server_count(), 64);
        assert_eq!(t.pod_count(), 16);
        assert_eq!(t.podset_count(), 4);
        // 16 ToR + 2*2*2 leaves + 2*4 spines + 2*2 borders
        assert_eq!(t.switches().count(), 16 + 8 + 8 + 4);
    }

    #[test]
    fn containment_is_consistent() {
        let t = two_dc_topology();
        for sid in t.servers() {
            let info = t.server(sid);
            let pod = t.pod(info.pod);
            assert!(pod.servers.contains(&sid.0));
            assert_eq!(pod.podset, info.podset);
            assert_eq!(pod.dc, info.dc);
            let podset = t.podset(info.podset);
            assert!(podset.pods.contains(&info.pod.0));
            assert_eq!(podset.dc, info.dc);
            assert!(t.dc(info.dc).servers.contains(&sid.0));
        }
    }

    #[test]
    fn ips_are_unique_and_reversible() {
        let t = two_dc_topology();
        let mut seen = std::collections::HashSet::new();
        for sid in t.servers() {
            let ip = t.ip_of(sid);
            assert!(seen.insert(ip), "duplicate ip {ip}");
            assert_eq!(t.server_by_ip(ip), Some(sid));
        }
        assert_eq!(t.server_by_ip(Ipv4Addr::new(192, 168, 0, 1)), None);
    }

    #[test]
    fn ip_lookup_rejects_addresses_outside_every_dc() {
        let t = two_dc_topology();
        // Each tiny DC holds 32 servers: 10.<dc>.0.0 ..= 10.<dc>.0.31.
        assert_eq!(
            t.server_by_ip(Ipv4Addr::new(10, 1, 0, 31)),
            Some(ServerId(63))
        );
        assert_eq!(t.server_by_ip(Ipv4Addr::new(10, 0, 0, 32)), None);
        assert_eq!(t.server_by_ip(Ipv4Addr::new(10, 1, 1, 0)), None);
        assert_eq!(t.server_by_ip(Ipv4Addr::new(10, 2, 0, 0)), None);
        assert_eq!(t.server_by_ip(Ipv4Addr::new(11, 0, 0, 0)), None);
    }

    #[test]
    fn index_in_pod_matches_iteration_order() {
        let t = two_dc_topology();
        for p in 0..t.pod_count() as u32 {
            for (i, sid) in t.servers_in_pod(PodId(p)).enumerate() {
                assert_eq!(t.server(sid).index_in_pod, i as u32);
                assert_eq!(t.nth_server_of_pod(PodId(p), i as u32), Some(sid));
            }
            assert_eq!(t.nth_server_of_pod(PodId(p), 1_000), None);
        }
    }

    #[test]
    fn switch_ownership() {
        let t = two_dc_topology();
        // Spines and borders are partitioned across DCs.
        let dc0_spines: Vec<_> = t.spines_of_dc(DcId(0)).collect();
        let dc1_spines: Vec<_> = t.spines_of_dc(DcId(1)).collect();
        assert_eq!(dc0_spines.len(), 4);
        assert_eq!(dc1_spines.len(), 4);
        assert!(dc0_spines.iter().all(|s| !dc1_spines.contains(s)));
        for s in dc0_spines {
            assert_eq!(t.dc_of_switch(s), Some(DcId(0)));
        }
        assert_eq!(t.dc_of_switch(SwitchId::tor(0)), Some(DcId(0)));
        assert_eq!(t.dc_of_switch(SwitchId::spine(9_999)), None);
    }

    #[test]
    fn tor_pod_mapping_is_bijective() {
        let t = two_dc_topology();
        for p in 0..t.pod_count() as u32 {
            let tor = t.tor_of_pod(PodId(p));
            assert_eq!(t.pod_of_tor(tor), Some(PodId(p)));
        }
        assert_eq!(t.pod_of_tor(SwitchId::leaf(0)), None);
        assert_eq!(t.pod_of_tor(SwitchId::tor(10_000)), None);
    }

    #[test]
    fn route_table_slices_match_iterator_accessors() {
        let t = two_dc_topology();
        for ps in 0..t.podset_count() as u32 {
            let from_iter: Vec<_> = t.leaves_of_podset(PodsetId(ps)).collect();
            assert_eq!(t.leaf_slice_of_podset(PodsetId(ps)), &from_iter[..]);
            assert!(!from_iter.is_empty());
        }
        for dc in t.dcs() {
            let spines: Vec<_> = t.spines_of_dc(dc).collect();
            assert_eq!(t.spine_slice_of_dc(dc), &spines[..]);
            let borders: Vec<_> = t.borders_of_dc(dc).collect();
            assert_eq!(t.border_slice_of_dc(dc), &borders[..]);
        }
    }

    #[test]
    fn ranges_are_contiguous_partition() {
        let t = two_dc_topology();
        // Per-DC server ranges must tile 0..server_count without overlap.
        let mut next = 0u32;
        for dc in t.dcs() {
            let r = &t.dc(dc).servers;
            assert_eq!(r.start, next);
            next = r.end;
        }
        assert_eq!(next as usize, t.server_count());
    }
}
