//! The pinglist generation algorithm (paper §3.3.1).
//!
//! "We then come up with a design of multiple level of complete graphs.
//! Within a Pod, we let all the servers under the same ToR switch form a
//! complete graph. At intra-DC level, we treat each ToR switch as a
//! virtual node, and let the ToR switches form a complete graph. At
//! inter-DC level, each data center acts as a virtual node, and all the
//! data centers form a complete graph."
//!
//! The intra-DC rule is: *for any ToR-pair (ToRx, ToRy), let server i in
//! ToRx ping server i in ToRy*. Every server measures independently even
//! when two servers appear in each other's pinglists. The Controller
//! bounds the total number of probes per server and the minimal probe
//! interval with threshold values.
//!
//! Extensions implemented exactly as §6.2 describes them — none changed
//! the architecture: QoS probing (duplicate entries on the low-priority
//! port), VIP monitoring (VIP targets appended for selected servers), and
//! payload probes (for detecting packet-size-dependent drops).

use pingmesh_topology::Topology;
use pingmesh_types::constants::MIN_PROBE_INTERVAL;
use pingmesh_types::{
    DcId, PingTarget, Pinglist, PinglistEntry, PodsetId, ProbeKind, QosClass, ServerId,
    SimDuration, VipId,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Destination port agents listen on for high-priority probes.
pub const AGENT_PORT_HIGH: u16 = 8_100;
/// Destination port agents listen on for low-priority (QoS) probes
/// (§6.2: "a simple configuration change of the Pingmesh Agent to let it
/// listen to an additional TCP port which is configured for low priority
/// traffic").
pub const AGENT_PORT_LOW: u16 = 8_101;

/// Configuration of the Pingmesh Generator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GeneratorConfig {
    /// Interval between probes of an intra-pod peer.
    pub intra_pod_interval: SimDuration,
    /// Interval between probes of an intra-DC (ToR-level) peer.
    pub intra_dc_interval: SimDuration,
    /// Interval between probes of an inter-DC peer.
    pub inter_dc_interval: SimDuration,
    /// How many servers per podset participate in inter-DC probing
    /// ("In each DC, we select a number of servers (with several servers
    /// selected from each Podset)").
    pub inter_dc_servers_per_podset: u32,
    /// Hard cap on the number of pinglist entries per server (paper: "The
    /// Pingmesh Controller uses threshold values to limit the total number
    /// of probes of a server"). Intra-pod entries are kept first, then
    /// intra-DC, then inter-DC, then VIP.
    pub max_entries_per_server: usize,
    /// Emit an additional TCP payload probe per intra-pod / intra-DC peer.
    pub payload_probes: bool,
    /// Payload size in bytes (paper: "typically 800-1200 bytes within one
    /// packet").
    pub payload_bytes: u32,
    /// Interval multiplier for payload probes relative to the SYN probe of
    /// the same peer.
    pub payload_interval_factor: u32,
    /// Also generate low-priority QoS entries (§6.2 QoS monitoring).
    pub qos_low: bool,
    /// VIPs every inter-DC prober should monitor (§6.2 VIP monitoring).
    pub vip_targets: Vec<(VipId, Ipv4Addr)>,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        Self {
            intra_pod_interval: SimDuration::from_secs(10),
            intra_dc_interval: SimDuration::from_secs(30),
            inter_dc_interval: SimDuration::from_secs(60),
            inter_dc_servers_per_podset: 2,
            max_entries_per_server: 5_000,
            payload_probes: false,
            payload_bytes: 1_000,
            payload_interval_factor: 3,
            qos_low: false,
            vip_targets: Vec::new(),
        }
    }
}

impl GeneratorConfig {
    /// Clamps configuration against the hard-coded agent safety limits,
    /// so a misconfigured controller cannot instruct agents to violate
    /// them. Returns the sanitized config.
    pub fn sanitized(mut self) -> Self {
        let clamp = |d: SimDuration| d.max(MIN_PROBE_INTERVAL);
        self.intra_pod_interval = clamp(self.intra_pod_interval);
        self.intra_dc_interval = clamp(self.intra_dc_interval);
        self.inter_dc_interval = clamp(self.inter_dc_interval);
        self.payload_bytes = self
            .payload_bytes
            .min(pingmesh_types::constants::MAX_PAYLOAD_BYTES as u32);
        self.payload_interval_factor = self.payload_interval_factor.max(1);
        self
    }
}

/// The complete output of one generator run.
#[derive(Debug, Clone)]
pub struct PinglistSet {
    /// Generation number shared by all lists.
    pub generation: u64,
    /// One pinglist per server, indexed by server id.
    pub lists: Vec<Pinglist>,
}

impl PinglistSet {
    /// Total number of entries across all lists.
    pub fn total_entries(&self) -> usize {
        self.lists.iter().map(|l| l.entries.len()).sum()
    }
}

/// One pinglist generation as a controller serves it. A list is a pure
/// function of the topology, the generator (config and drained podsets),
/// the generation number and the server id, so a controller holds those
/// inputs and generates a list per request, holding none (§3.3.2).
#[derive(Debug, Clone)]
pub struct PinglistSource {
    topo: Arc<Topology>,
    generator: PinglistGenerator,
    generation: u64,
}

impl PinglistSource {
    /// Generation `generation` of `generator`'s lists over `topo`.
    pub fn new(topo: Arc<Topology>, generator: PinglistGenerator, generation: u64) -> Self {
        pingmesh_obs::registry()
            .counter("pingmesh_controller_generations_total")
            .inc();
        Self {
            topo,
            generator,
            generation,
        }
    }

    /// Server `s`'s list; `None` for a server the topology does not have.
    pub fn for_server(&self, s: ServerId) -> Option<Pinglist> {
        (s.index() < self.topo.server_count())
            .then(|| self.generator.generate_for(&self.topo, s, self.generation))
    }

    /// Every server's list in server-id order, each generated when the
    /// iterator reaches it.
    pub fn lists(&self) -> impl Iterator<Item = Pinglist> + '_ {
        self.topo
            .servers()
            .map(|s| self.generator.generate_for(&self.topo, s, self.generation))
    }
}

/// The Pingmesh Generator.
///
/// ```
/// use pingmesh_controller::{GeneratorConfig, PinglistGenerator};
/// use pingmesh_topology::{Topology, TopologySpec};
///
/// let topo = Topology::build(TopologySpec::single_tiny()).unwrap();
/// let generator = PinglistGenerator::new(GeneratorConfig::default());
/// let set = generator.generate_all(&topo, 1);
/// assert_eq!(set.lists.len(), topo.server_count());
/// // Every server probes its pod peers plus one server per other ToR.
/// assert!(set.lists[0].entries.len() >= topo.pod_count() - 1);
/// ```
#[derive(Debug, Clone)]
pub struct PinglistGenerator {
    config: GeneratorConfig,
    /// Podsets drained out of the mesh (power-down mitigation).
    excluded: BTreeSet<PodsetId>,
}

impl PinglistGenerator {
    /// Creates a generator with a sanitized configuration.
    pub fn new(config: GeneratorConfig) -> Self {
        Self {
            config: config.sanitized(),
            excluded: BTreeSet::new(),
        }
    }

    /// Cuts `podsets` out of the mesh, as the paper's operators did by
    /// hand: their servers get empty lists, and other lists lose their
    /// entries for them after the entry cap. VIP entries stay.
    pub fn with_excluded_podsets(mut self, podsets: BTreeSet<PodsetId>) -> Self {
        self.excluded = podsets;
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &GeneratorConfig {
        &self.config
    }

    /// Whether a server participates in inter-DC probing: the first
    /// `inter_dc_servers_per_podset` servers of the *first pod* of each
    /// podset are the selected representatives.
    fn is_inter_dc_prober(&self, topo: &Topology, s: ServerId) -> bool {
        let info = topo.server(s);
        let first_pod = topo.podset(info.podset).pods.start;
        info.pod.0 == first_pod && info.index_in_pod < self.config.inter_dc_servers_per_podset
    }

    /// Selected inter-DC probers of one DC.
    fn inter_dc_probers(&self, topo: &Topology, dc: DcId) -> Vec<ServerId> {
        let mut v = Vec::new();
        for podset in topo.podsets_in_dc(dc) {
            let first_pod = topo.podset(podset).pods.start;
            for i in 0..self.config.inter_dc_servers_per_podset {
                if let Some(s) = topo.nth_server_of_pod(pingmesh_types::PodId(first_pod), i) {
                    v.push(s);
                }
            }
        }
        v
    }

    /// Entries [`Self::push_peer`] adds per peer.
    fn entries_per_peer(&self, with_payload: bool) -> usize {
        1 + usize::from(with_payload && self.config.payload_probes)
            + usize::from(self.config.qos_low)
    }

    /// The length of `s`'s list, counted without building it: the peers
    /// `generate_for` visits, at [`Self::entries_per_peer`] each, plus the
    /// VIPs, capped at `max_entries_per_server`.
    fn entry_count(&self, topo: &Topology, s: ServerId) -> usize {
        let info = *topo.server(s);
        let pod_peers = topo.servers_in_pod(info.pod).filter(|&p| p != s).count();
        let dc_peers = topo
            .pods_in_dc(info.dc)
            .filter(|&pod| pod != info.pod)
            .filter(|&pod| topo.nth_server_of_pod(pod, info.index_in_pod).is_some())
            .count();
        let mut n = (pod_peers + dc_peers) * self.entries_per_peer(true);
        if self.is_inter_dc_prober(topo, s) {
            let probers: usize = topo
                .dcs()
                .filter(|&dc| dc != info.dc)
                .map(|dc| self.inter_dc_probers(topo, dc).len())
                .sum();
            n += probers * self.entries_per_peer(false) + self.config.vip_targets.len();
        }
        n.min(self.config.max_entries_per_server)
    }

    fn push_peer(
        &self,
        push: &mut impl FnMut(PinglistEntry),
        topo: &Topology,
        peer: ServerId,
        interval: SimDuration,
        with_payload: bool,
    ) {
        let target = PingTarget::Server {
            id: peer,
            ip: topo.ip_of(peer),
        };
        push(PinglistEntry {
            target,
            port: AGENT_PORT_HIGH,
            kind: ProbeKind::TcpSyn,
            qos: QosClass::High,
            interval,
        });
        if with_payload && self.config.payload_probes {
            push(PinglistEntry {
                target,
                port: AGENT_PORT_HIGH,
                kind: ProbeKind::TcpPayload(self.config.payload_bytes),
                qos: QosClass::High,
                interval: SimDuration::from_micros(
                    interval.as_micros() * self.config.payload_interval_factor as u64,
                ),
            });
        }
        if self.config.qos_low {
            push(PinglistEntry {
                target,
                port: AGENT_PORT_LOW,
                kind: ProbeKind::TcpSyn,
                qos: QosClass::Low,
                interval: SimDuration::from_micros(interval.as_micros() * 2),
            });
        }
    }

    /// Generates the pinglist for one server, allocated at its exact
    /// length.
    pub fn generate_for(&self, topo: &Topology, s: ServerId, generation: u64) -> Pinglist {
        let info = *topo.server(s);
        // Threshold: the list holds the first `cap` entries in the order
        // below, which is priority order (intra-pod, intra-DC, inter-DC,
        // VIP).
        let cap = self.entry_count(topo, s);
        let mut entries = Vec::with_capacity(cap);
        let mut push = |e| {
            if entries.len() < cap {
                entries.push(e);
            }
        };

        // Level 1: intra-pod complete graph.
        for peer in topo.servers_in_pod(info.pod) {
            if peer != s {
                self.push_peer(&mut push, topo, peer, self.config.intra_pod_interval, true);
            }
        }

        // Level 2: intra-DC ToR-level complete graph — server i in ToRx
        // pings server i in ToRy for every other ToR y in the DC.
        let i = info.index_in_pod;
        for pod in topo.pods_in_dc(info.dc) {
            if pod == info.pod {
                continue;
            }
            if let Some(peer) = topo.nth_server_of_pod(pod, i) {
                self.push_peer(&mut push, topo, peer, self.config.intra_dc_interval, true);
            }
        }

        // Level 3: inter-DC complete graph over selected servers.
        if self.is_inter_dc_prober(topo, s) {
            for dc in topo.dcs() {
                if dc == info.dc {
                    continue;
                }
                for peer in self.inter_dc_probers(topo, dc) {
                    self.push_peer(&mut push, topo, peer, self.config.inter_dc_interval, false);
                }
            }
            // VIP monitoring rides on the selected probers too.
            for &(id, ip) in &self.config.vip_targets {
                push(PinglistEntry {
                    target: PingTarget::Vip { id, ip },
                    port: 80,
                    kind: ProbeKind::Http,
                    qos: QosClass::High,
                    interval: self.config.inter_dc_interval,
                });
            }
        }

        debug_assert_eq!(entries.len(), cap, "entry_count agrees with the loops");
        if self.excluded.contains(&info.podset) {
            entries.clear();
        } else if !self.excluded.is_empty() {
            entries.retain(|e| match e.target {
                PingTarget::Server { id, .. } => !self.excluded.contains(&topo.server(id).podset),
                PingTarget::Vip { .. } => true,
            });
        }
        Pinglist {
            server: s,
            generation,
            entries,
        }
    }

    /// Generates pinglists for every server in the topology, indexed by
    /// server id, all held at once. Controllers serve from a
    /// [`PinglistSource`] instead; this is for tools that inspect or
    /// edit a whole generation.
    pub fn generate_all(&self, topo: &Topology, generation: u64) -> PinglistSet {
        let lists = topo
            .servers()
            .map(|s| self.generate_for(topo, s, generation))
            .collect();
        PinglistSet { generation, lists }
    }

    /// [`PinglistGenerator::generate_all`]; `threads` is ignored. Kept only
    /// because the frozen `benchmark/` calls this name (`gen.rs:66`,
    /// `sim_mesh.rs:212,417`, always with `threads = 1`); it goes when
    /// `benchmark/` is next edited.
    #[doc(hidden)]
    pub fn generate_all_threads(
        &self,
        topo: &Topology,
        generation: u64,
        _threads: usize,
    ) -> PinglistSet {
        self.generate_all(topo, generation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pingmesh_topology::{DcSpec, TopologySpec};
    use std::collections::HashSet;

    fn topo() -> Topology {
        Topology::build(TopologySpec {
            dcs: vec![DcSpec::tiny("a"), DcSpec::tiny("b")],
        })
        .unwrap()
    }

    fn default_gen() -> PinglistGenerator {
        PinglistGenerator::new(GeneratorConfig::default())
    }

    fn peer_ids(pl: &Pinglist) -> Vec<ServerId> {
        pl.entries
            .iter()
            .filter_map(|e| match e.target {
                PingTarget::Server { id, .. } => Some(id),
                PingTarget::Vip { .. } => None,
            })
            .collect()
    }

    #[test]
    fn intra_pod_is_complete_graph() {
        let t = topo();
        let g = default_gen();
        let s = ServerId(0);
        let pl = g.generate_for(&t, s, 1);
        let pod = t.server(s).pod;
        let pod_peers: HashSet<ServerId> = t.servers_in_pod(pod).filter(|&p| p != s).collect();
        let listed: HashSet<ServerId> = peer_ids(&pl)
            .into_iter()
            .filter(|p| t.server(*p).pod == pod)
            .collect();
        assert_eq!(listed, pod_peers);
    }

    #[test]
    fn no_server_pings_itself() {
        let t = topo();
        let g = default_gen();
        for s in t.servers() {
            let pl = g.generate_for(&t, s, 1);
            assert!(!peer_ids(&pl).contains(&s), "{s} pings itself");
        }
    }

    #[test]
    fn intra_dc_pairs_match_index_rule() {
        let t = topo();
        let g = default_gen();
        let s = ServerId(1); // index 1 in pod 0
        let info = *t.server(s);
        assert_eq!(info.index_in_pod, 1);
        let pl = g.generate_for(&t, s, 1);
        for peer in peer_ids(&pl) {
            let pinfo = t.server(peer);
            if pinfo.dc == info.dc && pinfo.pod != info.pod {
                assert_eq!(
                    pinfo.index_in_pod, info.index_in_pod,
                    "intra-DC peers must share the in-pod index"
                );
            }
        }
        // It must target every other pod of its own DC exactly once
        // (ServerId(1) is also an inter-DC prober, so filter to its DC).
        let other_pods: HashSet<_> = peer_ids(&pl)
            .iter()
            .filter(|p| t.server(**p).dc == info.dc)
            .map(|p| t.server(*p).pod)
            .filter(|&p| p != info.pod)
            .collect();
        assert_eq!(other_pods.len(), t.pods_in_dc(info.dc).count() - 1);
    }

    #[test]
    fn tor_level_graph_is_complete_over_tor_pairs() {
        // Union over servers: every ToR pair within a DC must be probed by
        // some server pair.
        let t = topo();
        let g = default_gen();
        let mut covered: HashSet<(u32, u32)> = HashSet::new();
        for s in t.servers_in_dc(DcId(0)) {
            let pl = g.generate_for(&t, s, 1);
            let spod = t.server(s).pod;
            for peer in peer_ids(&pl) {
                let ppod = t.server(peer).pod;
                if t.server(peer).dc == DcId(0) && ppod != spod {
                    covered.insert((spod.0, ppod.0));
                }
            }
        }
        let pods: Vec<_> = t.pods_in_dc(DcId(0)).collect();
        for &x in &pods {
            for &y in &pods {
                if x != y {
                    assert!(
                        covered.contains(&(x.0, y.0)),
                        "ToR pair ({x},{y}) not covered"
                    );
                }
            }
        }
    }

    #[test]
    fn inter_dc_only_on_selected_servers() {
        let t = topo();
        let g = default_gen();
        for s in t.servers() {
            let pl = g.generate_for(&t, s, 1);
            let has_interdc = peer_ids(&pl)
                .iter()
                .any(|p| t.server(*p).dc != t.server(s).dc);
            assert_eq!(
                has_interdc,
                g.is_inter_dc_prober(&t, s),
                "server {s} inter-DC probing mismatch"
            );
        }
        // There are selected servers in every podset.
        let probers = g.inter_dc_probers(&t, DcId(0));
        let podsets: HashSet<_> = probers.iter().map(|&p| t.server(p).podset).collect();
        assert_eq!(podsets.len(), t.podsets_in_dc(DcId(0)).count());
    }

    #[test]
    fn inter_dc_graph_is_complete_over_dcs() {
        let t = topo();
        let g = default_gen();
        let mut covered: HashSet<(u32, u32)> = HashSet::new();
        for s in t.servers() {
            for peer in peer_ids(&g.generate_for(&t, s, 1)) {
                let (a, b) = (t.server(s).dc, t.server(peer).dc);
                if a != b {
                    covered.insert((a.0, b.0));
                }
            }
        }
        assert!(covered.contains(&(0, 1)));
        assert!(covered.contains(&(1, 0)));
    }

    #[test]
    fn payload_probes_double_up_entries() {
        let t = topo();
        let plain = default_gen().generate_for(&t, ServerId(0), 1);
        let g = PinglistGenerator::new(GeneratorConfig {
            payload_probes: true,
            ..GeneratorConfig::default()
        });
        let with_payload = g.generate_for(&t, ServerId(0), 1);
        assert!(with_payload.entries.len() > plain.entries.len());
        let payload_count = with_payload
            .entries
            .iter()
            .filter(|e| matches!(e.kind, ProbeKind::TcpPayload(_)))
            .count();
        assert!(payload_count > 0);
        // Payload probes run at a slower cadence.
        for e in &with_payload.entries {
            if let ProbeKind::TcpPayload(b) = e.kind {
                assert_eq!(b, 1_000);
                assert!(e.interval > g.config().intra_pod_interval);
            }
        }
    }

    #[test]
    fn qos_low_entries_use_the_low_port() {
        let t = topo();
        let g = PinglistGenerator::new(GeneratorConfig {
            qos_low: true,
            ..GeneratorConfig::default()
        });
        let pl = g.generate_for(&t, ServerId(0), 1);
        let low: Vec<_> = pl
            .entries
            .iter()
            .filter(|e| e.qos == QosClass::Low)
            .collect();
        assert!(!low.is_empty());
        assert!(low.iter().all(|e| e.port == AGENT_PORT_LOW));
        let high_count = pl
            .entries
            .iter()
            .filter(|e| e.qos == QosClass::High)
            .count();
        assert_eq!(low.len(), high_count, "every peer probed in both classes");
    }

    #[test]
    fn vip_targets_attached_to_probers() {
        let t = topo();
        let vip_ip = Ipv4Addr::new(172, 16, 0, 0);
        let g = PinglistGenerator::new(GeneratorConfig {
            vip_targets: vec![(VipId(0), vip_ip)],
            ..GeneratorConfig::default()
        });
        let prober = g.inter_dc_probers(&t, DcId(0))[0];
        let pl = g.generate_for(&t, prober, 1);
        assert!(pl
            .entries
            .iter()
            .any(|e| matches!(e.target, PingTarget::Vip { .. }) && e.kind == ProbeKind::Http));
        // Non-probers do not probe VIPs.
        let non_prober = t.servers().find(|&s| !g.is_inter_dc_prober(&t, s)).unwrap();
        let pl2 = g.generate_for(&t, non_prober, 1);
        assert!(!pl2
            .entries
            .iter()
            .any(|e| matches!(e.target, PingTarget::Vip { .. })));
    }

    #[test]
    fn entry_cap_is_enforced_with_priority() {
        let t = topo();
        let g = PinglistGenerator::new(GeneratorConfig {
            max_entries_per_server: 4,
            ..GeneratorConfig::default()
        });
        let pl = g.generate_for(&t, ServerId(0), 1);
        assert_eq!(pl.entries.len(), 4);
        // Intra-pod peers (3 of them in the tiny spec) come first.
        let intra_pod = peer_ids(&pl)
            .iter()
            .filter(|p| t.server(**p).pod == t.server(ServerId(0)).pod)
            .count();
        assert_eq!(intra_pod, 3);
    }

    #[test]
    fn sanitize_raises_sub_minimum_intervals() {
        let g = PinglistGenerator::new(GeneratorConfig {
            intra_pod_interval: SimDuration::from_secs(1),
            payload_bytes: 10_000_000,
            payload_interval_factor: 0,
            ..GeneratorConfig::default()
        });
        assert_eq!(g.config().intra_pod_interval, MIN_PROBE_INTERVAL);
        assert_eq!(
            g.config().payload_bytes,
            pingmesh_types::constants::MAX_PAYLOAD_BYTES as u32
        );
        assert_eq!(g.config().payload_interval_factor, 1);
    }

    #[test]
    fn generate_all_parallel_matches_serial() {
        let t = topo();
        let g = default_gen();
        let serial = g.generate_all(&t, 3);
        let forwarded = g.generate_all_threads(&t, 3, 7);
        assert_eq!(forwarded.generation, serial.generation);
        assert_eq!(forwarded.lists, serial.lists);
    }

    /// Every list is allocated at its exact length, with and without
    /// the extensions and with the entry cap biting.
    #[test]
    fn lists_are_generated_at_exact_size() {
        let t = topo();
        let configs = [
            GeneratorConfig::default(),
            GeneratorConfig {
                payload_probes: true,
                qos_low: true,
                vip_targets: vec![(VipId(0), Ipv4Addr::new(172, 16, 0, 0))],
                ..GeneratorConfig::default()
            },
            GeneratorConfig {
                payload_probes: true,
                max_entries_per_server: 5,
                ..GeneratorConfig::default()
            },
        ];
        for config in configs {
            let set = PinglistGenerator::new(config.clone()).generate_all(&t, 1);
            for l in &set.lists {
                assert_eq!(l.entries.capacity(), l.entries.len(), "{config:?}");
                assert!(l.entries.len() <= config.max_entries_per_server);
            }
        }
    }

    #[test]
    fn generate_all_covers_every_server() {
        let t = topo();
        let set = default_gen().generate_all(&t, 7);
        assert_eq!(set.lists.len(), t.server_count());
        assert_eq!(set.generation, 7);
        assert!(set.total_entries() > 0);
        for (i, l) in set.lists.iter().enumerate() {
            assert_eq!(l.server, ServerId(i as u32));
            assert_eq!(l.generation, 7);
            assert!(!l.entries.is_empty(), "every server must probe someone");
        }
    }
}
