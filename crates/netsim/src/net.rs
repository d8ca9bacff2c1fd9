//! The simulated network: probe execution with TCP connect semantics.
//!
//! [`SimNet`] owns the topology, per-DC latency profiles, the fault state
//! and per-switch counters, and executes probes:
//!
//! 1. Resolve the destination (physical server or VIP → DIP).
//! 2. Resolve forward and reverse ECMP paths (isolated switches excluded,
//!    modelling the routing update after isolation).
//! 3. Run the TCP three-way handshake: each SYN attempt sends a packet
//!    down the forward path and, if it survives, a SYN-ACK down the
//!    reverse path. A lost attempt costs the TCP initial timeout (3 s,
//!    doubling), and the retransmitted SYN reuses the same five-tuple —
//!    same path, so deterministic black-holes fail the whole connect.
//! 4. For payload probes, exchange the payload and its echo with data
//!    retransmission timeouts on loss.
//!
//! The outcome is exactly what a Pingmesh agent would observe: an RTT
//! (possibly ≈3 s / ≈9 s) or a timeout.
//!
//! ## Shared state vs. run state
//!
//! The probe logic itself lives on [`NetState`] — topology, profiles,
//! VIPs and faults — and is pure given an RNG and a counter sink. The
//! sharded engine borrows one `NetState` immutably from every shard
//! thread and executes probes through [`NetState::probe_keyed`], which
//! derives a counter-based RNG from `(run seed, five-tuple, time)` so a
//! probe's outcome depends only on *what* was probed and *when* — never
//! on how many probes other shards ran first. Per-shard switch-counter
//! deltas merge back into the [`SimNet`] at tick barriers
//! ([`SimNet::merge_counters`]); the sums are commutative, so the merged
//! state is bit-identical at any shard count.
//!
//! Every packet decision in the simulator draws from such a keyed RNG:
//! agent and verification probes through [`NetState::probe_keyed`], and
//! traceroutes through [`crate::traceroute::tcp_traceroute`], which keys
//! one RNG per flow with a salted seed. No draw depends on what ran
//! before it.
//!
//! Within a probe, every connect draw (host and per-hop drops, the burst
//! correlation) comes before the first latency draw. A SYN probe's
//! outcome and SYN-retry band are therefore a function of the loss model
//! alone: changing how latencies are drawn (or their medians and shapes)
//! moves RTT values, and the data-phase drops of payload probes, but no
//! connect outcome.

use crate::faults::{Faults, Verdict};
use crate::latency::{DcProfile, InterDcMatrix, ProfileDraws};
use crate::rng::chance;
use pingmesh_topology::{Path, Router, Topology, VipTable};
use pingmesh_types::constants::{TCP_SYN_RETRIES, TCP_SYN_TIMEOUT};
use pingmesh_types::{
    DcId, FiveTuple, ProbeKind, ProbeOutcome, QosClass, ServerId, SimDuration, SimTime, SwitchId,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Data-packet retransmission timeout (initial) for payload exchanges.
const DATA_RTO: SimDuration = SimDuration::from_millis(300);
/// Data retransmission attempts before the payload exchange is abandoned.
const DATA_RETRIES: u32 = 5;

/// SNMP-visible view of one switch, plus ground truth for verification.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwitchCounters {
    /// Packets forwarded.
    pub forwarded: u64,
    /// Discards the switch *admits to* (congestion, down). This is what
    /// the paper's operators could read from SNMP.
    pub visible_discards: u64,
    /// Ground truth: silent drops (black-holes, silent random, FCS). Real
    /// SNMP has no such counter — "A switch may drop packets even though
    /// its SNMP tells us everything is fine" (§6). Tests use this field;
    /// detection code must not.
    pub silent_discards_ground_truth: u64,
}

impl SwitchCounters {
    /// Folds another counter set in (all fields are sums, so merging
    /// per-shard deltas in any order yields the same totals).
    pub fn merge(&mut self, other: &SwitchCounters) {
        self.forwarded += other.forwarded;
        self.visible_discards += other.visible_discards;
        self.silent_discards_ground_truth += other.silent_discards_ground_truth;
    }
}

/// Result of one probe execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeAttempt {
    /// The physical server that answered (VIP targets resolve to a DIP);
    /// `None` when the target address is unknown.
    pub dst: Option<ServerId>,
    /// What the probing client observed.
    pub outcome: ProbeOutcome,
}

/// Per-switch counters, dense: one `Vec` per tier indexed by
/// `SwitchId.index`, grown on first touch. A packet's hop bumps an array
/// slot instead of hashing its switch id. Used for one shard's deltas
/// during an epoch and for the network's authoritative totals.
#[derive(Debug, Clone, Default)]
pub struct CounterDelta {
    tiers: [Vec<SwitchCounters>; 4],
}

impl CounterDelta {
    /// No counts.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counters of `sw`, zeroed if never touched.
    pub fn get(&self, sw: SwitchId) -> SwitchCounters {
        self.tiers[sw.tier as usize]
            .get(sw.index as usize)
            .copied()
            .unwrap_or_default()
    }

    /// The slot of `sw`, grown into on first touch.
    #[inline]
    fn slot(&mut self, sw: SwitchId) -> &mut SwitchCounters {
        let tier = &mut self.tiers[sw.tier as usize];
        let i = sw.index as usize;
        if i >= tier.len() {
            tier.resize(i + 1, SwitchCounters::default());
        }
        &mut tier[i]
    }

    /// Adds `other`'s counts (all sums, so merge order is immaterial).
    pub fn merge(&mut self, other: &CounterDelta) {
        for (mine, theirs) in self.tiers.iter_mut().zip(&other.tiers) {
            if mine.len() < theirs.len() {
                mine.resize(theirs.len(), SwitchCounters::default());
            }
            for (m, t) in mine.iter_mut().zip(theirs) {
                m.merge(t);
            }
        }
    }

    /// Zeroes every count, keeping the slots for the next epoch.
    pub fn clear(&mut self) {
        for tier in &mut self.tiers {
            tier.fill(SwitchCounters::default());
        }
    }
}

/// The immutable-during-an-epoch part of the network: topology, latency
/// profiles, VIPs and the fault timeline. Shard threads borrow this
/// concurrently; everything mutable per probe (RNG, counters) is passed
/// in explicitly.
pub struct NetState {
    topo: Arc<Topology>,
    /// By DC: its profile, lognormals built once in [`SimNet::new`].
    profiles: Vec<ProfileDraws>,
    interdc: InterDcMatrix,
    vips: VipTable,
    faults: Faults,
}

fn mix64(mut z: u64) -> u64 {
    // splitmix64 finalizer: full-avalanche, cheap, and stable.
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl NetState {
    /// The topology.
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topo
    }

    /// Profile of a DC.
    pub fn profile(&self, dc: DcId) -> &DcProfile {
        &self.profiles[dc.index()].profile
    }

    /// Fault state (read).
    pub fn faults(&self) -> &Faults {
        &self.faults
    }

    /// VIP table (read).
    pub fn vips(&self) -> &VipTable {
        &self.vips
    }

    /// Whether a server is powered (its podset is not down) and its agent
    /// able to probe/respond.
    pub fn server_is_up(&self, s: ServerId, t: SimTime) -> bool {
        !self.faults.podset_is_down(self.topo.server(s).podset, t)
    }

    /// Resolves a destination address to a physical server: direct server
    /// IP, or VIP dispatched to a DIP by five-tuple hash. A VIP whose DIP
    /// set has been drained to nothing resolves to no target — the probe
    /// times out like any unreachable destination — instead of panicking
    /// the data plane; the condition is counted so operators can see it.
    fn resolve_target(&self, ip: Ipv4Addr, tuple: &FiveTuple) -> Option<ServerId> {
        if let Some(s) = self.topo.server_by_ip(ip) {
            return Some(s);
        }
        match self.vips.dispatch(ip, tuple) {
            Ok(target) => target,
            Err(pingmesh_topology::VipDispatchError::EmptyDipSet(_)) => {
                pingmesh_obs::registry()
                    .counter("pingmesh_netsim_vip_empty_dip_total")
                    .inc();
                None
            }
        }
    }

    /// Resolves the forward path a five-tuple takes from `src` to `dst`,
    /// honoring isolations.
    pub fn path_of(&self, src: ServerId, dst: ServerId, tuple: &FiveTuple) -> Path {
        let router = Router::new(&self.topo);
        let faults = &self.faults;
        router.resolve_excluding(src, dst, tuple, &|sw| faults.is_isolated(sw))
    }

    /// Sends one packet with five-tuple `tuple` along `path`; returns
    /// `true` if it survives every hop. `hosts` are the drop probabilities
    /// of the path's first and last host. Updates switch counters: visible
    /// discards for attributable drops, the ground-truth silent counter
    /// for silent ones.
    #[allow(clippy::too_many_arguments)]
    fn packet_survives_tuple(
        &self,
        rng: &mut SmallRng,
        counters: &mut CounterDelta,
        path: &Path,
        tuple: &FiveTuple,
        hosts: (f64, f64),
        payload_bytes: u32,
        t: SimTime,
    ) -> bool {
        if chance(rng, hosts.0) || chance(rng, hosts.1) {
            return false;
        }
        for sw in path.switches() {
            if !self.hop_survives(rng, counters, sw, tuple, payload_bytes, t) {
                return false;
            }
            counters.slot(sw).forwarded += 1;
        }
        true
    }

    /// One switch traversal: the faults' deterministic verdict, then a
    /// silent drop (the tier's base rate plus any injected), then a visible
    /// one. Records the discard it draws; forwarding is the caller's to
    /// count. Always inlined: it is on the probe path.
    #[inline(always)]
    pub(crate) fn hop_survives(
        &self,
        rng: &mut SmallRng,
        counters: &mut CounterDelta,
        sw: SwitchId,
        tuple: &FiveTuple,
        payload_bytes: u32,
        t: SimTime,
    ) -> bool {
        if let Some(v) = self.faults.deterministic_verdict(sw, tuple, t) {
            match v {
                Verdict::DropVisible => counters.slot(sw).visible_discards += 1,
                _ => counters.slot(sw).silent_discards_ground_truth += 1,
            }
            return false;
        }
        let dc = self.topo.dc_of_switch(sw).expect("switch has a DC");
        let base = self.profiles[dc.index()].profile.drops.for_tier(sw.tier);
        let (silent, visible) = self.faults.random_drop_probs(sw, payload_bytes, t);
        if chance(rng, base + silent) {
            counters.slot(sw).silent_discards_ground_truth += 1;
            return false;
        }
        if chance(rng, visible) {
            counters.slot(sw).visible_discards += 1;
            return false;
        }
        true
    }

    /// Samples one round-trip path latency (no payload) of a probe from
    /// DC `src_dc` to `dst_dc`: host cost in each direction, switch
    /// traversals of both paths, inter-DC propagation, and host hiccups.
    fn sample_rtt(
        &self,
        rng: &mut SmallRng,
        (src_dc, dst_dc): (DcId, DcId),
        fwd: &Path,
        rev: &Path,
        t: SimTime,
        qos: QosClass,
    ) -> f64 {
        let mut us = 0.0;
        // Host cost per direction, attributed to the sending DC's profile
        // (the pair sender-stack + receiver-stack).
        let src_draws = &self.profiles[src_dc.index()];
        us += src_draws.host_us(rng);
        us += self.profiles[dst_dc.index()].host_us(rng);
        for path in [fwd, rev] {
            for sw in path.switches() {
                let dc = self.topo.dc_of_switch(sw).expect("switch has a DC");
                us += self.profiles[dc.index()].switch_us(rng, t, qos);
            }
        }
        if src_dc != dst_dc {
            us += 2.0
                * self
                    .interdc
                    .one_way(src_dc.index(), dst_dc.index())
                    .as_micros() as f64;
        }
        // One hiccup draw per probe, on the busier (source) host profile.
        us += src_draws.hiccup_us(rng);
        us
    }

    /// A counter-based RNG keyed on `(seed, five-tuple, launch time)`.
    /// Every draw a probe makes comes from this stream, so its outcome is
    /// a pure function of what was probed and when — independent of probe
    /// ordering, shard assignment, and shard count.
    pub fn keyed_rng(seed: u64, tuple: &FiveTuple, t: SimTime) -> SmallRng {
        let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
        h = mix64(h ^ u64::from(u32::from(tuple.src_ip)));
        h = mix64(h ^ u64::from(u32::from(tuple.dst_ip)));
        h = mix64(h ^ (u64::from(tuple.src_port) << 16 | u64::from(tuple.dst_port)));
        h = mix64(h ^ t.0);
        SmallRng::seed_from_u64(h)
    }

    /// Executes one probe with a per-probe keyed RNG (see
    /// [`NetState::keyed_rng`]), recording switch-counter deltas into
    /// `counters`. This is the probe path of the sharded engine: `&self`,
    /// so any number of shard threads can run probes concurrently against
    /// the same network state.
    #[allow(clippy::too_many_arguments)]
    pub fn probe_keyed(
        &self,
        seed: u64,
        counters: &mut CounterDelta,
        src: ServerId,
        target_ip: Ipv4Addr,
        src_port: u16,
        dst_port: u16,
        kind: ProbeKind,
        qos: QosClass,
        t: SimTime,
    ) -> ProbeAttempt {
        let tuple = FiveTuple::tcp(self.topo.ip_of(src), src_port, target_ip, dst_port);
        let mut rng = Self::keyed_rng(seed, &tuple, t);
        self.probe_with(&mut rng, counters, src, &tuple, kind, qos, t)
    }

    /// Executes one probe of `tuple` from `src` drawing from `rng`, the
    /// probe's keyed stream. Every connect draw (host and per-hop drops,
    /// the burst correlation) comes before the first latency draw, so a
    /// SYN probe's outcome does not depend on the latency model.
    #[allow(clippy::too_many_arguments)]
    fn probe_with(
        &self,
        rng: &mut SmallRng,
        counters: &mut CounterDelta,
        src: ServerId,
        tuple: &FiveTuple,
        kind: ProbeKind,
        qos: QosClass,
        t: SimTime,
    ) -> ProbeAttempt {
        let Some(dst) = self.resolve_target(tuple.dst_ip, tuple) else {
            return ProbeAttempt {
                dst: None,
                outcome: ProbeOutcome::Timeout,
            };
        };
        let src_dc = self.topo.server(src).dc;
        let src_draws = &self.profiles[src_dc.index()];
        if src == dst {
            // Self-probe: loopback, host stack only.
            let rtt = src_draws.host_us(rng);
            return ProbeAttempt {
                dst: Some(dst),
                outcome: ProbeOutcome::Success {
                    rtt: SimDuration::from_micros(rtt as u64),
                },
            };
        }
        let dst_dc = self.topo.server(dst).dc;
        let dst_draws = &self.profiles[dst_dc.index()];
        let rev_tuple = tuple.reversed();
        let fwd = self.path_of(src, dst, tuple);
        let rev = self.path_of(dst, src, &rev_tuple);
        // Drop probabilities of each path's first and last host.
        let fwd_hosts = (src_draws.profile.drops.host, dst_draws.profile.drops.host);
        let rev_hosts = (fwd_hosts.1, fwd_hosts.0);
        let dst_up = self.server_is_up(dst, t);

        // --- TCP connect: SYN attempts with 3s / 6s timeouts. ---
        let mut wait = SimDuration::ZERO;
        let mut timeout = TCP_SYN_TIMEOUT;
        let mut connected = false;
        let mut prev_attempt_randomly_dropped = false;
        let burst_corr = src_draws.profile.burst_correlation;
        for _attempt in 0..=TCP_SYN_RETRIES {
            // Burst correlation: after a random loss, the retry is more
            // likely to be lost too (paper §4.2's justification for
            // counting a 9 s connect as one drop).
            let burst_kill = prev_attempt_randomly_dropped && chance(rng, burst_corr);
            let syn_ok = !burst_kill
                && dst_up
                && self.packet_survives_tuple(rng, counters, &fwd, tuple, fwd_hosts, 0, t + wait);
            let synack_ok = syn_ok
                && self.packet_survives_tuple(
                    rng,
                    counters,
                    &rev,
                    &rev_tuple,
                    rev_hosts,
                    0,
                    t + wait,
                );
            if syn_ok && synack_ok {
                connected = true;
                break;
            }
            prev_attempt_randomly_dropped = true;
            wait += timeout;
            timeout = SimDuration::from_micros(timeout.as_micros() * 2);
        }
        if !connected {
            return ProbeAttempt {
                dst: Some(dst),
                outcome: ProbeOutcome::Timeout,
            };
        }

        let mut rtt_us =
            self.sample_rtt(rng, (src_dc, dst_dc), &fwd, &rev, t, qos) + wait.as_micros() as f64;

        // --- Optional payload exchange. ---
        let payload = kind.payload_bytes();
        if payload > 0 {
            // Serialization cost per traversed link, both directions.
            let hops = (fwd.link_count() + rev.link_count()) as f64;
            rtt_us += hops * src_draws.profile.tx_delay_us(payload);
            // Peer user-space echo processing.
            rtt_us += dst_draws.echo_us(rng);
            // Data / echo packets can be lost; TCP retransmits with RTO.
            let mut rto = DATA_RTO;
            let mut delivered = false;
            for _ in 0..=DATA_RETRIES {
                let data_ok =
                    self.packet_survives_tuple(rng, counters, &fwd, tuple, fwd_hosts, payload, t);
                let echo_ok = data_ok
                    && self.packet_survives_tuple(
                        rng, counters, &rev, &rev_tuple, rev_hosts, payload, t,
                    );
                if data_ok && echo_ok {
                    delivered = true;
                    break;
                }
                rtt_us += rto.as_micros() as f64;
                rto = SimDuration::from_micros(rto.as_micros() * 2);
            }
            if !delivered {
                return ProbeAttempt {
                    dst: Some(dst),
                    outcome: ProbeOutcome::Timeout,
                };
            }
        }

        ProbeAttempt {
            dst: Some(dst),
            outcome: ProbeOutcome::Success {
                rtt: SimDuration::from_micros(rtt_us.max(1.0) as u64),
            },
        }
    }
}

/// The simulated data-center network.
pub struct SimNet {
    state: NetState,
    counters: CounterDelta,
    seed: u64,
    // Cached metric handles for the batched flush of shard epochs.
    probes_ctr: Arc<pingmesh_obs::Counter>,
    timeouts_ctr: Arc<pingmesh_obs::Counter>,
    rtt_hist: Arc<pingmesh_obs::Histogram>,
}

impl SimNet {
    /// Creates a network over `topo` with one profile per DC (the profile
    /// list is cycled if shorter than the DC count).
    pub fn new(topo: Arc<Topology>, profiles: Vec<DcProfile>, seed: u64) -> Self {
        assert!(!profiles.is_empty(), "need at least one DC profile");
        let n = topo.dc_count();
        let profiles = (0..n)
            .map(|i| ProfileDraws::new(profiles[i % profiles.len()].clone()))
            .collect();
        let interdc = InterDcMatrix::uniform(n, SimDuration::from_millis(30));
        Self {
            state: NetState {
                topo,
                profiles,
                interdc,
                vips: VipTable::new(),
                faults: Faults::new(),
            },
            counters: CounterDelta::new(),
            seed,
            probes_ctr: pingmesh_obs::registry().counter("pingmesh_netsim_probes_total"),
            timeouts_ctr: pingmesh_obs::registry().counter("pingmesh_netsim_probe_timeouts_total"),
            rtt_hist: pingmesh_obs::registry().histogram("pingmesh_netsim_probe_rtt_us"),
        }
    }

    /// The shared network state (what shard threads borrow to run probes).
    pub fn state(&self) -> &NetState {
        &self.state
    }

    /// The seed this network was created with — the key half of
    /// [`NetState::keyed_rng`].
    pub fn run_seed(&self) -> u64 {
        self.seed
    }

    /// The topology.
    pub fn topology(&self) -> &Arc<Topology> {
        &self.state.topo
    }

    /// Inter-DC delay matrix.
    pub fn interdc_mut(&mut self) -> &mut InterDcMatrix {
        &mut self.state.interdc
    }

    /// VIP table (mutate).
    pub fn vips_mut(&mut self) -> &mut VipTable {
        &mut self.state.vips
    }

    /// Fault state (mutate).
    pub fn faults_mut(&mut self) -> &mut Faults {
        &mut self.state.faults
    }

    /// Counters of a switch (zeroed view if never touched).
    pub fn switch_counters(&self, sw: SwitchId) -> SwitchCounters {
        self.counters.get(sw)
    }

    /// Folds a shard's per-epoch counter deltas into the authoritative
    /// counters. Addition commutes, so merge order (and hence shard
    /// count) never changes the totals.
    pub fn merge_counters(&mut self, delta: &CounterDelta) {
        self.counters.merge(delta);
    }

    /// Publishes probe metrics accumulated off-thread (shard epochs batch
    /// them instead of paying per-probe atomics): probe/timeout counts
    /// and, when observability is on, the successful RTT samples.
    pub fn flush_probe_metrics(&self, probes: u64, timeouts: u64, rtts: &[SimDuration]) {
        if probes > 0 {
            self.probes_ctr.add(probes);
        }
        if timeouts > 0 {
            self.timeouts_ctr.add(timeouts);
        }
        if pingmesh_obs::enabled() {
            for &rtt in rtts {
                self.rtt_hist.record(rtt);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{ActiveFault, FaultKind};
    use pingmesh_topology::{DcSpec, TopologySpec};
    use pingmesh_types::PodId;

    fn topo2() -> Arc<Topology> {
        Arc::new(
            Topology::build(TopologySpec {
                dcs: vec![DcSpec::tiny("west"), DcSpec::tiny("east")],
            })
            .unwrap(),
        )
    }

    fn net(profile: DcProfile) -> SimNet {
        SimNet::new(topo2(), vec![profile], 99)
    }

    /// Runs one keyed probe against `n`'s state and folds its counter
    /// delta back in.
    #[allow(clippy::too_many_arguments)]
    fn probe(
        n: &mut SimNet,
        src: ServerId,
        ip: Ipv4Addr,
        src_port: u16,
        dst_port: u16,
        kind: ProbeKind,
        qos: QosClass,
        t: SimTime,
    ) -> ProbeAttempt {
        let mut delta = CounterDelta::new();
        let r = n.state().probe_keyed(
            n.run_seed(),
            &mut delta,
            src,
            ip,
            src_port,
            dst_port,
            kind,
            qos,
            t,
        );
        n.merge_counters(&delta);
        r
    }

    fn pair_cross_podset(net: &SimNet) -> (ServerId, ServerId) {
        let t = net.topology();
        (
            t.servers_in_pod(PodId(0)).next().unwrap(),
            t.servers_in_pod(PodId(4)).next().unwrap(),
        )
    }

    #[test]
    fn ideal_probe_succeeds_with_sane_rtt() {
        let mut n = net(DcProfile::ideal());
        let (a, b) = pair_cross_podset(&n);
        let ip = n.topology().ip_of(b);
        let r = probe(
            &mut n,
            a,
            ip,
            40_000,
            8_100,
            ProbeKind::TcpSyn,
            QosClass::High,
            SimTime(0),
        );
        assert_eq!(r.dst, Some(b));
        let rtt = r.outcome.rtt().unwrap().as_micros();
        // ideal: 2 * 100us host + 10 switch traversals * 5us = 250us.
        assert_eq!(rtt, 250);
    }

    #[test]
    fn payload_probe_costs_more_than_syn() {
        let mut n = net(DcProfile::ideal());
        let (a, b) = pair_cross_podset(&n);
        let ip = n.topology().ip_of(b);
        let syn = probe(
            &mut n,
            a,
            ip,
            40_000,
            8_100,
            ProbeKind::TcpSyn,
            QosClass::High,
            SimTime(0),
        )
        .outcome
        .rtt()
        .unwrap();
        let pay = probe(
            &mut n,
            a,
            ip,
            40_001,
            8_100,
            ProbeKind::TcpPayload(1_000),
            QosClass::High,
            SimTime(0),
        )
        .outcome
        .rtt()
        .unwrap();
        assert!(pay > syn, "payload {pay} vs syn {syn}");
    }

    #[test]
    fn unknown_target_times_out() {
        let mut n = net(DcProfile::ideal());
        let a = ServerId(0);
        let r = probe(
            &mut n,
            a,
            Ipv4Addr::new(192, 168, 1, 1),
            40_000,
            8_100,
            ProbeKind::TcpSyn,
            QosClass::High,
            SimTime(0),
        );
        assert_eq!(r.dst, None);
        assert_eq!(r.outcome, ProbeOutcome::Timeout);
    }

    #[test]
    fn self_probe_is_loopback() {
        let mut n = net(DcProfile::ideal());
        let a = ServerId(3);
        let ip = n.topology().ip_of(a);
        let r = probe(
            &mut n,
            a,
            ip,
            40_000,
            8_100,
            ProbeKind::TcpSyn,
            QosClass::High,
            SimTime(0),
        );
        assert_eq!(r.dst, Some(a));
        assert_eq!(r.outcome.rtt().unwrap().as_micros(), 100);
    }

    #[test]
    fn downed_podset_makes_probes_time_out() {
        let mut n = net(DcProfile::ideal());
        let (a, b) = pair_cross_podset(&n);
        let podset_b = n.topology().server(b).podset;
        n.faults_mut()
            .set_podset_down(podset_b, SimTime(0), Some(SimTime(1_000_000)));
        let ip = n.topology().ip_of(b);
        let r = probe(
            &mut n,
            a,
            ip,
            40_000,
            8_100,
            ProbeKind::TcpSyn,
            QosClass::High,
            SimTime(10),
        );
        assert_eq!(r.outcome, ProbeOutcome::Timeout);
        // Only the downed podset's servers are down, and only in its window.
        assert!(!n.state().server_is_up(b, SimTime(10)));
        assert!(n.state().server_is_up(a, SimTime(10)));
        assert!(n.state().server_is_up(b, SimTime(1_000_000)));
        // After power restoration, probes work again.
        let r2 = probe(
            &mut n,
            a,
            ip,
            40_001,
            8_100,
            ProbeKind::TcpSyn,
            QosClass::High,
            SimTime(2_000_000),
        );
        assert!(r2.outcome.is_success());
    }

    #[test]
    fn full_blackhole_on_tor_fails_all_probes_through_it() {
        let mut n = net(DcProfile::ideal());
        let (a, b) = pair_cross_podset(&n);
        let tor_a = n.topology().tor_of_pod(n.topology().server(a).pod);
        n.faults_mut().add_switch_fault(
            tor_a,
            ActiveFault {
                kind: FaultKind::BlackholeIp { frac: 1.0 },
                from: SimTime(0),
                until: None,
            },
        );
        let ip = n.topology().ip_of(b);
        let r = probe(
            &mut n,
            a,
            ip,
            40_000,
            8_100,
            ProbeKind::TcpSyn,
            QosClass::High,
            SimTime(0),
        );
        assert_eq!(r.outcome, ProbeOutcome::Timeout);
        // The drop was silent: no visible discards.
        let c = n.switch_counters(tor_a);
        assert_eq!(c.visible_discards, 0);
        assert!(c.silent_discards_ground_truth > 0);
    }

    #[test]
    fn partial_blackhole_hits_some_pairs_deterministically() {
        let mut n = net(DcProfile::ideal());
        let t = n.topology().clone();
        let tor0 = SwitchId::tor(0);
        n.faults_mut().add_switch_fault(
            tor0,
            ActiveFault {
                kind: FaultKind::BlackholeIp { frac: 0.4 },
                from: SimTime(0),
                until: None,
            },
        );
        let a = t.servers_in_pod(PodId(0)).next().unwrap();
        let mut failed_pairs = 0;
        let mut ok_pairs = 0;
        for b in t.servers_in_dc(DcId(0)).filter(|&b| b != a) {
            let ip = t.ip_of(b);
            // Several probes per pair: the fate must be identical.
            let outcomes: Vec<bool> = (0..4)
                .map(|i| {
                    probe(
                        &mut n,
                        a,
                        ip,
                        41_000 + i,
                        8_100,
                        ProbeKind::TcpSyn,
                        QosClass::High,
                        SimTime(0),
                    )
                    .outcome
                    .is_success()
                })
                .collect();
            assert!(
                outcomes.iter().all(|&o| o == outcomes[0]),
                "black-hole must be deterministic per pair"
            );
            if outcomes[0] {
                ok_pairs += 1;
            } else {
                failed_pairs += 1;
            }
        }
        assert!(failed_pairs > 0, "some pairs must be black-holed");
        assert!(ok_pairs > 0, "some pairs must survive");
    }

    #[test]
    fn silent_random_drops_produce_3s_rtts() {
        let mut n = net(DcProfile::ideal());
        let (a, b) = pair_cross_podset(&n);
        // 30% silent drop on every spine: many probes lose their first SYN.
        let spines: Vec<SwitchId> = n.topology().spines_of_dc(DcId(0)).collect();
        for s in spines {
            n.faults_mut().add_switch_fault(
                s,
                ActiveFault {
                    kind: FaultKind::SilentRandomDrop { prob: 0.3 },
                    from: SimTime(0),
                    until: None,
                },
            );
        }
        let ip = n.topology().ip_of(b);
        let mut n3s = 0;
        let mut normal = 0;
        for i in 0..400u16 {
            let r = probe(
                &mut n,
                a,
                ip,
                42_000 + i,
                8_100,
                ProbeKind::TcpSyn,
                QosClass::High,
                SimTime(0),
            );
            if let Some(rtt) = r.outcome.rtt() {
                if rtt >= SimDuration::from_secs(2) {
                    n3s += 1;
                } else {
                    normal += 1;
                }
            }
        }
        assert!(n3s > 20, "expected many 3s-class RTTs, got {n3s}");
        assert!(normal > 100, "most probes still succeed normally");
    }

    #[test]
    fn connect_outcomes_do_not_depend_on_the_latency_model() {
        // Two profiles that differ only in the host and queuing lognormals.
        // The second has no spread, so its latency draws take nothing from
        // the probe's stream: a connect draw made after a latency draw
        // would see a different stream under each profile.
        let drawn = DcProfile::us_west();
        let fixed = DcProfile {
            host_median_us: 30.0,
            host_sigma: 0.0,
            queue_median_us: 25.0,
            queue_sigma: 0.0,
            ..DcProfile::us_west()
        };
        let lossy = |profile: DcProfile| {
            let mut n = SimNet::new(topo2(), vec![profile], 99);
            // 30 % silent drop on every ToR: many connects need a SYN
            // retry, and some fail.
            for p in 0..n.topology().pod_count() as u32 {
                let tor = n.topology().tor_of_pod(PodId(p));
                n.faults_mut().add_switch_fault(
                    tor,
                    ActiveFault {
                        kind: FaultKind::SilentRandomDrop { prob: 0.3 },
                        from: SimTime(0),
                        until: None,
                    },
                );
            }
            n
        };
        let (mut a, mut b) = (lossy(drawn), lossy(fixed));
        let t = a.topology().clone();
        let src = t.servers_in_pod(PodId(0)).next().unwrap();
        let dsts = [
            t.servers_in_pod(PodId(0)).nth(1).unwrap(), // intra-pod
            t.servers_in_pod(PodId(4)).next().unwrap(), // cross-podset
            t.servers_in_dc(DcId(1)).next().unwrap(),   // inter-DC
        ];
        // Success or timeout, and for a success its SYN-retry band.
        let class = |r: &ProbeAttempt| r.outcome.rtt().map(|rtt| rtt.as_micros() / 3_000_000);
        let (mut retried, mut timeouts) = (0, 0);
        for dst in dsts {
            for i in 0..300u16 {
                let go = |n: &mut SimNet| {
                    let at = SimTime(u64::from(i) * 1_000_000);
                    let ip = t.ip_of(dst);
                    probe(
                        n,
                        src,
                        ip,
                        40_000 + i,
                        8_100,
                        ProbeKind::TcpSyn,
                        QosClass::High,
                        at,
                    )
                };
                let (ra, rb) = (go(&mut a), go(&mut b));
                assert_eq!(ra.dst, rb.dst);
                assert_eq!(class(&ra), class(&rb), "{dst:?}, probe {i}");
                match class(&ra) {
                    Some(0) => {}
                    Some(_) => retried += 1,
                    None => timeouts += 1,
                }
            }
        }
        assert!(
            retried > 100 && timeouts > 10,
            "{retried} retried, {timeouts} timed out"
        );
        for sw in t.switches() {
            assert_eq!(a.switch_counters(sw), b.switch_counters(sw), "{sw:?}");
        }
    }

    #[test]
    fn isolation_routes_around_faulty_spine() {
        let mut n = net(DcProfile::ideal());
        let (a, b) = pair_cross_podset(&n);
        // Kill one spine completely.
        let spine = n.topology().spines_of_dc(DcId(0)).next().unwrap();
        n.faults_mut().add_switch_fault(
            spine,
            ActiveFault {
                kind: FaultKind::SilentRandomDrop { prob: 1.0 },
                from: SimTime(0),
                until: None,
            },
        );
        let ip = n.topology().ip_of(b);
        let before: usize = (0..200u16)
            .filter(|i| {
                !probe(
                    &mut n,
                    a,
                    ip,
                    43_000 + i,
                    8_100,
                    ProbeKind::TcpSyn,
                    QosClass::High,
                    SimTime(0),
                )
                .outcome
                .is_success()
            })
            .count();
        assert!(
            before > 10,
            "faulty spine should fail many probes: {before}"
        );
        n.faults_mut().isolate_switch(spine);
        let after: usize = (0..200u16)
            .filter(|i| {
                !probe(
                    &mut n,
                    a,
                    ip,
                    44_000 + i,
                    8_100,
                    ProbeKind::TcpSyn,
                    QosClass::High,
                    SimTime(0),
                )
                .outcome
                .is_success()
            })
            .count();
        assert_eq!(after, 0, "isolation must route around the bad spine");
    }

    #[test]
    fn vip_probes_reach_a_dip() {
        let mut n = net(DcProfile::ideal());
        let t = n.topology().clone();
        let dips: Vec<ServerId> = t.servers_in_pod(PodId(2)).collect();
        let vip_id = n.vips_mut().register(dips.clone()).unwrap();
        let vip_ip = n.state().vips().get(vip_id).unwrap().vip;
        let a = t.servers_in_pod(PodId(0)).next().unwrap();
        let mut seen = std::collections::HashSet::new();
        for i in 0..64u16 {
            let r = probe(
                &mut n,
                a,
                vip_ip,
                45_000 + i,
                80,
                ProbeKind::Http,
                QosClass::High,
                SimTime(0),
            );
            let dst = r.dst.expect("vip must resolve");
            assert!(dips.contains(&dst));
            assert!(r.outcome.is_success());
            seen.insert(dst);
        }
        assert!(seen.len() > 1, "load balancing should use several DIPs");
    }

    #[test]
    fn fcs_errors_hit_payload_probes_harder() {
        let mut n = net(DcProfile::ideal());
        let (a, b) = pair_cross_podset(&n);
        // FCS fault on the source ToR: 20% per KB.
        let tor_a = n.topology().tor_of_pod(n.topology().server(a).pod);
        n.faults_mut().add_switch_fault(
            tor_a,
            ActiveFault {
                kind: FaultKind::FcsError { per_kb_prob: 0.2 },
                from: SimTime(0),
                until: None,
            },
        );
        let ip = n.topology().ip_of(b);
        let mut syn_delayed = 0;
        let (mut pay_delayed, mut pay_timeouts) = (0, 0);
        for i in 0..1_000u16 {
            let r = probe(
                &mut n,
                a,
                ip,
                46_000 + i,
                8_100,
                ProbeKind::TcpSyn,
                QosClass::High,
                SimTime(0),
            );
            if r.outcome
                .rtt()
                .is_some_and(|x| x > SimDuration::from_millis(100))
            {
                syn_delayed += 1;
            }
            let r = probe(
                &mut n,
                a,
                ip,
                48_000 + i,
                8_100,
                ProbeKind::TcpPayload(4_096),
                QosClass::High,
                SimTime(0),
            );
            match r.outcome.rtt() {
                Some(x) if x >= DATA_RTO => pay_delayed += 1,
                Some(_) => {}
                None => pay_timeouts += 1,
            }
        }
        assert_eq!(syn_delayed, 0, "SYN packets carry no payload");
        // 4 KB cross the faulty ToR at 80 % loss each way, so a data and
        // echo exchange gets through with p = 0.04 a try, and six tries
        // all fail with 0.96^6 = 0.783. Of 1,000 payload probes, 177 ± 12
        // are delivered by a retransmission and 783 ± 13 time out; each
        // bound sits about 4σ from its expectation.
        assert!(
            (130..=225).contains(&pay_delayed),
            "payload probes delayed by a data retransmission: {pay_delayed}"
        );
        assert!(
            (731..=835).contains(&pay_timeouts),
            "payload probes lost after every retransmission: {pay_timeouts}"
        );
    }

    #[test]
    fn low_priority_probes_see_worse_queuing() {
        let mut profile = DcProfile::ideal();
        // Give the queue some randomness so percentile comparison is fair.
        profile.queue_median_us = 20.0;
        profile.queue_sigma = 0.5;
        profile.qos_low_queue_factor = 4.0;
        let mut n = SimNet::new(topo2(), vec![profile], 21);
        let (a, b) = pair_cross_podset(&n);
        let ip = n.topology().ip_of(b);
        let mut sum_high = 0u64;
        let mut sum_low = 0u64;
        for i in 0..400u16 {
            let hi = probe(
                &mut n,
                a,
                ip,
                50_000 + i,
                8_100,
                ProbeKind::TcpSyn,
                QosClass::High,
                SimTime(0),
            )
            .outcome
            .rtt()
            .unwrap();
            let lo = probe(
                &mut n,
                a,
                ip,
                52_000 + i,
                8_101,
                ProbeKind::TcpSyn,
                QosClass::Low,
                SimTime(0),
            )
            .outcome
            .rtt()
            .unwrap();
            sum_high += hi.as_micros();
            sum_low += lo.as_micros();
        }
        assert!(
            sum_low as f64 > sum_high as f64 * 1.5,
            "low priority must queue behind high: {sum_low} vs {sum_high}"
        );
    }

    #[test]
    fn forwarded_counters_increase() {
        let mut n = net(DcProfile::ideal());
        let (a, b) = pair_cross_podset(&n);
        let ip = n.topology().ip_of(b);
        probe(
            &mut n,
            a,
            ip,
            40_000,
            8_100,
            ProbeKind::TcpSyn,
            QosClass::High,
            SimTime(0),
        );
        let tor_a = n.topology().tor_of_pod(n.topology().server(a).pod);
        assert!(n.switch_counters(tor_a).forwarded > 0);
    }

    #[test]
    fn keyed_probes_are_order_and_batch_independent() {
        let n = net(DcProfile::us_central());
        let (a, b) = pair_cross_podset(&n);
        let ip = n.topology().ip_of(b);
        let state = n.state();
        // Run the same 32 probes in two different interleavings with
        // differently-grouped counter sinks; outcomes and merged counter
        // totals must be identical.
        let run = |order: &[u16], groups: usize| {
            let mut outcomes = std::collections::HashMap::new();
            let mut merged = CounterDelta::new();
            for (g, chunk) in order.chunks(order.len() / groups).enumerate() {
                let _ = g;
                let mut local = CounterDelta::new();
                for &port in chunk {
                    let r = state.probe_keyed(
                        7,
                        &mut local,
                        a,
                        ip,
                        40_000 + port,
                        8_100,
                        ProbeKind::TcpSyn,
                        QosClass::High,
                        SimTime(1_000_000),
                    );
                    outcomes.insert(port, r);
                }
                merged.merge(&local);
            }
            (outcomes, merged)
        };
        let fwd_order: Vec<u16> = (0..32).collect();
        let rev_order: Vec<u16> = (0..32).rev().collect();
        let (o1, c1) = run(&fwd_order, 1);
        let (o2, c2) = run(&rev_order, 4);
        assert_eq!(o1, o2, "probe outcomes must not depend on order/batching");
        let totals = |c: &CounterDelta| {
            n.topology()
                .switches()
                .map(|sw| c.get(sw))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            totals(&c1),
            totals(&c2),
            "counter totals must merge identically"
        );
    }
}
