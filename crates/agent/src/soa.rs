//! The agent engine: one sans-IO state machine, stored struct-of-arrays.
//!
//! [`AgentFleet`] is the only implementation of the §3.4.2 agent rules —
//! sanitize-on-install, fail-closed after 3 controller failures or an
//! empty controller, deterministic probe phases, fresh source port per
//! probe, bounded buffering with retry-then-discard, and the lifetime
//! conservation ledger. It performs no IO and reads no clock: a *driver*
//! tells it what happened and when. Two drivers exist — the discrete-event
//! orchestrator (`pingmesh-core`, thousands of agents per fleet, virtual
//! time) and the tokio `RealAgent` (`pingmesh-realmode`, a fleet of one,
//! wall-clock time) — and the stimuli are the same three for both:
//!
//! * controller poll results ([`AgentFleet::on_controller_poll`]),
//! * probes — [`AgentFleet::due_probes`] out, network outcomes back in
//!   through [`AgentFleet::record_outcome`],
//! * upload opportunities ([`AgentFleet::upload_due`] /
//!   [`AgentFleet::begin_upload`] / [`AgentFleet::on_upload_result`]).
//!
//! Layout: state is flattened into parallel arenas so that a 100k-agent
//! simulation does not chase one heap per agent (the same move
//! `InlineVec` made for `Path.hops`):
//!
//! * all pinglist entries live in one arena of 8-byte packed entries,
//!   each agent owning a contiguous `Segment` of it, in pinglist order.
//!   A packed entry keeps only what nothing else can rebuild: the peer's
//!   `ServerId`, the port, the kind and the QoS. The interval is the
//!   entry's cadence group's, and the address is `topo.ip_of(id)`, read
//!   at probe time. Whatever the topology cannot rebuild — a VIP target,
//!   an address other than `topo.ip_of(id)`, an id ≥ 2^31, a payload
//!   kind — is one `(target, kind)` item of a per-fleet side table,
//!   append-only and deduplicated, so it grows with the distinct targets
//!   a fleet has seen, not with its entries. [`AgentFleet::due_probes`]
//!   hands out expanded `PinglistEntry`s (and so does the test-only
//!   `entries`, which reads an installed list back);
//! * the agent's schedule is one **due ring per cadence**: entries that
//!   share an interval form a group, and each group holds, in two
//!   parallel arenas over the same segment, its entry indices (`ring`)
//!   and their next-due times (`due`) in `(due time, entry index)` order
//!   from a head cursor. The group descriptors live in a `groups` arena,
//!   one slice per agent (a pinglist has two or three cadences);
//! * per-agent scalars (cached next wake, ephemeral port cursor,
//!   generation, lifetime ledgers) are plain `Vec`s indexed by the fleet
//!   index.
//!
//! A wake costs O(probes due), not O(pinglist entries): it merges the
//! group heads while `head.due ≤ now`, and each fired entry moves to its
//! ring's tail with due `now + interval`. That keeps every ring sorted —
//! every other entry of the group is due before `now + interval`, since
//! it last fired before `now` or was phased inside one interval at
//! install — except that the entries one wake fires from a group tie on
//! `now + interval`, so those slots are re-sorted by entry index. The
//! merge therefore emits `(due time, entry index)` order — the pop order
//! of the test-only `scheduler::ProbeScheduler`'s binary heap, which is
//! kept as the independent reference the differential tests below check
//! wake times, due order and port rotation against. The sharded
//! orchestrator gives each shard its own `AgentFleet` over its podset's
//! servers, so fleets are mutated thread-locally and need no locks.

use crate::buffer::{Entry, ResultBuffer, UploadBatch};
use crate::config::AgentConfig;
use crate::guard::{GuardDecision, SafetyGuard};
use crate::scheduler::{phase_of, DueProbe, EPHEMERAL_LO};
use pingmesh_topology::Topology;
use pingmesh_types::{
    AgentCounters, CounterSnapshot, PingTarget, Pinglist, PinglistEntry, ProbeKind, ProbeOutcome,
    QosClass, ServerId, SimDuration, SimTime,
};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Fleet-wide agent metrics. Every agent of every fleet shares these
/// handles, so they are resolved once; each touch is an atomic add. Probes,
/// discards and ring bytes are the exception: they are tallied per fleet
/// and published by [`AgentFleet::flush_metrics`].
struct AgentMetrics {
    probes_sent: Arc<pingmesh_obs::Counter>,
    guard_trips: Arc<pingmesh_obs::Counter>,
    sanitized: Arc<pingmesh_obs::Counter>,
    uploads_started: Arc<pingmesh_obs::Counter>,
    upload_retries: Arc<pingmesh_obs::Counter>,
    records_discarded: Arc<pingmesh_obs::Counter>,
    upload_batch_size: Arc<pingmesh_obs::Histogram>,
    resident_bytes: Arc<pingmesh_obs::Gauge>,
    pinglist_bytes: Arc<pingmesh_obs::Gauge>,
}

fn metrics() -> &'static AgentMetrics {
    static M: OnceLock<AgentMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let r = pingmesh_obs::registry();
        AgentMetrics {
            probes_sent: r.counter("pingmesh_agent_probes_sent_total"),
            guard_trips: r.counter("pingmesh_agent_guard_trips_total"),
            sanitized: r.counter("pingmesh_agent_sanitized_entries_total"),
            uploads_started: r.counter("pingmesh_agent_uploads_started_total"),
            upload_retries: r.counter("pingmesh_agent_upload_retries_total"),
            records_discarded: r.counter("pingmesh_agent_records_discarded_total"),
            upload_batch_size: r.histogram("pingmesh_agent_upload_batch_size"),
            resident_bytes: r.gauge("pingmesh_agent_resident_bytes"),
            pinglist_bytes: r.gauge("pingmesh_agent_pinglist_bytes"),
        }
    })
}

/// What a controller poll produced (transport-agnostic: the orchestrator
/// adapts the in-process SLB, the real agent adapts HTTP).
#[derive(Debug, Clone)]
pub enum ControllerPollOutcome {
    /// A pinglist was served.
    Pinglist(Pinglist),
    /// The controller answered but had no pinglist (fleet stop switch).
    NoPinglist,
    /// The controller (VIP) was unreachable.
    Unreachable,
}

/// "No wake pending" sentinel in the `next_wake` arena (the least head
/// of an agent with no cadence groups is simply the sentinel).
const NEVER: SimTime = SimTime(u64::MAX);

/// Bit of [`Packed::peer`] that makes the rest an index into the fleet's
/// side table instead of a `ServerId`.
const SIDE: u32 = 1 << 31;
/// [`Packed::flags`]: the probe is marked low-priority.
const QOS_LOW: u16 = 1;
/// [`Packed::flags`]: a `ServerId` peer is probed over HTTP, not TCP SYN.
const KIND_HTTP: u16 = 2;

/// One installed pinglist entry without its interval (its cadence
/// group's) and without anything the topology rebuilds.
#[derive(Debug, Clone, Copy, Default)]
struct Packed {
    /// The peer's `ServerId`, probed at `topo.ip_of(id)` with the kind in
    /// `flags`; or `SIDE | k`, whose target and kind are side item `k`.
    peer: u32,
    port: u16,
    flags: u16,
}

const _: () = assert!(std::mem::size_of::<Packed>() == 8);

/// The `(target, kind)` pairs that do not fit a [`Packed`] entry,
/// interned: append-only, each distinct pair once.
#[derive(Default)]
struct SideTable {
    items: Vec<(PingTarget, ProbeKind)>,
    index: HashMap<(PingTarget, ProbeKind), u32>,
}

impl SideTable {
    fn intern(&mut self, item: (PingTarget, ProbeKind)) -> u32 {
        let next = self.items.len();
        *self.index.entry(item).or_insert_with(|| {
            self.items.push(item);
            u32::try_from(next)
                .ok()
                .filter(|&k| k < SIDE)
                .expect("fewer than 2^31 distinct side-table targets")
        })
    }
}

/// Packs `e`, interning in `side` what `topo` cannot rebuild.
fn pack(topo: &Topology, side: &mut SideTable, e: &PinglistEntry) -> Packed {
    let topo_peer = match (e.target, e.kind) {
        (PingTarget::Server { id, ip }, ProbeKind::TcpSyn | ProbeKind::Http)
            if id.0 < SIDE && id.index() < topo.server_count() && topo.ip_of(id) == ip =>
        {
            Some(id)
        }
        _ => None,
    };
    let mut flags = if e.qos == QosClass::Low { QOS_LOW } else { 0 };
    let peer = match topo_peer {
        Some(id) => {
            if e.kind == ProbeKind::Http {
                flags |= KIND_HTTP;
            }
            id.0
        }
        None => SIDE | side.intern((e.target, e.kind)),
    };
    Packed {
        peer,
        port: e.port,
        flags,
    }
}

/// The entry `p` was packed from, given its cadence.
fn expand(
    topo: &Topology,
    side: &[(PingTarget, ProbeKind)],
    p: Packed,
    interval: SimDuration,
) -> PinglistEntry {
    let (target, kind) = if p.peer & SIDE != 0 {
        side[(p.peer & !SIDE) as usize]
    } else {
        let id = ServerId(p.peer);
        let kind = if p.flags & KIND_HTTP != 0 {
            ProbeKind::Http
        } else {
            ProbeKind::TcpSyn
        };
        (
            PingTarget::Server {
                id,
                ip: topo.ip_of(id),
            },
            kind,
        )
    };
    PinglistEntry {
        target,
        port: p.port,
        kind,
        qos: if p.flags & QOS_LOW != 0 {
            QosClass::Low
        } else {
            QosClass::High
        },
        interval,
    }
}

/// One agent's slices: `start..start + len` of the entry, ring and due
/// arenas (capacity `cap`), and `gstart..gstart + glen` of the group
/// arena (capacity `gcap`).
#[derive(Debug, Clone, Copy, Default)]
struct Segment {
    start: u32,
    len: u32,
    cap: u32,
    gstart: u32,
    glen: u32,
    gcap: u32,
}

/// One cadence of one agent: the entries sharing `interval` occupy ring
/// slots `start..start + len` of the agent's segment, in `(due, entry
/// index)` order read circularly from `head`. `head_due` caches the
/// head slot's due time, so picking among heads reads one cache line;
/// `fired` counts the slots the current wake fired.
#[derive(Debug, Clone, Copy, Default)]
struct Group {
    interval: SimDuration,
    head_due: SimTime,
    start: u32,
    len: u32,
    head: u32,
    fired: u32,
}

impl Group {
    /// Segment offset of the ring's `k`-th slot counted from the head.
    #[inline]
    fn slot(&self, k: u32) -> usize {
        let mut i = self.head + k;
        if i >= self.len {
            i -= self.len;
        }
        (self.start + i) as usize
    }
}

/// The flattened agent fleet. Every per-agent operation takes the agent's
/// fleet index (assigned by [`AgentFleet::push_server`], dense from 0).
pub struct AgentFleet {
    topo: Arc<Topology>,
    config: AgentConfig,
    servers: Vec<ServerId>,
    // --- hot state: arenas + per-agent scalars ---
    segs: Vec<Segment>,
    entries: Vec<Packed>,
    side: SideTable,
    /// Per ring slot: the entry index (into the agent's segment) and its
    /// next-due time.
    ring: Vec<u32>,
    due: Vec<SimTime>,
    groups: Vec<Group>,
    next_wake: Vec<SimTime>,
    next_port: Vec<u16>,
    generation: Vec<u64>,
    // --- cold per-agent state ---
    guards: Vec<SafetyGuard>,
    buffers: Vec<ResultBuffer>,
    counters: Vec<AgentCounters>,
    sanitized_entries: Vec<u64>,
    probes_observed: Vec<u64>,
    unresolved_probes: Vec<u64>,
    /// Probes recorded since the last [`AgentFleet::flush_metrics`], and
    /// the discards, ring bytes and pinglist bytes it last published.
    probes_unpublished: u64,
    discarded_published: u64,
    resident_published: f64,
    pinglist_published: f64,
    // Recycled scratch (calls within a shard are sequential, so one per
    // fleet suffices): the install sort, a wake's tied ring slots and
    // the output buffer.
    install_scratch: Vec<(SimDuration, SimTime, u32)>,
    tie_scratch: Vec<u32>,
    due_scratch: Vec<DueProbe>,
}

impl AgentFleet {
    /// Creates an empty fleet.
    pub fn new(topo: Arc<Topology>, config: AgentConfig) -> Self {
        Self {
            topo,
            config,
            servers: Vec::new(),
            segs: Vec::new(),
            entries: Vec::new(),
            side: SideTable::default(),
            ring: Vec::new(),
            due: Vec::new(),
            groups: Vec::new(),
            next_wake: Vec::new(),
            next_port: Vec::new(),
            generation: Vec::new(),
            guards: Vec::new(),
            buffers: Vec::new(),
            counters: Vec::new(),
            sanitized_entries: Vec::new(),
            probes_observed: Vec::new(),
            unresolved_probes: Vec::new(),
            probes_unpublished: 0,
            discarded_published: 0,
            resident_published: 0.0,
            pinglist_published: 0.0,
            install_scratch: Vec::new(),
            tie_scratch: Vec::new(),
            due_scratch: Vec::new(),
        }
    }

    /// Adds an idle agent for `server`; returns its fleet index.
    pub fn push_server(&mut self, server: ServerId) -> usize {
        let idx = self.servers.len();
        self.servers.push(server);
        self.segs.push(Segment::default());
        self.next_wake.push(NEVER);
        self.next_port.push(EPHEMERAL_LO);
        self.generation.push(0);
        self.guards.push(SafetyGuard::new());
        self.buffers
            .push(ResultBuffer::new(self.config.clone(), server));
        self.counters.push(AgentCounters::new());
        self.sanitized_entries.push(0);
        self.probes_observed.push(0);
        self.unresolved_probes.push(0);
        idx
    }

    /// Number of agents in the fleet.
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// Whether the fleet is empty.
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }

    /// The server of agent `idx`.
    pub fn server(&self, idx: usize) -> ServerId {
        self.servers[idx]
    }

    /// Agent `idx`'s installed (already sanitized) pinglist entries, in
    /// pinglist order and expanded: what the tests read back to check that
    /// packing an entry loses nothing. Empty while fail-closed: stopping
    /// clears the schedule.
    #[cfg(test)]
    pub(crate) fn entries(&self, idx: usize) -> Vec<PinglistEntry> {
        let seg = self.segs[idx];
        let base = seg.start as usize;
        let mut intervals = vec![SimDuration::ZERO; seg.len as usize];
        for g in &self.groups[seg.gstart as usize..][..seg.glen as usize] {
            for &i in &self.ring[base + g.start as usize..][..g.len as usize] {
                intervals[i as usize] = g.interval;
            }
        }
        self.entries[base..][..seg.len as usize]
            .iter()
            .zip(intervals)
            .map(|(&p, interval)| expand(&self.topo, &self.side.items, p, interval))
            .collect()
    }

    fn note_guard_trip(&self, idx: usize, reason: &'static str, now: SimTime) {
        metrics().guard_trips.inc();
        pingmesh_obs::emit_sim!(now; Warn, "agent.guard", "guard_trip",
            "server" => self.servers[idx].0 as u64, "reason" => reason);
    }

    /// Installs a pinglist into agent `idx`'s arena segments: in place
    /// when they have capacity, else at the arena tails (the old slices
    /// are abandoned — reinstalls are rare, one per pinglist generation).
    /// Entries keep pinglist order; the rings are built by one sort of
    /// `(interval, due, entry index)`, each run of equal interval a group.
    fn install(&mut self, idx: usize, pl: &Pinglist, now: SimTime) {
        let server = self.servers[idx];
        let n = pl.entries.len();
        let scratch = &mut self.install_scratch;
        scratch.clear();
        scratch.extend(pl.entries.iter().enumerate().map(|(i, e)| {
            let phase = phase_of(server, i, e.interval.as_micros());
            (e.interval, now + SimDuration(phase), i as u32)
        }));
        scratch.sort_unstable();
        let cadences = scratch.chunk_by(|a, b| a.0 == b.0).count();

        let seg = &mut self.segs[idx];
        if n as u32 > seg.cap {
            seg.start = self.entries.len() as u32;
            seg.cap = n as u32;
            self.entries
                .resize(self.entries.len() + n, Packed::default());
            self.ring.resize(self.ring.len() + n, 0);
            self.due.resize(self.due.len() + n, NEVER);
        }
        if cadences as u32 > seg.gcap {
            seg.gstart = self.groups.len() as u32;
            seg.gcap = cadences as u32;
            self.groups
                .resize(self.groups.len() + cadences, Group::default());
        }
        seg.len = n as u32;
        seg.glen = cadences as u32;
        let (start, gstart) = (seg.start as usize, seg.gstart as usize);

        for (slot, e) in self.entries[start..start + n].iter_mut().zip(&pl.entries) {
            *slot = pack(&self.topo, &mut self.side, e);
        }
        let mut k = 0;
        let mut next = NEVER;
        for (g, run) in scratch.chunk_by(|a, b| a.0 == b.0).enumerate() {
            self.groups[gstart + g] = Group {
                interval: run[0].0,
                head_due: run[0].1,
                start: k as u32,
                len: run.len() as u32,
                head: 0,
                fired: 0,
            };
            next = next.min(run[0].1);
            for &(_, due, i) in run {
                self.ring[start + k] = i;
                self.due[start + k] = due;
                k += 1;
            }
        }
        self.next_wake[idx] = next;
    }

    fn clear_schedule(&mut self, idx: usize) {
        self.segs[idx].len = 0;
        self.segs[idx].glen = 0;
        self.next_wake[idx] = NEVER;
    }

    /// Folds a controller poll result into agent `idx`: sanitize and
    /// count, re-arm or trip the guard, and reinstall the schedule only on
    /// a new generation (rebuilding it resets probe phases, which is only
    /// wanted when the list actually changed).
    pub fn on_controller_poll(&mut self, idx: usize, outcome: ControllerPollOutcome, now: SimTime) {
        let was_stopped = self.guards[idx].is_stopped();
        match outcome {
            ControllerPollOutcome::Pinglist(mut pl) => {
                let clamped = SafetyGuard::sanitize(&mut pl) as u64;
                if clamped > 0 {
                    metrics().sanitized.add(clamped);
                    pingmesh_obs::emit_sim!(now; Warn, "agent.guard", "entries_sanitized",
                        "server" => self.servers[idx].0 as u64, "entries" => clamped);
                }
                self.sanitized_entries[idx] += clamped;
                self.guards[idx].on_pinglist_received();
                if pl.generation != self.generation[idx] {
                    self.generation[idx] = pl.generation;
                    self.install(idx, &pl, now);
                }
            }
            ControllerPollOutcome::NoPinglist => {
                if self.guards[idx].on_empty_controller() == GuardDecision::StopProbing {
                    if !was_stopped {
                        self.note_guard_trip(idx, "no_pinglist", now);
                    }
                    self.clear_schedule(idx);
                    self.generation[idx] = 0;
                }
            }
            ControllerPollOutcome::Unreachable => {
                if self.guards[idx].on_controller_failure() == GuardDecision::StopProbing {
                    if !was_stopped {
                        self.note_guard_trip(idx, "controller_unreachable", now);
                    }
                    self.clear_schedule(idx);
                    self.generation[idx] = 0;
                }
            }
        }
    }

    /// When agent `idx` next needs to act.
    pub fn next_wakeup(&self, idx: usize) -> Option<SimTime> {
        let t = self.next_wake[idx];
        (t != NEVER).then_some(t)
    }

    /// Probes of agent `idx` due at `now`, emitted in `(due time, entry
    /// index)` order (the reference heap's pop order, so port assignment
    /// is reproducible): a merge of the agent's cadence rings while a
    /// head is due, so a wake costs O(probes due). Each fired entry is
    /// next due at `now + interval`. `now` never goes backwards between
    /// installs; every driver advances time. Hand the buffer back via
    /// [`AgentFleet::recycle_due`].
    pub fn due_probes(&mut self, idx: usize, now: SimTime) -> Vec<DueProbe> {
        let mut out = std::mem::take(&mut self.due_scratch);
        out.clear();
        // A stopped agent has no schedule: stopping clears it to `NEVER`.
        if self.next_wake[idx] > now {
            return out;
        }
        debug_assert!(!self.guards[idx].is_stopped());
        let seg = self.segs[idx];
        let base = seg.start as usize;
        let groups = &mut self.groups[seg.gstart as usize..][..seg.glen as usize];
        let (ring, due) = (&mut self.ring[base..], &mut self.due[base..]);
        let (topo, side, entries) = (&self.topo, &self.side.items, &self.entries[base..]);
        loop {
            // The due head with the least (due time, entry index).
            let mut pick: Option<usize> = None;
            for (g, grp) in groups.iter().enumerate() {
                if grp.head_due > now {
                    continue;
                }
                pick = match pick {
                    Some(b)
                        if (groups[b].head_due, ring[groups[b].slot(0)])
                            < (grp.head_due, ring[grp.slot(0)]) =>
                    {
                        Some(b)
                    }
                    _ => Some(g),
                };
            }
            let Some(g) = pick else { break };
            let grp = &mut groups[g];
            let slot = grp.slot(0);
            let i = ring[slot];
            due[slot] = now + grp.interval;
            grp.head = if grp.head + 1 == grp.len {
                0
            } else {
                grp.head + 1
            };
            grp.head_due = due[grp.slot(0)];
            grp.fired += 1;
            let p = self.next_port[idx];
            self.next_port[idx] = if p == u16::MAX { EPHEMERAL_LO } else { p + 1 };
            out.push(DueProbe {
                entry_index: i as usize,
                entry: expand(topo, side, entries[i as usize], grp.interval),
                src_port: p,
            });
        }
        // A group's fired slots are the `fired` ones just behind its head,
        // all due at `now + interval`; order those ties by entry index.
        let mut next = NEVER;
        for grp in groups.iter_mut() {
            let k = std::mem::take(&mut grp.fired);
            if k > 1 {
                let ties = &mut self.tie_scratch;
                ties.clear();
                ties.extend((grp.len - k..grp.len).map(|j| ring[grp.slot(j)]));
                ties.sort_unstable();
                for (j, &i) in (grp.len - k..grp.len).zip(ties.iter()) {
                    ring[grp.slot(j)] = i;
                }
            }
            next = next.min(grp.head_due);
        }
        self.next_wake[idx] = next;
        out
    }

    /// Returns a drained `due_probes` buffer for reuse on the next wake.
    pub fn recycle_due(&mut self, mut due: Vec<DueProbe>) {
        due.clear();
        if due.capacity() > self.due_scratch.capacity() {
            self.due_scratch = due;
        }
    }

    /// Feeds a probe's network outcome back into agent `idx`: updates
    /// counters and buffers a record. `dst` is the physical server that
    /// was reached (VIPs resolve to a DIP); probes whose target could not
    /// be resolved are counted but produce no record.
    pub fn record_outcome(
        &mut self,
        idx: usize,
        due: &DueProbe,
        dst: Option<ServerId>,
        outcome: ProbeOutcome,
        now: SimTime,
    ) {
        self.counters[idx].observe(outcome);
        self.probes_unpublished += 1;
        self.probes_observed[idx] += 1;
        let Some(dst) = dst else {
            self.unresolved_probes[idx] += 1;
            return;
        };
        let entry = Entry::new(now, dst, due, outcome);
        if pingmesh_obs::trace::armed_count() > 0 {
            pingmesh_obs::trace::on_probe(&entry.expand(self.servers[idx], &self.topo));
        }
        self.buffers[idx].push(entry);
    }

    /// Publishes the fleet's tallies — probes to
    /// `pingmesh_agent_probes_sent_total` and discards to
    /// `pingmesh_agent_records_discarded_total`, one atomic add per flush
    /// instead of one per event — its result rings' allocation to the
    /// `pingmesh_agent_resident_bytes` gauge, and its pinglist arenas'
    /// (entries, side table, rings, due times, groups) to
    /// `pingmesh_agent_pinglist_bytes`. Both gauges sum every live fleet.
    /// Drivers call it at their natural boundary — the orchestrator at
    /// each barrier, `RealAgent` after each wake's probes complete.
    pub fn flush_metrics(&mut self) {
        let m = metrics();
        m.probes_sent
            .add(std::mem::take(&mut self.probes_unpublished));
        let (mut resident, mut discarded) = (0.0, 0);
        for b in &self.buffers {
            resident += b.resident_bytes() as f64;
            discarded += b.discarded();
        }
        m.records_discarded
            .add(discarded - self.discarded_published);
        m.resident_bytes.add(resident - self.resident_published);
        (self.discarded_published, self.resident_published) = (discarded, resident);
        let pinglist = self.pinglist_bytes() as f64;
        m.pinglist_bytes.add(pinglist - self.pinglist_published);
        self.pinglist_published = pinglist;
    }

    /// Bytes allocated to the fleet's pinglists: the entry arena, the side
    /// table's items, and the ring, due-time and group arenas.
    fn pinglist_bytes(&self) -> usize {
        use std::mem::size_of;
        self.entries.capacity() * size_of::<Packed>()
            + self.side.items.capacity() * size_of::<(PingTarget, ProbeKind)>()
            + self.ring.capacity() * size_of::<u32>()
            + self.due.capacity() * size_of::<SimTime>()
            + self.groups.capacity() * size_of::<Group>()
    }

    /// The topology every agent's records are expanded against.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Whether agent `idx` should start an upload now.
    pub fn upload_due(&self, idx: usize, now: SimTime) -> bool {
        self.buffers[idx].upload_due(now)
    }

    /// Starts an upload for agent `idx`; returns the batch, its results
    /// still packed (expand them with [`UploadBatch::records`]).
    pub fn begin_upload(&mut self, idx: usize) -> Option<UploadBatch> {
        let batch = self.buffers[idx].begin_upload()?;
        metrics().uploads_started.inc();
        metrics().upload_batch_size.record_value(batch.len() as u64);
        Some(batch)
    }

    /// Reports the uploader's verdict for agent `idx`; returns `true` if
    /// the caller should retry the batch it already holds.
    pub fn on_upload_result(&mut self, idx: usize, ok: bool) -> bool {
        let retry = self.buffers[idx].on_upload_result(ok);
        if !ok && retry {
            metrics().upload_retries.inc();
        }
        self.counters[idx].records_discarded = self.buffers[idx].discarded();
        retry
    }

    /// Ends agent `idx`'s upload cycle by freeing the batch (DESIGN.md §3).
    pub fn recycle_batch(&mut self, _idx: usize, batch: UploadBatch) {
        drop(batch);
    }

    /// Marks bytes as uploaded for agent `idx`.
    pub fn note_uploaded(&mut self, idx: usize, bytes: u64) {
        self.counters[idx].bytes_uploaded += bytes;
    }

    /// PA collection for agent `idx`: snapshot and reset the window.
    pub fn collect_counters(&mut self, idx: usize) -> CounterSnapshot {
        let snap = self.counters[idx].snapshot();
        self.counters[idx].reset_window();
        snap
    }

    /// A read-only single-agent view — what oracles and both watchdogs
    /// consume.
    pub fn view(&self, idx: usize) -> AgentView<'_> {
        AgentView { fleet: self, idx }
    }
}

impl Drop for AgentFleet {
    fn drop(&mut self) {
        metrics().resident_bytes.add(-self.resident_published);
        metrics().pinglist_bytes.add(-self.pinglist_published);
    }
}

/// Read-only view of one agent in an [`AgentFleet`], so invariant checks
/// (`orch.agent(s).probes_observed()`, `real_agent.view().is_stopped()` …)
/// are agnostic to the storage layout and to which driver owns the fleet.
#[derive(Clone, Copy)]
pub struct AgentView<'a> {
    fleet: &'a AgentFleet,
    idx: usize,
}

impl<'a> AgentView<'a> {
    /// The server this agent runs on.
    pub fn server(&self) -> ServerId {
        self.fleet.server(self.idx)
    }

    /// Active pinglist generation (0 = none yet).
    pub fn generation(&self) -> u64 {
        self.fleet.generation[self.idx]
    }

    /// Whether the agent is fail-closed (not probing).
    pub fn is_stopped(&self) -> bool {
        self.fleet.guards[self.idx].is_stopped()
    }

    /// Number of peers currently scheduled.
    pub fn peer_count(&self) -> usize {
        self.fleet.segs[self.idx].len as usize
    }

    /// Entries the guard had to clamp over this agent's lifetime.
    pub fn sanitized_entries(&self) -> u64 {
        self.fleet.sanitized_entries[self.idx]
    }

    /// When the agent next needs to act.
    pub fn next_wakeup(&self) -> Option<SimTime> {
        self.fleet.next_wakeup(self.idx)
    }

    /// Lifetime probe outcomes fed back.
    pub fn probes_observed(&self) -> u64 {
        self.fleet.probes_observed[self.idx]
    }

    /// Lifetime unresolved (recordless) probes.
    pub fn unresolved_probes(&self) -> u64 {
        self.fleet.unresolved_probes[self.idx]
    }

    /// Records currently buffered.
    pub fn buffered_records(&self) -> u64 {
        self.fleet.buffers[self.idx].len() as u64
    }

    /// Result entries held: buffered records and log lines, each once.
    pub fn held_entries(&self) -> u64 {
        self.fleet.buffers[self.idx].held() as u64
    }

    /// Whether an upload batch is in flight.
    pub fn has_pending_upload(&self) -> bool {
        self.fleet.buffers[self.idx].has_pending()
    }

    /// Cumulative records discarded.
    pub fn discarded_total(&self) -> u64 {
        self.fleet.buffers[self.idx].discarded()
    }

    /// Live counters.
    pub fn counters(&self) -> &'a AgentCounters {
        &self.fleet.counters[self.idx]
    }

    /// The agent's capped local log, oldest line first, rendered on read.
    pub fn log_lines(&self) -> impl Iterator<Item = String> + 'a {
        self.fleet.buffers[self.idx].log_lines()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::ProbeScheduler;
    use pingmesh_topology::TopologySpec;
    use pingmesh_types::{PingTarget, ProbeKind, QosClass};
    use std::net::Ipv4Addr;

    fn topo() -> Arc<Topology> {
        Arc::new(Topology::build(TopologySpec::single_tiny()).unwrap())
    }

    fn pinglist(server: ServerId, generation: u64, n: usize) -> Pinglist {
        Pinglist {
            server,
            generation,
            entries: (0..n)
                .map(|i| PinglistEntry {
                    target: PingTarget::Server {
                        id: ServerId(1 + i as u32),
                        ip: Ipv4Addr::new(10, 0, 0, 1 + i as u8),
                    },
                    port: 8100,
                    kind: ProbeKind::TcpSyn,
                    qos: QosClass::High,
                    interval: SimDuration::from_secs(10 + i as u64),
                })
                .collect(),
        }
    }

    /// A one-agent fleet for `ServerId(0)` with `n` peers installed at t=0.
    fn fleet_of_one(n: usize) -> (AgentFleet, usize) {
        let mut fleet = AgentFleet::new(topo(), AgentConfig::default());
        let idx = fleet.push_server(ServerId(0));
        fleet.on_controller_poll(
            idx,
            ControllerPollOutcome::Pinglist(pinglist(ServerId(0), 1, n)),
            SimTime::ZERO,
        );
        (fleet, idx)
    }

    const OK: ProbeOutcome = ProbeOutcome::Success {
        rtt: SimDuration(300),
    };

    /// Wakes the agent once and feeds `outcome` back for every due probe.
    fn probe_once(
        fleet: &mut AgentFleet,
        idx: usize,
        dst: Option<ServerId>,
        outcome: ProbeOutcome,
    ) {
        let t = fleet.next_wakeup(idx).unwrap();
        let due = fleet.due_probes(idx, t);
        assert!(!due.is_empty());
        for d in &due {
            fleet.record_outcome(idx, d, dst, outcome, t);
        }
        fleet.recycle_due(due);
    }

    /// The load-bearing test: the due rings and the reference binary
    /// heap are two different algorithms, and must agree step for step on
    /// wake times, due order and port rotation — across same-generation
    /// re-polls, in-place shrinks and relocating grows. Every entry has
    /// its own interval here; the shared-cadence test below covers ties.
    #[test]
    fn fleet_schedule_matches_reference_heap_step_for_step() {
        let mut heap = ProbeScheduler::new(ServerId(0));
        let mut heap_generation = 0;
        let mut fleet = AgentFleet::new(topo(), AgentConfig::default());
        let idx = fleet.push_server(ServerId(0));

        let polls = [
            ControllerPollOutcome::Pinglist(pinglist(ServerId(0), 1, 5)),
            ControllerPollOutcome::Unreachable,
            ControllerPollOutcome::Pinglist(pinglist(ServerId(0), 1, 5)), // same gen: no reinstall
            ControllerPollOutcome::Pinglist(pinglist(ServerId(0), 2, 3)), // shrink in place
            ControllerPollOutcome::Pinglist(pinglist(ServerId(0), 3, 7)), // grow to tail
        ];
        let mut now = SimTime::ZERO;
        for poll in polls {
            if let ControllerPollOutcome::Pinglist(pl) = &poll {
                if pl.generation != heap_generation {
                    heap_generation = pl.generation;
                    heap.install(pl, now);
                }
            }
            fleet.on_controller_poll(idx, poll, now);
            assert_eq!(fleet.view(idx).generation(), heap_generation);
            assert_eq!(fleet.view(idx).peer_count(), heap.peer_count());

            for _ in 0..4 {
                let t = heap.next_due().unwrap();
                assert_eq!(fleet.next_wakeup(idx), Some(t));
                now = t;
                let dh = heap.pop_due(now);
                let df = fleet.due_probes(idx, now);
                assert_eq!(dh, df, "due stream diverged at {now:?}");
                fleet.recycle_due(df);
            }
        }
    }

    /// The ring's own cases against the reference heap, seeded: two
    /// agents whose pinglists share two or three cadences (so groups hold
    /// many entries and phases collide), wakes on time, late wakes that
    /// collapse several dues into one instant (their ties must come out
    /// in entry-index order), wakes with nothing due, guard stops and
    /// restarts, and reinstalls that fit in place or relocate.
    #[test]
    fn fleet_schedule_matches_reference_heap_on_shared_cadences() {
        let mut state = 0x5eed_0033_u64;
        let mut draw = move |m: u64| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % m
        };
        let servers = [ServerId(3), ServerId(9)];
        let mut fleet = AgentFleet::new(topo(), AgentConfig::default());
        let mut heaps: Vec<ProbeScheduler> =
            servers.iter().map(|&s| ProbeScheduler::new(s)).collect();
        let mut generations = [0u64; 2];
        let mut next_generation = 1u64;
        for &s in &servers {
            fleet.push_server(s);
        }
        let mut now = SimTime::ZERO;
        let (mut wakes, mut late, mut idle, mut stops, mut fired) = (0, 0, 0, 0, 0usize);
        let mut max_burst = 0usize;
        while wakes < 12_000 {
            let idx = draw(2) as usize;
            let roll = draw(1_000);
            if roll < 8 || fleet.next_wakeup(idx).is_none() {
                // (Re)install: 1..=48 peers on two or three shared cadences.
                let cadences: &[u64] = if draw(2) == 0 {
                    &[120, 600]
                } else {
                    &[120, 600, 300]
                };
                let mut pl = pinglist(servers[idx], next_generation, 1 + draw(48) as usize);
                next_generation += 1;
                for e in &mut pl.entries {
                    e.interval =
                        SimDuration::from_secs(cadences[draw(cadences.len() as u64) as usize]);
                }
                heaps[idx].install(&pl, now);
                generations[idx] = pl.generation;
                fleet.on_controller_poll(idx, ControllerPollOutcome::Pinglist(pl), now);
            } else if roll < 12 {
                // Guard stop; the next round restarts it with a new list.
                let stop = if draw(2) == 0 {
                    ControllerPollOutcome::NoPinglist
                } else {
                    ControllerPollOutcome::Unreachable
                };
                while !fleet.view(idx).is_stopped() {
                    fleet.on_controller_poll(idx, stop.clone(), now);
                }
                heaps[idx].clear();
                generations[idx] = 0;
                stops += 1;
            } else if roll < 20 && generations[idx] != 0 {
                // A same-generation re-poll changes nothing.
                let pl = pinglist(servers[idx], generations[idx], heaps[idx].peer_count());
                fleet.on_controller_poll(idx, ControllerPollOutcome::Pinglist(pl), now);
            } else {
                let t = heaps[idx].next_due().unwrap();
                let at = if roll < 120 && t > now + SimDuration(1) {
                    idle += 1;
                    now + SimDuration(draw((t.0 - now.0).min(30_000_000)))
                } else if roll < 350 {
                    late += 1;
                    t.max(now) + SimDuration::from_secs(draw(1_800))
                } else {
                    t.max(now)
                };
                now = at;
                let dh = heaps[idx].pop_due(now);
                let df = fleet.due_probes(idx, now);
                assert_eq!(dh, df, "due stream diverged at {now:?} (wake {wakes})");
                fired += df.len();
                max_burst = max_burst.max(df.len());
                fleet.recycle_due(df);
                wakes += 1;
            }
            for (i, heap) in heaps.iter().enumerate() {
                assert_eq!(
                    fleet.next_wakeup(i),
                    heap.next_due(),
                    "agent {i} at {now:?}"
                );
                assert_eq!(fleet.view(i).peer_count(), heap.peer_count());
                assert_eq!(fleet.view(i).generation(), generations[i]);
            }
        }
        assert!(
            late > 2_000 && idle > 500 && stops > 20,
            "{late} {idle} {stops}"
        );
        assert!(fired > 30_000 && max_burst > 20, "{fired} {max_burst}");
    }

    /// The packed arena gives back exactly what was installed: seeded
    /// lists over topology peers at their own address (packed in full),
    /// and VIPs, payload probes, misaddressed peers, ids past the topology
    /// and ids ≥ 2^31 (side table), in both QoS classes and kinds, read
    /// through `entries` and through `due_probes` across reinstalls.
    #[test]
    fn packed_entries_round_trip_through_entries_and_due_probes() {
        use pingmesh_types::constants::MAX_PAYLOAD_BYTES;
        use pingmesh_types::VipId;
        let mut state = 0x9ac4_ed08_u64;
        let mut draw = move |m: u64| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % m
        };
        let topo = topo();
        let servers = topo.server_count() as u64;
        let mut fleet = AgentFleet::new(topo.clone(), AgentConfig::default());
        let agents: Vec<usize> = (0..3).map(|s| fleet.push_server(ServerId(s))).collect();
        let mut side_worthy = std::collections::HashSet::new();
        for generation in 1..=6u64 {
            for &idx in &agents {
                let entries: Vec<PinglistEntry> = (0..1 + draw(40))
                    .map(|_| {
                        let id = ServerId(draw(servers) as u32);
                        let target = match draw(8) {
                            0 => PingTarget::Vip {
                                id: VipId(draw(3) as u32),
                                ip: Ipv4Addr::new(172, 16, 0, draw(3) as u8),
                            },
                            1 => PingTarget::Server {
                                id,
                                ip: Ipv4Addr::new(192, 0, 2, draw(4) as u8),
                            },
                            2 => {
                                let id = ServerId((1 << 31) + draw(4) as u32);
                                PingTarget::Server {
                                    id,
                                    ip: Ipv4Addr::new(198, 51, 100, 7),
                                }
                            }
                            3 => PingTarget::Server {
                                id: ServerId(servers as u32 + draw(4) as u32),
                                ip: Ipv4Addr::new(198, 51, 100, 9),
                            },
                            _ => PingTarget::Server {
                                id,
                                ip: topo.ip_of(id),
                            },
                        };
                        let kind = match draw(4) {
                            0 => ProbeKind::Http,
                            1 => ProbeKind::TcpPayload(draw(MAX_PAYLOAD_BYTES as u64 + 1) as u32),
                            _ => ProbeKind::TcpSyn,
                        };
                        PinglistEntry {
                            target,
                            port: draw(1 << 16) as u16,
                            kind,
                            qos: QosClass::ALL[draw(2) as usize],
                            interval: SimDuration::from_secs([10, 30, 45][draw(3) as usize]),
                        }
                    })
                    .collect();
                for e in &entries {
                    let in_topo = matches!(e.target, PingTarget::Server { id, ip }
                        if id.index() < topo.server_count() && topo.ip_of(id) == ip);
                    if !in_topo || matches!(e.kind, ProbeKind::TcpPayload(_)) {
                        side_worthy.insert((e.target, e.kind));
                    }
                }
                let pl = Pinglist {
                    server: fleet.server(idx),
                    generation,
                    entries,
                };
                let now = SimTime(generation * 100_000_000);
                fleet.on_controller_poll(idx, ControllerPollOutcome::Pinglist(pl.clone()), now);
                assert_eq!(fleet.view(idx).sanitized_entries(), 0);
                assert_eq!(fleet.entries(idx), pl.entries, "generation {generation}");
                // One full round of every cadence fires every entry.
                let mut fired = vec![false; pl.entries.len()];
                while let Some(t) = fleet
                    .next_wakeup(idx)
                    .filter(|&t| t < now + SimDuration::from_secs(45))
                {
                    let due = fleet.due_probes(idx, t);
                    for d in &due {
                        assert_eq!(
                            d.entry, pl.entries[d.entry_index],
                            "generation {generation}"
                        );
                        fired[d.entry_index] = true;
                    }
                    fleet.recycle_due(due);
                }
                assert!(fired.iter().all(|&f| f), "generation {generation}");
            }
        }
        assert!(side_worthy.len() > 20, "{}", side_worthy.len());
        assert_eq!(
            fleet.side.items.len(),
            side_worthy.len(),
            "each side pair once"
        );
    }

    #[test]
    fn pinglist_install_and_probing() {
        let mut fleet = AgentFleet::new(topo(), AgentConfig::default());
        let idx = fleet.push_server(ServerId(0));
        assert_eq!(fleet.view(idx).peer_count(), 0);
        assert!(fleet.entries(idx).is_empty());
        fleet.on_controller_poll(
            idx,
            ControllerPollOutcome::Pinglist(pinglist(ServerId(0), 1, 1)),
            SimTime::ZERO,
        );
        assert_eq!(fleet.view(idx).peer_count(), 1);
        assert_eq!(fleet.view(idx).generation(), 1);
        assert_eq!(fleet.entries(idx), pinglist(ServerId(0), 1, 1).entries);
        probe_once(&mut fleet, idx, Some(ServerId(1)), OK);
        assert_eq!(fleet.view(idx).counters().probes_sent, 1);
        assert_eq!(fleet.view(idx).counters().probes_succeeded, 1);
        assert_eq!(fleet.view(idx).probes_observed(), 1);
        assert_eq!(fleet.view(idx).buffered_records(), 1);
    }

    #[test]
    fn same_generation_does_not_reset_schedule() {
        let (mut fleet, idx) = fleet_of_one(1);
        let first_due = fleet.next_wakeup(idx).unwrap();
        // Re-poll with the same generation much later: schedule unchanged.
        fleet.on_controller_poll(
            idx,
            ControllerPollOutcome::Pinglist(pinglist(ServerId(0), 1, 1)),
            SimTime(5_000_000),
        );
        assert_eq!(fleet.next_wakeup(idx).unwrap(), first_due);
        // A new generation reinstalls.
        fleet.on_controller_poll(
            idx,
            ControllerPollOutcome::Pinglist(pinglist(ServerId(0), 2, 1)),
            SimTime(5_000_000),
        );
        assert_eq!(fleet.view(idx).generation(), 2);
        assert!(fleet.next_wakeup(idx).unwrap() >= SimTime(5_000_000));
    }

    /// Both §3.4.2 stop conditions — an empty controller at once, an
    /// unreachable one on the third consecutive failure — drop every peer,
    /// and a fresh pinglist re-arms the full failure budget.
    #[test]
    fn guard_transitions_clear_schedule() {
        for (stop, polls_to_stop) in [
            (ControllerPollOutcome::NoPinglist, 1),
            (ControllerPollOutcome::Unreachable, 3),
        ] {
            let (mut fleet, idx) = fleet_of_one(3);
            assert_eq!(fleet.view(idx).peer_count(), 3);
            for k in 1..=polls_to_stop {
                assert!(!fleet.view(idx).is_stopped());
                assert_eq!(
                    fleet.view(idx).peer_count(),
                    3,
                    "stale-list grace below the threshold"
                );
                fleet.on_controller_poll(idx, stop.clone(), SimTime(k));
            }
            assert!(fleet.view(idx).is_stopped(), "{stop:?}");
            assert_eq!(fleet.view(idx).peer_count(), 0);
            assert!(fleet.entries(idx).is_empty());
            assert_eq!(fleet.next_wakeup(idx), None);
            assert!(fleet.due_probes(idx, SimTime(100_000_000)).is_empty());
            // Recovery reinstalls (new generation) and resumes.
            fleet.on_controller_poll(
                idx,
                ControllerPollOutcome::Pinglist(pinglist(ServerId(0), 4, 2)),
                SimTime(10),
            );
            assert!(!fleet.view(idx).is_stopped());
            assert_eq!(fleet.view(idx).peer_count(), 2);
            assert!(fleet.next_wakeup(idx).is_some());
            // Re-armed: two more failures are again tolerated.
            fleet.on_controller_poll(idx, ControllerPollOutcome::Unreachable, SimTime(11));
            fleet.on_controller_poll(idx, ControllerPollOutcome::Unreachable, SimTime(12));
            assert!(!fleet.view(idx).is_stopped());
        }
    }

    #[test]
    fn sanitization_is_counted() {
        let mut fleet = AgentFleet::new(topo(), AgentConfig::default());
        let idx = fleet.push_server(ServerId(0));
        let mut pl = pinglist(ServerId(0), 1, 2);
        pl.entries[0].interval = SimDuration::from_secs(1); // below the floor
        fleet.on_controller_poll(idx, ControllerPollOutcome::Pinglist(pl), SimTime::ZERO);
        assert_eq!(fleet.view(idx).sanitized_entries(), 1);
        assert_eq!(
            fleet.entries(idx)[0].interval,
            pingmesh_types::constants::MIN_PROBE_INTERVAL,
            "drivers only ever see the clamped entry"
        );
    }

    #[test]
    fn records_carry_denormalized_scope() {
        let (mut fleet, idx) = fleet_of_one(1);
        probe_once(&mut fleet, idx, Some(ServerId(1)), OK);
        let batch = fleet.begin_upload(idx).unwrap();
        let topo = topo();
        let rec = batch.records(&topo).next().unwrap();
        assert_eq!(rec.src_pod, topo.server(ServerId(0)).pod);
        assert_eq!(rec.dst_pod, topo.server(ServerId(1)).pod);
        assert_eq!(rec.src_dc, rec.dst_dc);
        assert!(rec.is_intra_pod());
    }

    #[test]
    fn unresolved_targets_count_but_produce_no_record() {
        let (mut fleet, idx) = fleet_of_one(1);
        probe_once(&mut fleet, idx, None, ProbeOutcome::Timeout);
        assert_eq!(fleet.view(idx).counters().probes_failed, 1);
        assert_eq!(fleet.view(idx).probes_observed(), 1);
        assert_eq!(fleet.view(idx).unresolved_probes(), 1);
        assert!(fleet.begin_upload(idx).is_none());
    }

    #[test]
    fn counter_collection_resets_window() {
        let (mut fleet, idx) = fleet_of_one(1);
        probe_once(&mut fleet, idx, Some(ServerId(1)), OK);
        fleet.note_uploaded(idx, 100);
        let snap = fleet.collect_counters(idx);
        assert_eq!(snap.probes_sent, 1);
        assert_eq!(snap.bytes_uploaded, 100);
        assert_eq!(fleet.view(idx).counters().probes_sent, 0, "window reset");
        assert_eq!(
            fleet.view(idx).probes_observed(),
            1,
            "lifetime ledger is not"
        );
    }

    /// The upload cycle as a driver sees it: age trigger, one batch in
    /// flight, retry verdicts, and the discard ledger once the budget is
    /// spent.
    #[test]
    fn upload_cycle_retries_then_discards() {
        let (mut fleet, idx) = fleet_of_one(3);
        while fleet.view(idx).buffered_records() < 3 {
            probe_once(&mut fleet, idx, Some(ServerId(1)), OK);
        }
        let n = fleet.view(idx).buffered_records();
        let newest = fleet.next_wakeup(idx).unwrap();
        assert!(!fleet.upload_due(idx, newest), "below batch size and age");
        assert!(fleet.upload_due(idx, newest + AgentConfig::default().upload_max_age));
        let batch = fleet.begin_upload(idx).unwrap();
        assert_eq!(batch.len() as u64, n);
        assert!(fleet.view(idx).has_pending_upload());
        assert!(fleet.begin_upload(idx).is_none(), "one batch in flight");
        for _ in 0..AgentConfig::default().upload_retries {
            assert!(fleet.on_upload_result(idx, false), "retry the held batch");
        }
        assert!(!fleet.on_upload_result(idx, false), "budget spent: discard");
        assert!(!fleet.view(idx).has_pending_upload());
        assert_eq!(fleet.view(idx).discarded_total(), n);
        assert_eq!(fleet.view(idx).counters().records_discarded, n);
        fleet.recycle_batch(idx, batch);
    }

    /// The local log is readable, and it is the same log: one line per
    /// buffered record, in order, whatever the outcome.
    #[test]
    fn view_reads_the_log_of_what_was_recorded() {
        let (mut fleet, idx) = fleet_of_one(3);
        for outcome in [OK, ProbeOutcome::Timeout, ProbeOutcome::Refused, OK] {
            probe_once(&mut fleet, idx, Some(ServerId(2)), outcome);
        }
        probe_once(&mut fleet, idx, None, ProbeOutcome::Timeout); // no record, no line
        let lines: Vec<String> = fleet.view(idx).log_lines().collect();
        let batch = fleet.begin_upload(idx).unwrap();
        let want: Vec<String> = batch
            .records(fleet.topology())
            .map(|r| format!("{},srv0,srv2,{:?}", r.ts.as_micros(), r.outcome))
            .collect();
        assert!(want.len() >= 4);
        assert_eq!(lines, want);
        assert!(lines.iter().any(|l| l.ends_with(",srv2,Refused")));
    }

    #[test]
    fn segments_grow_and_reuse_without_cross_talk() {
        let mut fleet = AgentFleet::new(topo(), AgentConfig::default());
        let a = fleet.push_server(ServerId(0));
        let b = fleet.push_server(ServerId(5));
        fleet.on_controller_poll(
            a,
            ControllerPollOutcome::Pinglist(pinglist(ServerId(0), 1, 4)),
            SimTime::ZERO,
        );
        fleet.on_controller_poll(
            b,
            ControllerPollOutcome::Pinglist(pinglist(ServerId(5), 1, 2)),
            SimTime::ZERO,
        );
        // Growing a's segment relocates it to the arena tail; b unaffected.
        fleet.on_controller_poll(
            a,
            ControllerPollOutcome::Pinglist(pinglist(ServerId(0), 2, 9)),
            SimTime(50),
        );
        assert_eq!(fleet.view(a).peer_count(), 9);
        assert_eq!(fleet.view(b).peer_count(), 2);
        assert_eq!(fleet.entries(b), pinglist(ServerId(5), 1, 2).entries);
        let tb = fleet.next_wakeup(b).unwrap();
        let due_b = fleet.due_probes(b, tb);
        assert!(!due_b.is_empty());
        assert!(due_b.iter().all(|d| d.entry_index < 2));
    }
}
